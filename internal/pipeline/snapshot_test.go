package pipeline_test

import (
	"reflect"
	"strings"
	"testing"

	"uopsim/internal/experiments"
	"uopsim/internal/pipeline"
	"uopsim/internal/smt"
	"uopsim/internal/stats"
	"uopsim/internal/workload"
)

var windowSampling = pipeline.Sampling{Enabled: true, Intervals: 2, IntervalInsts: 2_000, WarmupInsts: 1_000}

// referenceWindows measures the long way what MeasureThreads leaves in
// each thread's Window: a full registry snapshot before and after every
// measured interval, the differences summed and, for a sampled run,
// scaled by measure over the measured instructions.
func referenceWindows(t *testing.T, threads []*pipeline.Sim, run func(uint64) error, warmup, measure uint64, sp pipeline.Sampling) []stats.Snapshot {
	t.Helper()
	sp = sp.WithDefaults(measure)
	wins := make([]stats.Snapshot, len(threads))
	runOK := func(n uint64) {
		if err := run(n); err != nil {
			t.Fatal(err)
		}
	}
	interval := func(n uint64) {
		before := make([]stats.Snapshot, len(threads))
		for i, th := range threads {
			before[i] = th.StatsSnapshot()
		}
		runOK(n)
		for i, th := range threads {
			wins[i].AddDelta(before[i], th.StatsSnapshot())
		}
	}
	if !sp.Enabled {
		runOK(warmup)
		interval(measure)
		return wins
	}
	skip := func(n uint64) {
		for _, th := range threads {
			th.FastForward(n)
		}
	}
	skip(warmup)
	for i := range sp.Intervals {
		pre, post := sp.IntervalLead(i, measure)
		skip(pre)
		runOK(sp.WarmupInsts)
		interval(sp.IntervalInsts)
		skip(post)
	}
	for i := range wins {
		wins[i].Scale(float64(measure) / float64(wins[i].Counter("dispatch.insts")))
	}
	return wins
}

// checkWindow requires got, a Sim's Window, to equal the reference window
// want (less the sampling.* gauges, which the reference run never
// registers) and the run's metrics to agree with it.
func checkWindow(t *testing.T, who string, got, want stats.Snapshot, m pipeline.Metrics, sampled bool) {
	t.Helper()
	var kept []stats.Sample
	for _, sm := range got.Samples {
		if !strings.HasPrefix(sm.Path, "sampling.") {
			kept = append(kept, sm)
		}
	}
	if sampled == (len(kept) == len(got.Samples)) {
		t.Errorf("%s: sampled=%v, but the window's sampling gauges say otherwise", who, sampled)
	}
	if want = want.Clone(); !reflect.DeepEqual(kept, want.Samples) {
		t.Errorf("%s: the window differs from the reference\n got %+v\nwant %+v", who, kept, want.Samples)
	}
	if got.Counter("dispatch.insts") != m.Insts {
		t.Errorf("%s: window dispatch.insts = %d, Metrics.Insts = %d", who, got.Counter("dispatch.insts"), m.Insts)
	}
	if !sampled && m != pipeline.MetricsOf(got) {
		t.Errorf("%s: Metrics %+v, derived from the window %+v", who, m, pipeline.MetricsOf(got))
	}
}

// TestSnapshotMatchesStats holds a Sim's measured window, full and
// sampled, to the window taken the long way from full registry snapshots
// on an identical Sim, on every scheme: the window counts the measured
// instructions only, so fast-forwarded and warmup accesses (mem.*
// included) are absent from it.
func TestSnapshotMatchesStats(t *testing.T) {
	wl, err := workload.Shared("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range experiments.Schemes(3) {
		t.Run(sc.Name, func(t *testing.T) {
			for _, sp := range []pipeline.Sampling{{}, windowSampling} {
				s, err := pipeline.New(sc.Configure(2048), wl)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := pipeline.New(sc.Configure(2048), wl)
				if err != nil {
					t.Fatal(err)
				}
				m, err := s.RunSampled(2_000, 12_000, sp)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceWindows(t, []*pipeline.Sim{ref}, ref.Run, 2_000, 12_000, sp)
				checkWindow(t, "single thread", s.Window(), want[0], m, sp.Enabled)
				s.Release()
				ref.Release()
			}
		})
	}
}

// TestPairSnapshotMatchesStats is TestSnapshotMatchesStats on both threads
// of an SMT pair, whose threads share one uop cache.
func TestPairSnapshotMatchesStats(t *testing.T) {
	a, err := workload.ByName("bm_ds")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range experiments.Schemes(3) {
		t.Run(sc.Name, func(t *testing.T) {
			for _, sp := range []pipeline.Sampling{{}, windowSampling} {
				p, err := smt.New(sc.Configure(2048), a, b)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := smt.New(sc.Configure(2048), a, b)
				if err != nil {
					t.Fatal(err)
				}
				ma, mb, err := p.RunSampled(2_000, 12_000, sp)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceWindows(t, []*pipeline.Sim{ref.A, ref.B}, ref.Run, 2_000, 12_000, sp)
				checkWindow(t, "thread A", p.A.Window(), want[0], ma, sp.Enabled)
				checkWindow(t, "thread B", p.B.Window(), want[1], mb, sp.Enabled)
				p.Release()
				ref.Release()
			}
		})
	}
}

// TestNewCounterReachesWindow registers one more counter on a Sim's
// registry and nothing else: a full answer carries it windowed and a
// sampled one extrapolated, on a single thread and on both SMT threads.
// The counter reads twice the dispatched instructions, so its window is
// twice the window's dispatch.insts (within rounding, once scaled).
func TestNewCounterReachesWindow(t *testing.T) {
	wl, err := workload.Shared("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	a, err := workload.ByName("bm_ds")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	register := func(s *pipeline.Sim) {
		s.Registry().RegisterCounter("test.double_insts", stats.CounterFunc(func() uint64 { return 2 * s.Insts() }))
	}
	check := func(who string, s *pipeline.Sim, m pipeline.Metrics, sampled bool) {
		t.Helper()
		got, want := s.Window().Counter("test.double_insts"), 2*m.Insts
		if sampled && got+1 >= want && got <= want+1 || got == want {
			return
		}
		t.Errorf("%s, sampled=%v: test.double_insts = %d in the window, want %d", who, sampled, got, want)
	}
	for _, sp := range []pipeline.Sampling{{}, windowSampling} {
		s, err := pipeline.New(pipeline.DefaultConfig(), wl)
		if err != nil {
			t.Fatal(err)
		}
		register(s)
		m, err := s.RunSampled(2_000, 12_000, sp)
		if err != nil {
			t.Fatal(err)
		}
		check("single thread", s, m, sp.Enabled)
		s.Release()

		p, err := smt.New(pipeline.DefaultConfig(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		register(p.A)
		register(p.B)
		ma, mb, err := p.RunSampled(2_000, 12_000, sp)
		if err != nil {
			t.Fatal(err)
		}
		check("thread A", p.A, ma, sp.Enabled)
		check("thread B", p.B, mb, sp.Enabled)
		p.Release()
	}
}
