package pipeline

import (
	"math"
	"testing"

	"uopsim/internal/stats"
	"uopsim/internal/workload"
)

func TestSamplingWithDefaults(t *testing.T) {
	sp := Sampling{Enabled: true}.WithDefaults(300_000)
	if sp.Intervals != 6 || sp.IntervalInsts != 6000 || sp.WarmupInsts != 2000 {
		t.Fatalf("unexpected defaults: %+v", sp)
	}
	if err := sp.Validate(300_000); err != nil {
		t.Fatal(err)
	}
	if got := sp.Coverage(300_000); math.Abs(got-0.12) > 1e-9 {
		t.Fatalf("coverage = %v, want 0.12", got)
	}
	// Disabled sampling resolves to itself and covers everything.
	z := Sampling{}.WithDefaults(300_000)
	if z != (Sampling{}) {
		t.Fatalf("disabled sampling mutated by WithDefaults: %+v", z)
	}
	if got := z.Coverage(300_000); got != 1 {
		t.Fatalf("disabled coverage = %v, want 1", got)
	}
}

func TestSamplingValidate(t *testing.T) {
	cases := []struct {
		sp      Sampling
		measure uint64
		ok      bool
	}{
		{Sampling{Enabled: true, Intervals: 4, IntervalInsts: 100, WarmupInsts: 50}, 1000, true},
		{Sampling{Enabled: true, Intervals: 4, IntervalInsts: 240, WarmupInsts: 50}, 1000, false}, // window > stride
		{Sampling{Enabled: true, Intervals: 0, IntervalInsts: 100}, 1000, false},
		{Sampling{Enabled: true, Intervals: 4, IntervalInsts: 0}, 1000, false},
		{Sampling{}, 1000, true}, // disabled is always valid
	}
	for i, c := range cases {
		err := c.sp.Validate(c.measure)
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate(%+v, %d) err=%v, want ok=%v", i, c.sp, c.measure, err, c.ok)
		}
	}
}

func TestIntervalLeadDeterministicAndInStride(t *testing.T) {
	sp := Sampling{Enabled: true, Intervals: 6, IntervalInsts: 6000, WarmupInsts: 2000}
	const measure = 300_000
	stride := uint64(measure) / uint64(sp.Intervals)
	seen := map[uint64]bool{}
	for i := 0; i < sp.Intervals; i++ {
		pre, post := sp.IntervalLead(i, measure)
		pre2, post2 := sp.IntervalLead(i, measure)
		if pre != pre2 || post != post2 {
			t.Fatalf("interval %d: IntervalLead not deterministic", i)
		}
		if pre+post+sp.WarmupInsts+sp.IntervalInsts != stride {
			t.Fatalf("interval %d: window does not tile the stride (pre=%d post=%d)", i, pre, post)
		}
		seen[pre] = true
	}
	if len(seen) < sp.Intervals-1 {
		t.Fatalf("offsets barely vary: %v — low-discrepancy placement broken", seen)
	}
}

// TestFastForwardKeepsOracleContinuity: after an architectural skip the
// cycle simulator must keep consuming the walker stream exactly where the
// fast-forward left it — no dropped or duplicated records.
func TestFastForwardKeepsOracleContinuity(t *testing.T) {
	wl := buildWL(t, "bm_ds")
	sim, err := New(DefaultConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	ref := workload.NewWalker(wl)
	var mismatches int
	sim.OnConsume = func(rec workload.Rec) {
		want := ref.Next()
		if rec != want && mismatches < 3 {
			t.Errorf("consumed %+v, walker says %+v", rec, want)
			mismatches++
		}
	}
	if err := sim.Run(5_000); err != nil {
		t.Fatal(err)
	}
	if got := sim.FastForward(20_000); got != 20_000 {
		t.Fatalf("FastForward consumed %d records, want 20000", got)
	}
	if err := sim.Run(5_000); err != nil {
		t.Fatal(err)
	}
	sim.FastForward(1_000)
	if err := sim.Run(5_000); err != nil {
		t.Fatal(err)
	}
}

func TestRunSampledDeterministic(t *testing.T) {
	sp := Sampling{Enabled: true, Intervals: 4, IntervalInsts: 2000, WarmupInsts: 500}
	run := func() Metrics {
		wl := buildWL(t, "bm_ds")
		sim, err := New(DefaultConfig(), wl)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.RunSampled(20_000, 60_000, sp)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("sampled runs diverge:\n a=%+v\n b=%+v", a, b)
	}
}

func TestRunSampledRejectsZeroMeasure(t *testing.T) {
	wl := buildWL(t, "bm_ds")
	sim, err := New(DefaultConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunSampled(1000, 0, Sampling{Enabled: true}); err == nil {
		t.Fatal("RunSampled accepted a zero measurement interval")
	}
	if _, err := sim.RunMeasured(1000, 0); err == nil {
		t.Fatal("RunMeasured accepted a zero measurement interval")
	}
}

func TestRunSampledDisabledMatchesFull(t *testing.T) {
	wl := buildWL(t, "bm_ds")
	sim, err := New(DefaultConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunSampled(10_000, 30_000, Sampling{})
	if err != nil {
		t.Fatal(err)
	}
	wl2 := buildWL(t, "bm_ds")
	sim2, err := New(DefaultConfig(), wl2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim2.RunMeasured(10_000, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("disabled sampling diverges from RunMeasured:\n got=%+v\nwant=%+v", got, want)
	}
}

// TestRunSampledTracksFull is the error-bound sanity check at test scale:
// the sampled estimate of a full run must land within a loose tolerance of
// the full metrics (the tight bounds are measured and documented by the
// cmd/uopexp -sample-validate harness; this guards against gross breakage
// like unwarmed predictors or mis-scaled extrapolation).
func TestRunSampledTracksFull(t *testing.T) {
	wl := buildWL(t, "bm_ds")
	sim, err := New(DefaultConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.RunMeasured(50_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	wl2 := buildWL(t, "bm_ds")
	sim2, err := New(DefaultConfig(), wl2)
	if err != nil {
		t.Fatal(err)
	}
	samp, err := sim2.RunSampled(50_000, 150_000, Sampling{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	relErr := func(s, f float64) float64 {
		if f == 0 {
			return 0
		}
		return math.Abs(s-f) / f
	}
	if e := relErr(samp.UPC, full.UPC); e > 0.15 {
		t.Errorf("UPC off by %.1f%% (sampled %.3f, full %.3f)", e*100, samp.UPC, full.UPC)
	}
	if e := relErr(samp.OCHitRate, full.OCHitRate); e > 0.15 {
		t.Errorf("OC hit rate off by %.1f%% (sampled %.3f, full %.3f)", e*100, samp.OCHitRate, full.OCHitRate)
	}
	if e := relErr(float64(samp.Insts), float64(full.Insts)); e > 0.01 {
		t.Errorf("extrapolated insts off by %.1f%% (sampled %d, full %d)", e*100, samp.Insts, full.Insts)
	}
	if samp.Cycles <= 0 || samp.Mispredicts == 0 {
		t.Errorf("degenerate sampled metrics: %+v", samp)
	}
}

// TestExtrapolateScalesCounts scales a summed window to a run ten times
// the measured instructions: totals scale, and so does the window itself,
// while rates stay those of the measured instructions.
func TestExtrapolateScalesCounts(t *testing.T) {
	r := stats.NewRegistry()
	for path, n := range map[string]uint64{
		"pipeline.cycle": 1000, "backend.uops.retired": 4000, "dispatch.insts": 2000,
		"dispatch.uops.oc": 3000, "dispatch.uops.ic": 500, "dispatch.uops.lc": 500,
		"oc.lookups": 100, "oc.hits": 90,
	} {
		r.Counter(path).Add(n)
	}
	win := r.Snapshot()
	m := extrapolate(&win, 20_000) // 10x the measured 2000 insts
	if m.Insts != 20_000 || m.Cycles != 10_000 || m.UopsOC != 30_000 {
		t.Fatalf("bad scaling: %+v", m)
	}
	if got := win.Counter("dispatch.insts"); got != m.Insts {
		t.Fatalf("window dispatch.insts = %d, Metrics.Insts = %d", got, m.Insts)
	}
	if math.Abs(m.UPC-4.0) > 1e-9 {
		t.Fatalf("UPC must be the unscaled ratio, got %v", m.UPC)
	}
	if math.Abs(m.OCHitRate-0.9) > 1e-9 {
		t.Fatalf("OCHitRate must be the unscaled ratio, got %v", m.OCHitRate)
	}
}

// TestAddSnapshotDeltaCoversAllFields requires a measured window to hold
// every instrument a Sim registers, of every kind, so no kind the
// simulator uses is one windowing cannot handle, and no instrument is
// left out of an answer.
func TestAddSnapshotDeltaCoversAllFields(t *testing.T) {
	sp := Sampling{Enabled: true, Intervals: 2, IntervalInsts: 2_000, WarmupInsts: 1_000}
	for _, sampling := range []Sampling{{}, sp} {
		s, err := New(DefaultConfig(), sharedWL(t, "bm_cc"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunSampled(2_000, 12_000, sampling); err != nil {
			t.Fatal(err)
		}
		live, win := s.StatsSnapshot(), s.Window()
		if len(win.Samples) != len(live.Samples) {
			t.Fatalf("sampled=%v: window holds %d samples, the registry %d", sampling.Enabled, len(win.Samples), len(live.Samples))
		}
		for i, sm := range live.Samples {
			if w := win.Samples[i]; w.Path != sm.Path || w.Kind != sm.Kind {
				t.Fatalf("sampled=%v: window sample %d is %s %q, registry's is %s %q",
					sampling.Enabled, i, w.Kind, w.Path, sm.Kind, sm.Path)
			}
		}
		s.Release()
	}
}

// BenchmarkInstCost compares what an instruction costs fast-forwarded and
// cycle-simulated on a warmed bm_cc simulator, in ns/inst; the Sampling doc
// quotes the ratio:
//
//	go test -run '^$' -bench InstCost -count 5 ./internal/pipeline
func BenchmarkInstCost(b *testing.B) {
	const chunk = 10_000
	for _, mode := range []string{"FastForward", "Run"} {
		b.Run(mode, func(b *testing.B) {
			s, err := New(DefaultConfig(), sharedWL(b, "bm_cc"))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Release()
			if err := s.Run(100_000); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "FastForward" {
					s.FastForward(chunk)
				} else if err := s.Run(chunk); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/inst")
		})
	}
}
