package pipeline_test

import (
	"math"
	"reflect"
	"testing"

	"uopsim/internal/experiments"
	"uopsim/internal/pipeline"
	"uopsim/internal/smt"
	"uopsim/internal/workload"
)

// snapshotBits lists a Snapshot's fields as raw bits, floats through
// math.Float64bits, so two snapshots compare equal only when every field
// is bit-identical.
func snapshotBits(sn pipeline.Snapshot) []uint64 {
	v := reflect.ValueOf(sn)
	bits := make([]uint64, v.NumField())
	for i := range bits {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			bits[i] = uint64(f.Int())
		case reflect.Uint64:
			bits[i] = f.Uint()
		case reflect.Float64:
			bits[i] = math.Float64bits(f.Float())
		default:
			panic("snapshotBits: unsupported kind " + f.Kind().String())
		}
	}
	return bits
}

// checkSnapshot requires s's interval read to equal the observables
// rebuilt from a full registry snapshot, and to allocate nothing.
func checkSnapshot(t *testing.T, s *pipeline.Sim, when string) {
	t.Helper()
	got, want := s.Snapshot(), pipeline.SnapshotFromStats(s.StatsSnapshot())
	if !reflect.DeepEqual(snapshotBits(got), snapshotBits(want)) {
		t.Errorf("%s: Snapshot() = %+v, SnapshotFromStats(StatsSnapshot()) = %+v", when, got, want)
	}
	if n := testing.AllocsPerRun(10, func() { s.Snapshot() }); n != 0 {
		t.Errorf("%s: Snapshot allocates %v objects, want 0", when, n)
	}
}

// TestSnapshotMatchesStats holds Sim.Snapshot, which reads the live
// instruments, to the observables SnapshotFromStats reads from a registry
// snapshot, on every scheme after each way a run advances: cycles, a
// fast-forward and a sampled run, which registers the sampling gauges.
func TestSnapshotMatchesStats(t *testing.T) {
	wl, err := workload.Shared("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	sp := pipeline.Sampling{Enabled: true, Intervals: 2, IntervalInsts: 2_000, WarmupInsts: 1_000}
	for _, sc := range experiments.Schemes(3) {
		t.Run(sc.Name, func(t *testing.T) {
			s, err := pipeline.New(sc.Configure(2048), wl)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()
			checkSnapshot(t, s, "new")
			if err := s.Run(5_000); err != nil {
				t.Fatal(err)
			}
			checkSnapshot(t, s, "after Run")
			s.FastForward(5_000)
			checkSnapshot(t, s, "after FastForward")
			if _, err := s.RunSampled(2_000, 12_000, sp); err != nil {
				t.Fatal(err)
			}
			checkSnapshot(t, s, "after RunSampled")
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
	sp := pipeline.Sampling{Enabled: true, Intervals: 2, IntervalInsts: 2_000, WarmupInsts: 1_000}
	for _, sc := range experiments.Schemes(3) {
		t.Run(sc.Name, func(t *testing.T) {
			p, err := smt.New(sc.Configure(2048), a, b)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Release()
			check := func(when string) {
				checkSnapshot(t, p.A, "thread A "+when)
				checkSnapshot(t, p.B, "thread B "+when)
			}
			if err := p.Run(5_000); err != nil {
				t.Fatal(err)
			}
			check("after Run")
			p.A.FastForward(5_000)
			p.B.FastForward(5_000)
			check("after FastForward")
			if _, _, err := p.RunSampled(2_000, 12_000, sp); err != nil {
				t.Fatal(err)
			}
			check("after RunSampled")
		})
	}
}
