package experiments

import (
	"fmt"
	"runtime"
	"testing"
)

// benchPoints is a small scheme x workload grid, large enough that the
// executor hands out and collects many points per op.
func benchPoints() []Point {
	var pts []Point
	for _, wl := range []string{"bm_ds", "redis"} {
		for _, sc := range Schemes(2) {
			pts = append(pts, Point{wl, sc, 2048})
		}
	}
	return pts
}

// BenchmarkSweepDelivery measures a full sweep — ten points simulated
// directly, no engine — at increasing worker counts. Workers write each
// result into its own slot of the aligned result slice, so no worker waits
// on another's delivery, and the SnapshotSink runs once per point after the
// batch. Compare parallel=1 against higher counts to see how simulation
// scales with workers; on a single-CPU host the counts should be
// near-identical rather than degrading.
func BenchmarkSweepDelivery(b *testing.B) {
	pars := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		pars = append(pars, n)
	}
	pts := benchPoints()
	for _, par := range pars {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			p := Params{
				WarmupInsts:  2_000,
				MeasureInsts: 5_000,
				Workloads:    []string{"bm_ds", "redis"},
				Parallel:     par,
				// The -metrics path: every run also goes to the sink.
				SnapshotSink: func(Run) {},
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sweep(p, pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepDeliveryDeduped is the same grid with a shared engine: after
// the first op every point is a memo hit, so this measures what a sweep
// costs besides simulation — the executor's scheduling, preparing and
// fingerprinting each point, the memo lookup, and keying the runs.
func BenchmarkSweepDeliveryDeduped(b *testing.B) {
	pts := benchPoints()
	eng, err := NewEngine("", 0)
	if err != nil {
		b.Fatal(err)
	}
	p := Params{
		WarmupInsts:  2_000,
		MeasureInsts: 5_000,
		Workloads:    []string{"bm_ds", "redis"},
		Parallel:     2,
		Engine:       eng,
	}
	if _, err := sweep(p, pts); err != nil { // prime the memo table
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep(p, pts); err != nil {
			b.Fatal(err)
		}
	}
}
