package pipeline

import (
	"testing"

	"uopsim/internal/stats"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

func buildWL(t *testing.T, name string) *workload.Workload {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestOracleSynchronization is the pipeline's most important correctness
// property: the sequence of correct-path instructions the front end consumes
// must be exactly the architectural walker's stream, no matter how many
// wrong paths, redirects, flushes and cache replacements happen in between.
func TestOracleSynchronization(t *testing.T) {
	for _, scheme := range []string{"baseline", "clasp", "fpwac"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			wl := buildWL(t, "bm_ds")
			cfg := DefaultConfig()
			switch scheme {
			case "clasp":
				cfg.Limits.MaxICLines = 2
				cfg.UopCache.MaxICLines = 2
			case "fpwac":
				cfg.Limits.MaxICLines = 2
				cfg.UopCache.MaxICLines = 2
				cfg.UopCache.MaxEntriesPerLine = 2
				cfg.UopCache.Alloc = uopcache.AllocFPWAC
			}
			sim, err := New(cfg, wl)
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
			if err := sim.Run(150_000); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Metrics {
		wl := buildWL(t, "bm_lla")
		sim, err := New(DefaultConfig(), wl)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.RunMeasured(20_000, 60_000)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical runs produced different metrics:\n%v\n%v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	wl := buildWL(t, "redis")
	bad := DefaultConfig()
	bad.UopCache.CapacityUops = 50 // yields zero sets
	if _, err := New(bad, wl); err == nil {
		t.Error("invalid uop cache capacity should fail")
	}
	mismatch := DefaultConfig()
	mismatch.Limits.MaxICLines = 2 // CLASP in builder but not in cache
	if _, err := New(mismatch, wl); err == nil {
		t.Error("CLASP span mismatch should fail")
	}
}

func TestSMCInvalidation(t *testing.T) {
	wl := buildWL(t, "redis")
	sim, err := New(DefaultConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100_000); err != nil {
		t.Fatal(err)
	}
	oc := sim.UopCache()
	if oc.ResidentEntries() == 0 {
		t.Fatal("cache should be populated")
	}
	// Invalidate every code line: all entries must vanish (SMC correctness:
	// no stale uops survive a write to their code line).
	invalidated := 0
	for line := wl.Program.Base &^ 63; line < wl.Program.Limit+64; line += 64 {
		invalidated += sim.InvalidateCodeLine(line)
	}
	if rem := oc.ResidentEntries(); rem != 0 {
		t.Errorf("%d entries survived full-range SMC invalidation", rem)
	}
	if invalidated == 0 {
		t.Error("nothing was invalidated")
	}
	// The machine must keep running correctly afterwards (entries refill).
	if err := sim.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if oc.ResidentEntries() == 0 {
		t.Error("cache did not refill after invalidation")
	}
}

func TestSMCTargetedInvalidation(t *testing.T) {
	wl := buildWL(t, "redis")
	cfg := DefaultConfig()
	cfg.Limits.MaxICLines = 2 // CLASP: the two-set probe must still catch all
	cfg.UopCache.MaxICLines = 2
	sim, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100_000); err != nil {
		t.Fatal(err)
	}
	oc := sim.UopCache()
	// After invalidating line L, no resident entry may overlap L.
	line := wl.Program.Base + 4096
	sim.InvalidateCodeLine(line)
	for set := 0; set < oc.Sets(); set++ {
		// Probe every address in the line: no entry may start there...
		for a := line; a < line+64; a++ {
			if e, ok := oc.Probe(a); ok && e.OverlapsLine(line) {
				t.Fatalf("entry %#x-%#x survived invalidation of %#x", e.Start, e.End, line)
			}
		}
	}
}

func TestRunMeasuredIntervals(t *testing.T) {
	wl := buildWL(t, "bm_x64")
	sim, err := New(DefaultConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.RunMeasured(10_000, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Insts < 40_000 || m.Insts > 41_000 {
		t.Errorf("measured insts = %d, want ~40000", m.Insts)
	}
	if m.Cycles <= 0 || m.UPC <= 0 || m.DispatchBW <= 0 {
		t.Errorf("degenerate metrics: %+v", m)
	}
	if m.OCFetchRatio < 0 || m.OCFetchRatio > 1 {
		t.Errorf("fetch ratio out of range: %v", m.OCFetchRatio)
	}
}

func TestUPCWithinDispatchBound(t *testing.T) {
	wl := buildWL(t, "bm_pb")
	cfg := DefaultConfig()
	sim, _ := New(cfg, wl)
	m, err := sim.RunMeasured(20_000, 80_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.UPC > float64(cfg.DispatchWidth) {
		t.Errorf("UPC %v exceeds dispatch width %d", m.UPC, cfg.DispatchWidth)
	}
	if m.DispatchBW > float64(cfg.DispatchWidth) {
		t.Errorf("dispatch BW %v exceeds width", m.DispatchBW)
	}
}

// TestBiggerCacheNeverHurts: monotonicity of the headline capacity result.
func TestBiggerCacheNeverHurts(t *testing.T) {
	var prev Metrics
	for i, capUops := range []int{2048, 16384, 65536} {
		wl := buildWL(t, "bm_cc")
		cfg := DefaultConfig()
		cfg.UopCache.CapacityUops = capUops
		sim, _ := New(cfg, wl)
		m, err := sim.RunMeasured(30_000, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if m.OCFetchRatio < prev.OCFetchRatio-0.01 {
				t.Errorf("fetch ratio regressed: %v -> %v at %d uops", prev.OCFetchRatio, m.OCFetchRatio, capUops)
			}
			if m.UPC < prev.UPC*0.995 {
				t.Errorf("UPC regressed: %v -> %v at %d uops", prev.UPC, m.UPC, capUops)
			}
		}
		prev = m
	}
}

func TestLoopCacheServesUops(t *testing.T) {
	// x264 is loop-dominated; the loop cache should capture something.
	wl := buildWL(t, "bm_x64")
	sim, _ := New(DefaultConfig(), wl)
	m, err := sim.RunMeasured(30_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.UopsLC == 0 {
		t.Error("loop cache never supplied uops on a loopy workload")
	}
}

func TestSnapshotDeltas(t *testing.T) {
	wl := buildWL(t, "redis")
	sim, _ := New(DefaultConfig(), wl)
	if err := sim.Run(20_000); err != nil {
		t.Fatal(err)
	}
	a := sim.StatsSnapshot()
	if err := sim.Run(20_000); err != nil {
		t.Fatal(err)
	}
	m := metricsBetween(a, sim.StatsSnapshot())
	if m.Insts < 20_000 || m.Insts > 21_000 {
		t.Errorf("delta insts = %d", m.Insts)
	}
	if m.Cycles <= 0 {
		t.Error("cycles must advance")
	}
}

// metricsBetween derives the metrics of the window between two registry
// snapshots, a taken first.
func metricsBetween(a, b stats.Snapshot) Metrics {
	var w stats.Snapshot
	w.AddDelta(a, b)
	return MetricsOf(w)
}
