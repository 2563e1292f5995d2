package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// schemeNames are the paper's five design points in figure order; see
// schemeConfig.
var schemeNames = [...]string{"baseline", "CLASP", "RAC", "PWAC", "F-PWAC"}

// schemeConfig mirrors experiments.Scheme.Configure (which imports this
// package) for scheme i of schemeNames.
func schemeConfig(i, capacity, maxEntries int) Config {
	cfg := DefaultConfig()
	cfg.UopCache.CapacityUops = capacity
	if i == 0 {
		return cfg
	}
	cfg.Limits.MaxICLines = 2
	cfg.UopCache.MaxICLines = 2
	if i >= 2 {
		cfg.UopCache.MaxEntriesPerLine = maxEntries
		cfg.UopCache.Alloc = [...]uopcache.Alloc{uopcache.AllocRAC, uopcache.AllocPWAC, uopcache.AllocFPWAC}[i-2]
	}
	return cfg
}

func sharedWL(t testing.TB, name string) *workload.Workload {
	t.Helper()
	wl, err := workload.Shared(name)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

const recycleWarmup, recycleMeasure = 3_000, 12_000

// hostileCore runs a simulator that leaves as much foreign state in its
// core as a caller can: another workload, a 512-uop cache compacting three
// entries per line, an interval-sampled run (which registers sampling.*),
// an attached occupancy observer with its own instruments, and OnConsume.
// It returns the retired core.
func hostileCore(t *testing.T, name string, scheme int) *core {
	t.Helper()
	s, err := newSim(schemeConfig(scheme, 512, 3), sharedWL(t, name), nil, new(core))
	if err != nil {
		t.Fatal(err)
	}
	s.SetObserver(NewOccupancyObserver(s.Registry().Scope("trace"), s.cfg))
	consumed := 0
	s.OnConsume = func(workload.Rec) { consumed++ }
	sp := Sampling{Enabled: true, Intervals: 2, IntervalInsts: 2_000, WarmupInsts: 1_000}
	if _, err := s.RunSampled(recycleWarmup, recycleMeasure, sp); err != nil {
		t.Fatal(err)
	}
	if consumed == 0 {
		t.Fatal("hostile predecessor consumed no instructions")
	}
	return s.retire()
}

// runResult is what a design point reports: its metrics and the JSON of
// its end-of-run snapshot.
type runResult struct {
	m    Metrics
	snap []byte
}

// measureOn runs one design point on core c and returns its result and
// the retired core.
func measureOn(t *testing.T, c *core, cfg Config, wl *workload.Workload) (runResult, *core) {
	t.Helper()
	s, err := newSim(cfg, wl, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.RunMeasured(recycleWarmup, recycleMeasure)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(s.StatsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	return runResult{m, snap}, s.retire()
}

func (got runResult) mustEqual(t *testing.T, want runResult) {
	t.Helper()
	if got.m != want.m {
		t.Errorf("metrics differ from a fresh core:\nrecycled %v\nfresh    %v", got.m, want.m)
	}
	if !bytes.Equal(got.snap, want.snap) {
		t.Errorf("snapshot JSON differs from a fresh core (%d vs %d bytes)", len(got.snap), len(want.snap))
	}
}

// TestRecycledSimMatchesFresh runs every Table II workload under each of
// the five schemes on a new core, on a core a hostile predecessor left
// behind, and once more on the core that run retired (the same workload
// again, so the walker's arrays are reused too): metrics and snapshot
// bytes must be identical. A component whose reset misses a field, or a
// caller-registered instrument that survives into the next simulator,
// fails here.
func TestRecycledSimMatchesFresh(t *testing.T) {
	names := workload.Names()
	for pi, name := range names {
		for sc := range schemeNames {
			name, other, sc := name, names[(pi+1+sc)%len(names)], sc
			t.Run(name+"/"+schemeNames[sc], func(t *testing.T) {
				t.Parallel()
				cfg := schemeConfig(sc, 2048, 2)
				wl := sharedWL(t, name)
				want, _ := measureOn(t, new(core), cfg, wl)
				got, c := measureOn(t, hostileCore(t, other, sc), cfg, wl)
				got.mustEqual(t, want)
				again, _ := measureOn(t, c, cfg, wl)
				again.mustEqual(t, want)
			})
		}
	}
}

// TestReleasedSimPanics pins the Release contract: a released Sim cannot
// run, snapshot or be released again.
func TestReleasedSimPanics(t *testing.T) {
	s, err := New(DefaultConfig(), sharedWL(t, "bm_x64"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1_000); err != nil {
		t.Fatal(err)
	}
	s.Release()
	for _, c := range []struct {
		name string
		use  func()
	}{
		{"Release", s.Release},
		{"Run", func() { s.Run(1) }},
		{"Step", s.Step},
		{"FastForward", func() { s.FastForward(1) }},
		{"RunMeasured", func() { s.RunMeasured(0, 1) }},
		{"RunSampled", func() { s.RunSampled(0, 100, Sampling{}) }},
		{"StatsSnapshot", func() { s.StatsSnapshot() }},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s on a released Sim did not panic", c.name)
				} else if fmt.Sprint(r) != "pipeline: Sim used after Release" {
					t.Errorf("%s on a released Sim panicked with %v", c.name, r)
				}
			}()
			c.use()
		}()
	}
}

// TestRecycledCoresConcurrent drives New, run, snapshot and Release from
// several goroutines at once, as a daemon's engine workers do, so the race
// detector sees the pool handing cores between goroutines. Every result
// must match the same point on a new core.
func TestRecycledCoresConcurrent(t *testing.T) {
	names := []string{"bm_x64", "redis", "bm_ds", "nutch"}
	cfg := DefaultConfig()
	want := make([]runResult, len(names))
	for i, name := range names {
		want[i], _ = measureOn(t, new(core), cfg, sharedWL(t, name))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < len(names); k++ {
				i := (g + k) % len(names)
				s, err := New(cfg, sharedWL(t, names[i]))
				if err != nil {
					t.Error(err)
					return
				}
				m, err := s.RunMeasured(recycleWarmup, recycleMeasure)
				if err != nil {
					t.Error(err)
					return
				}
				snap, err := json.Marshal(s.StatsSnapshot())
				s.Release()
				if err != nil {
					t.Error(err)
					return
				}
				if m != want[i].m || !bytes.Equal(snap, want[i].snap) {
					t.Errorf("goroutine %d: %s on a pooled core differs from a new core", g, names[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestInvalidConfigAllocatesNothing: construction validates the
// configuration once, before it builds anything, so a rejected
// configuration costs only its error value.
func TestInvalidConfigAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the error's own allocation count varies under -race: fmt pools its printers in a sync.Pool")
	}
	wl := sharedWL(t, "bm_x64")
	oc, err := uopcache.New(DefaultConfig().UopCache)
	if err != nil {
		t.Fatal(err)
	}
	narrow := DefaultConfig()
	narrow.DispatchWidth = 0
	span := DefaultConfig()
	span.Limits.MaxICLines = 2
	badOC := DefaultConfig()
	badOC.UopCache.CapacityUops = 0
	for _, bad := range []struct {
		name string
		cfg  Config
	}{{"width", narrow}, {"CLASP span", span}, {"uop cache", badOC}} {
		cfg := bad.cfg
		errAllocs := testing.AllocsPerRun(10, func() { _ = cfg.Validate() })
		for _, c := range []struct {
			name  string
			build func() (*Sim, error)
		}{
			{"New", func() (*Sim, error) { return New(cfg, wl) }},
			{"NewWithCache", func() (*Sim, error) { return NewWithCache(cfg, wl, oc) }},
		} {
			if _, err := c.build(); err == nil {
				t.Fatalf("%s accepted the invalid %s config", c.name, bad.name)
			}
			if got := testing.AllocsPerRun(10, func() { c.build() }); got != errAllocs {
				t.Errorf("%s with an invalid %s config: %v allocations, want %v (the error's own)", c.name, bad.name, got, errAllocs)
			}
		}
	}
}

// recycledNewBytesBound caps pipeline.New(bm_cc) on a pooled core. What
// remains is the uop cache (about 10 KB), the uop cache builder and the
// metrics registry a new Sim always gets; 150 KB is under a tenth of a
// fresh core, so a component that allocates outside its Reset fails it.
const recycledNewBytesBound = 150_000

// TestRecycledNewAllocBound bounds New on a core a released simulator left
// in the pool (the best of five, so a stray allocation or a pool that a
// GC emptied cannot fail it).
func TestRecycledNewAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops released cores at random under -race")
	}
	wl := sharedWL(t, "bm_cc")
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		s, err := New(DefaultConfig(), wl)
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err = New(DefaultConfig(), wl)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > recycledNewBytesBound {
		t.Errorf("pipeline.New(bm_cc) on a recycled core allocated %d bytes, want <= %d", best, recycledNewBytesBound)
	}
	t.Logf("pipeline.New(bm_cc) on a recycled core: %d bytes", best)
}
