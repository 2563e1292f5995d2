package pipeline

import (
	"math"
	"runtime"
	"testing"

	"uopsim/internal/workload"
)

// allocBound is the steady-state allocation budget per simulated cycle. The
// cycle loop is allocation-free once warm (it measures 0 here): windows are
// built into PW ring slots that keep their Conds backing, fetch groups
// return to the item pool when they drain or are flushed, the uop cache
// builds each entry in the builder and copies it into a fixed slot, and
// loop captures reuse a scratch body. The budget (100 objects per 20k-cycle
// run) leaves room for the rare growth of a pooled backing but not for any
// of those paths to regress: dropping flushed loop-cache groups alone
// measures 0.011, dropping flushed uop-cache groups 0.031, a new entry
// object per fill 0.126 and fresh Conds per window 0.434 objects/cycle.
// This loop runs warm at 2048 uops, where every fill replaces an entry;
// TestColdPointAllocBound covers a cache that fills for its whole run.
const allocBound = 0.005

// TestCycleLoopAllocLean bounds the steady-state cycle loop's allocation
// rate on bm_cc after a 100k-instruction warmup.
func TestCycleLoopAllocLean(t *testing.T) {
	prof, err := workload.ByName("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(DefaultConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	const steps = 20_000
	avg := testing.AllocsPerRun(5, func() {
		for i := 0; i < steps; i++ {
			s.step()
		}
	})
	perCycle := avg / steps
	if perCycle > allocBound {
		t.Errorf("steady-state cycle loop allocates %.3f objects/cycle, want <= %.3f", perCycle, allocBound)
	}
	t.Logf("steady-state allocations: %.4f objects/cycle", perCycle)
}

// TestObserverDisabledAllocFree proves the observability refactor is free
// when off: with no observer attached, the registry conversion and the
// nil-checked event hooks must add zero allocations over the plain cycle
// loop. The baseline and instrumented runs use two identical warmed sims so
// the comparison isolates the hook overhead from workload phase behavior.
func TestObserverDisabledAllocFree(t *testing.T) {
	prof, err := workload.ByName("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(DefaultConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if s.obs != nil {
		t.Fatal("observer should default to nil")
	}
	const steps = 20_000
	avg := testing.AllocsPerRun(5, func() {
		for i := 0; i < steps; i++ {
			s.step()
		}
	})
	perCycle := avg / steps
	// Same bound as TestCycleLoopAllocLean: the disabled observer path must
	// not move the allocation rate at all.
	if perCycle > allocBound {
		t.Errorf("disabled-observer cycle loop allocates %.3f objects/cycle, want <= %.3f", perCycle, allocBound)
	}
	t.Logf("disabled-observer allocations: %.4f objects/cycle", perCycle)
}

// TestRingObserverAllocLean bounds the attached ring observer: the ring is
// preallocated, so steady-state tracing must not add per-event heap traffic.
func TestRingObserverAllocLean(t *testing.T) {
	prof, err := workload.ByName("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(DefaultConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	ring := NewRingObserver(1024)
	s.SetObserver(ring)
	const steps = 20_000
	avg := testing.AllocsPerRun(5, func() {
		for i := 0; i < steps; i++ {
			s.step()
		}
	})
	s.SetObserver(nil)
	perCycle := avg / steps
	if perCycle > allocBound {
		t.Errorf("ring-observer cycle loop allocates %.3f objects/cycle, want <= %.3f", perCycle, allocBound)
	}
	if ring.Total() == 0 {
		t.Error("ring observer saw no events over 120k traced cycles")
	}
	t.Logf("ring-observer allocations: %.4f objects/cycle over %d events", perCycle, ring.Total())
}

// newBytesBound caps what pipeline.New allocates for bm_cc on a new core,
// once the shared workload build exists. The walker sizes its state by the
// instructions that carry behaviour, so construction is the uop cache, BTB,
// TAGE and memory hierarchy tables plus about 0.3 MB of walker state
// (1.4 MB in all); with walker state sized by program length it measured
// 4.8 MB. TestRecycledNewAllocBound covers New on a released core.
const newBytesBound = 2_500_000

// TestNewAllocBound bounds the bytes one cold design point spends building
// its Sim on a new core, measured as the TotalAlloc delta around New (the
// best of three, so a stray background allocation cannot fail it). The core
// pool is emptied first, so New cannot pass by reusing a released core.
func TestNewAllocBound(t *testing.T) {
	wl, err := workload.Shared("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		for corePool.Get() != nil {
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := New(DefaultConfig(), wl); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > newBytesBound {
		t.Errorf("pipeline.New(bm_cc) allocated %d bytes, want <= %d", best, newBytesBound)
	}
	if best <= recycledNewBytesBound {
		t.Errorf("pipeline.New(bm_cc) allocated only %d bytes, within the recycled-core bound: it reused a core", best)
	}
	t.Logf("pipeline.New(bm_cc): %d bytes", best)
}

// The cold-point bounds cap the heap objects and bytes of one cold design
// point on a recycled core: bm_cc under F-PWAC with three entries per line
// in a 16384-uop cache, from New to the answer's final StatsSnapshot and
// Release, right after a redis point released that core. Each is the
// measured value plus 15%.
//
// The full point runs 20k warm-up and 100k measured instructions. Before
// the uop cache kept its entries in fixed slots it allocated one object per
// entry it filled into a free slot (5,024 objects, measured without the
// redis point); while each Sim built a new metrics registry it took 287
// objects. While Sim.Snapshot built a registry snapshot per interval read
// and the walker reallocated its per-slot arrays on a change of workload,
// it took 51 objects and 350,936 bytes. It measures 38 objects and 11,176
// bytes: the Sim, its gauge closures, the final snapshot and the growth of
// a few fetch-side backings.
//
// The sampled point is the bench's sampled shape: 100k warm-up and 1M
// measured instructions under the default sampling (6 intervals of 20k
// measured instructions after 6,666 warm-up ones). It took 108 objects
// and 437,208 bytes before those two changes and measures 45 objects and
// 11,400 bytes; the sampling gauges it registers are the difference.
const (
	coldPointObjectsBound        = 43
	coldPointBytesBound          = 12_850
	coldSampledPointObjectsBound = 51
	coldSampledPointBytesBound   = 13_110
)

// coldPointAlloc returns the fewest objects and bytes a cold bm_cc point
// allocates on a core a redis point released, running each point as run
// does (the best of three, so a pool a GC emptied cannot fail it). The two
// workloads alternate so that the recycled walker moves between the
// largest profile and a small one: a Reset that dropped arrays larger than
// the new workload needs would reallocate about 310 KiB per bm_cc point.
func coldPointAlloc(t *testing.T, run func(*Sim) error) (objects, bytes uint64) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops released cores at random under -race")
	}
	cfg := schemeConfig(4, 16384, 3)
	point := func(name string) {
		s, err := New(cfg, sharedWL(t, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := run(s); err != nil {
			t.Fatal(err)
		}
		s.StatsSnapshot()
		s.Release()
	}
	point("bm_cc")
	objects, bytes = math.MaxUint64, math.MaxUint64
	for i := 0; i < 3; i++ {
		point("redis")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		point("bm_cc")
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// TestColdPointAllocBound bounds a fully simulated cold point.
func TestColdPointAllocBound(t *testing.T) {
	objects, bytes := coldPointAlloc(t, func(s *Sim) error {
		_, err := s.RunMeasured(20_000, 100_000)
		return err
	})
	checkColdPoint(t, "full", objects, bytes, coldPointObjectsBound, coldPointBytesBound)
}

// TestColdSampledPointAllocBound bounds an interval-sampled cold point.
func TestColdSampledPointAllocBound(t *testing.T) {
	objects, bytes := coldPointAlloc(t, func(s *Sim) error {
		_, err := s.RunSampled(100_000, 1_000_000, Sampling{Enabled: true})
		return err
	})
	checkColdPoint(t, "sampled", objects, bytes, coldSampledPointObjectsBound, coldSampledPointBytesBound)
}

func checkColdPoint(t *testing.T, kind string, objects, bytes, objectsBound, bytesBound uint64) {
	t.Helper()
	if objects > objectsBound {
		t.Errorf("a cold %s bm_cc F-PWAC point at 16384 uops allocated %d objects, want <= %d", kind, objects, objectsBound)
	}
	if bytes > bytesBound {
		t.Errorf("a cold %s bm_cc F-PWAC point at 16384 uops allocated %d bytes, want <= %d", kind, bytes, bytesBound)
	}
	t.Logf("cold %s bm_cc F-PWAC point at 16384 uops on a core redis released: %d objects, %d bytes", kind, objects, bytes)
}
