package pipeline

import (
	"testing"

	"uopsim/internal/workload"
)

// allocBound is the steady-state allocation budget per simulated cycle. The
// cycle loop is allocation-free once warm (it measures 0 here): windows are
// built into PW ring slots that keep their Conds backing, fetch groups
// return to the item pool when they drain or are flushed, the uop cache
// recycles the entries it drops into the builder, and loop captures reuse a
// scratch body. The budget (100 objects per 20k-cycle run) leaves room for
// the rare growth of a pooled backing but not for any of those paths to
// regress: dropping flushed loop-cache groups alone measures 0.011, dropping
// flushed uop-cache groups 0.031, fresh entries per fill 0.126 and fresh
// Conds per window 0.434 objects/cycle.
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
