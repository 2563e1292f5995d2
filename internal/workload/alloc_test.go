package workload

import (
	"math"
	"runtime"
	"testing"
)

// TestWalkerStepAllocFree pins the walker's per-step allocation behaviour:
// once the call stack has reached its steady-state capacity, Next must not
// allocate at all — every behaviour lookup and every piece of dynamic state
// (loop trips, pattern positions, indirect runs, memory stream offsets) is a
// dense slice sized at construction.
func TestWalkerStepAllocFree(t *testing.T) {
	prof, err := ByName("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(wl)
	for i := 0; i < 200_000; i++ {
		w.Next()
	}
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 5_000; i++ {
			w.Next()
		}
	})
	if avg != 0 {
		t.Errorf("walker allocated %.1f times per 5k steady-state steps, want 0", avg)
	}
}

// TestNewWalkerAllocScalesWithBehaviours pins what a walker costs to build:
// its state is indexed by behaviour slot, so NewWalker allocates in
// proportion to the instructions that carry behaviour (at most 16 bytes
// each), not to program length. Sizing it by static instruction took 32
// bytes per instruction, about 3 MB on bm_cc.
func TestNewWalkerAllocScalesWithBehaviours(t *testing.T) {
	wl, err := Shared("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	beh := wl.Behaviors
	slots := len(beh.Cond) + len(beh.Indirect) + len(beh.Mem)
	bound := uint64(16*slots + 4096)
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		NewWalker(wl)
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > bound {
		t.Errorf("NewWalker(bm_cc) allocated %d bytes for %d behaviour slots (%d insts), want <= %d",
			best, slots, wl.Program.NumInsts(), bound)
	}
	t.Logf("NewWalker(bm_cc): %d bytes, %d cond + %d indirect + %d mem slots, %d insts",
		best, len(beh.Cond), len(beh.Indirect), len(beh.Mem), wl.Program.NumInsts())
}
