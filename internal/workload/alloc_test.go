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

// TestWalkerResetAcrossWorkloads pins the recycled walker: once it has
// served the largest profile, a Reset onto a smaller workload and back
// allocates nothing, and each Reset walker produces the stream a new walker
// of that workload does, whatever the larger one left in its arrays.
func TestWalkerResetAcrossWorkloads(t *testing.T) {
	big, err := Shared("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	small, err := Shared("redis")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(big)
	for i := 0; i < 100_000; i++ {
		w.Next()
	}
	if avg := testing.AllocsPerRun(5, func() { w.Reset(small); w.Reset(big) }); avg != 0 {
		t.Errorf("Reset between redis and bm_cc allocated %.1f times, want 0", avg)
	}
	for _, wl := range []*Workload{small, big, small} {
		for i := 0; i < 100_000; i++ {
			w.Next()
		}
		w.Reset(wl)
		ref := NewWalker(wl)
		for i := 0; i < 100_000; i++ {
			if got, want := w.Next(), ref.Next(); got != want {
				t.Fatalf("%s: record %d of a Reset walker is %+v, a new walker's %+v", wl.Profile.Name, i, got, want)
			}
		}
	}
}

// TestProgramImageLiveHeap bounds what the 13 Table II builds keep alive:
// every uopsimd and uopexp process holds all of them. A 20-byte Inst, a
// 12-byte Block, a 2-byte behaviour slot per instruction, 2-byte memory
// and 32-byte branch behaviours, exact-size slices and a bitmap-rank
// address index hold them near 17.3 MiB; 4-byte slots took 18.4 MiB,
// 32-byte Insts and 24-byte memory behaviours that carried their region
// 29.9 MiB, and 40-byte Insts and Blocks, append-grown slices and a
// 4-byte-per-code-byte address table 51.4 MiB.
func TestProgramImageLiveHeap(t *testing.T) {
	const bound = 20 << 20
	names := Names()
	wls := make([]*Workload, len(names))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, name := range names {
		prof, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if wls[i], err = BuildAt(prof, CodeBase); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(wls)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if live > bound {
		t.Errorf("%d fresh builds hold %.1f MiB live, want <= %.1f MiB", len(wls), float64(live)/(1<<20), float64(bound)/(1<<20))
	}
	t.Logf("%d fresh builds: %.1f MiB live", len(wls), float64(live)/(1<<20))
}

// TestBuildAllocs bounds the allocations of one build: the builder lays
// every instruction into one flat slice and reuses its register scratch,
// so a build allocates per table, not per block. Per-block instruction
// slices and scratch took 133k allocations on bm_cc.
func TestBuildAllocs(t *testing.T) {
	const bound = 5000
	prof, err := ByName("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := BuildAt(prof, CodeBase); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Errorf("BuildAt(bm_cc) made %.0f allocations, want <= %d", allocs, bound)
	}
	t.Logf("BuildAt(bm_cc): %.0f allocations", allocs)
}
