package uopcache

import (
	"fmt"
	"slices"
	"testing"

	"uopsim/internal/rng"
)

// filled is what an entry held when it was filled.
type filled struct {
	start   uint64
	ids     []uint32
	numUops uint8
}

// recycleThread is one instruction stream feeding its own Builder, as an SMT
// thread does; the two threads' code regions do not alias.
type recycleThread struct {
	b        *Builder
	base     uint64
	addr     uint64
	pw       uint64
	instance uint64
	nextID   uint32
}

// jump starts a new prediction window at one of a few hot addresses, so
// re-decodes of the same start exercise dedupe.
func (th *recycleThread) jump(r *rng.Source) {
	th.addr = th.base + uint64(r.Intn(48))*13
	th.pw = th.addr
	th.instance++
}

// step feeds one instruction; fills happen through the builder's emit
// callback.
func (th *recycleThread) step(r *rng.Source) {
	uops := uint8(r.Range(1, 4))
	imm := uint8(r.Intn(2))
	in := mkInst(th.nextID, th.addr, uint8(r.Range(1, 15)), uops, imm, r.Intn(8) == 0)
	th.nextID++
	taken := r.Intn(6) == 0
	th.b.Add(in, th.pw, th.instance, taken)
	th.addr = in.End()
	if taken {
		th.jump(r)
	}
}

// checkResident verifies the ownership rules: every resident entry still
// holds exactly what was filled into it, appears once, sits in its own set,
// and is not on the free list (a recycled entry is never still resident).
func checkResident(t *testing.T, c *Cache, want map[*Entry]filled, what string) {
	t.Helper()
	free := make(map[*Entry]bool, len(c.free))
	for _, e := range c.free {
		if free[e] {
			t.Fatalf("%s: entry %p on the free list twice", what, e)
		}
		free[e] = true
	}
	seen := map[*Entry]bool{}
	for set := 0; set < c.Sets(); set++ {
		for w := range c.setLines(set) {
			for _, e := range c.setLines(set)[w].entries {
				if seen[e] {
					t.Fatalf("%s: entry %p resident twice", what, e)
				}
				seen[e] = true
				if free[e] {
					t.Fatalf("%s: resident entry %#x is on the free list", what, e.Start)
				}
				f, ok := want[e]
				if !ok {
					t.Fatalf("%s: resident entry %#x was never filled", what, e.Start)
				}
				if e.Start != f.start || e.NumUops != f.numUops || !slices.Equal(e.InstIDs(), f.ids) {
					t.Fatalf("%s: resident entry changed since its fill: start %#x uops %d ids %v, filled start %#x uops %d ids %v",
						what, e.Start, e.NumUops, e.InstIDs(), f.start, f.numUops, f.ids)
				}
				if c.setOf(e.Start) != set {
					t.Fatalf("%s: entry %#x resident in set %d", what, e.Start, set)
				}
			}
		}
	}
}

// TestRecycledEntriesNeverResident drives two builders that share one small
// cache (the SMT arrangement) with a seeded stream of fills, flushes and SMC
// invalidations under every allocation policy, and checks the ownership
// rules after every instruction. It also checks that recycling works: the
// cache hands out far fewer fresh entries than it fills.
func TestRecycledEntriesNeverResident(t *testing.T) {
	for _, alloc := range []Alloc{AllocNone, AllocRAC, AllocPWAC, AllocFPWAC} {
		for maxE := 1; maxE <= 3; maxE++ {
			if alloc != AllocNone && maxE == 1 {
				continue // compaction needs room for a second entry
			}
			name := fmt.Sprintf("%v/%d", alloc, maxE)
			t.Run(name, func(t *testing.T) {
				c := newCache(t, Config{CapacityUops: 256, Ways: 4, MaxEntriesPerLine: maxE, Alloc: alloc, MaxICLines: 1})
				want := map[*Entry]filled{}
				fresh := 0
				emit := func(e *Entry) {
					if _, ok := want[e]; !ok {
						fresh++
					}
					want[e] = filled{start: e.Start, ids: slices.Clone(e.InstIDs()), numUops: e.NumUops}
					c.Fill(e)
				}
				r := rng.New(uint64(alloc)*10 + uint64(maxE))
				threads := []*recycleThread{
					{b: NewBuilder(DefaultLimits(), c, emit), base: 0x10000},
					{b: NewBuilder(DefaultLimits(), c, emit), base: 0x90000},
				}
				for _, th := range threads {
					th.jump(r)
				}
				for i := 0; i < 6000; i++ {
					th := threads[r.Intn(len(threads))]
					switch r.Intn(40) {
					case 0:
						th.b.Flush()
						th.jump(r)
					case 1:
						c.InvalidateCodeLine(th.base + uint64(r.Intn(10))*ICLineBytes)
					default:
						th.step(r)
					}
					checkResident(t, c, want, fmt.Sprintf("op %d", i))
				}
				fills := c.Stats.Fills.Value()
				if fills < 1000 {
					t.Fatalf("only %d fills: stream too tame to exercise recycling", fills)
				}
				// Each builder holds at most an open and a spare entry.
				if limit := len(c.lines)*maxE + 2*len(threads); fresh > limit {
					t.Errorf("%d distinct entries for %d fills, want <= %d: dropped entries are not recycled",
						fresh, fills, limit)
				}
				t.Logf("%d fills from %d distinct entries", fills, fresh)
			})
		}
	}
}

// TestBuilderReusesFlushedEntry checks that a flush-abandoned open entry is
// rebuilt by the next instruction instead of being dropped.
func TestBuilderReusesFlushedEntry(t *testing.T) {
	c := newCache(t, DefaultConfig())
	b := NewBuilder(DefaultLimits(), c, c.Fill)
	in := seqInsts(0x1000, 3, 4, 1, 0)
	b.Add(in[0], 0x1000, 1, false)
	abandoned := b.open
	b.Flush()
	b.Add(in[1], 0x1004, 2, false)
	if b.open != abandoned {
		t.Fatal("the entry abandoned by Flush was not reused")
	}
	b.Add(in[2], 0x1004, 2, true)
	e, ok := c.Probe(0x1004)
	if !ok || e != abandoned || !slices.Equal(e.InstIDs(), []uint32{1, 2}) || e.NumUops != 2 {
		t.Fatalf("reused entry filled as %+v, want a clean 2-instruction entry at 0x1004", e)
	}
}
