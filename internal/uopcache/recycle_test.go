package uopcache

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"uopsim/internal/isa"
	"uopsim/internal/rng"
)

// TestRecycledEntriesNeverResident drives two builders that share one small
// cache (the SMT arrangement) with a seeded stream of fills, flushes and SMC
// invalidations under every allocation policy. After every operation the
// cache must match the reference and its slots must hold only live entries
// (see twin.check).
func TestRecycledEntriesNeverResident(t *testing.T) {
	for _, alloc := range []Alloc{AllocNone, AllocRAC, AllocPWAC, AllocFPWAC} {
		for maxE := 1; maxE <= 3; maxE++ {
			if alloc != AllocNone && maxE == 1 {
				continue // compaction needs room for a second entry
			}
			name := fmt.Sprintf("%v/%d", alloc, maxE)
			t.Run(name, func(t *testing.T) {
				tw := newTwin(t, Config{CapacityUops: 256, Ways: 4, MaxEntriesPerLine: maxE, Alloc: alloc, MaxICLines: 1}, 2)
				r := rng.New(uint64(alloc)*10 + uint64(maxE))
				for i := 0; i < 6000; i++ {
					th := tw.threads[r.Intn(len(tw.threads))]
					switch r.Intn(40) {
					case 0:
						tw.flush(th, uint64(r.Intn(48)))
					case 1:
						tw.invalidate(th.base + uint64(r.Intn(10))*ICLineBytes)
					default:
						tw.step(th, uint8(r.Range(1, 4)), uint8(r.Intn(2)), uint8(r.Range(1, 15)), r.Intn(8) == 0, r.Intn(6) == 0)
					}
				}
				if fills := tw.c.Stats.Fills.Value(); fills < 1000 {
					t.Fatalf("only %d fills: stream too tame to exercise slot reuse", fills)
				}
			})
		}
	}
}

// TestBuilderReusesFlushedEntry checks that the entry a flush abandons
// leaves nothing behind in the builder's open entry: the next instruction
// starts a clean entry.
func TestBuilderReusesFlushedEntry(t *testing.T) {
	c := newCache(t, DefaultConfig())
	b := NewBuilder(DefaultLimits(), c, c.Fill)
	in := seqInsts(0x1000, 3, 4, 1, 0)
	b.Add(in[0], 0x1000, 1, false)
	b.Flush()
	b.Add(in[1], 0x1004, 2, false)
	b.Add(in[2], 0x1004, 2, true)
	e, ok := c.Probe(0x1004)
	if !ok || !slices.Equal(e.InstIDs(), []uint32{1, 2}) || e.NumUops != 2 || e.End != 0x100c || e.PWID != 0x1004 {
		t.Fatalf("entry after a flush filled as %+v, want a clean 2-instruction entry at 0x1004", e)
	}
	if b.Abandoned() != 1 {
		t.Errorf("abandoned = %d, want 1", b.Abandoned())
	}
}

// TestFillStreamAllocatesNothing runs a stream of builder fills, lookups and
// SMC invalidations into a cache reset to empty before each run, under
// F-PWAC with three entries per line: entries are built in the builder and
// copied into fixed slots, so the stream allocates nothing. (With entries
// held by pointer the cache allocated one per entry it filled into a free
// slot, plus each line's entry slice.)
func TestFillStreamAllocatesNothing(t *testing.T) {
	cfg := Config{CapacityUops: 1024, Ways: 8, MaxEntriesPerLine: 3, Alloc: AllocFPWAC, MaxICLines: 2}
	c := newCache(t, cfg)
	limits := DefaultLimits()
	limits.MaxICLines = 2
	b := NewBuilder(limits, c, c.Fill)
	r := rng.New(7)
	insts := make([]*isa.Inst, 4000)
	taken := make([]bool, len(insts))
	addr := uint64(0x10000)
	for i := range insts {
		insts[i] = mkInst(uint32(i), addr, uint8(r.Range(1, 15)), uint8(r.Range(1, 4)), uint8(r.Intn(2)), r.Intn(8) == 0)
		addr = insts[i].End()
		if taken[i] = r.Intn(5) == 0; taken[i] {
			addr = 0x10000 + uint64(r.Intn(4096))
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := c.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		pw, instance := insts[0].Addr(), uint64(1)
		for i, in := range insts {
			b.Add(in, pw, instance, taken[i])
			if taken[i] {
				pw, instance = insts[(i+1)%len(insts)].Addr(), instance+1
				c.Lookup(pw)
			}
			if i%64 == 0 {
				c.InvalidateCodeLine(in.Addr())
			}
		}
	})
	if allocs != 0 {
		t.Errorf("fill stream allocated %v objects per run, want 0", allocs)
	}
	if c.Stats.Fills.Value() < 1000 || c.Stats.LineEvictions.Value() == 0 || c.Stats.FillsCompact.Value() == 0 {
		t.Fatalf("stream too tame: %d fills, %d evictions, %d compacted", c.Stats.Fills.Value(), c.Stats.LineEvictions.Value(), c.Stats.FillsCompact.Value())
	}
}

// TestSlotsBoundedByLineBytes gives the cache an entries-per-line bound far
// above what a line's 64 bytes can hold. Its slot array must be sized by the
// bytes (maxLineEntries slots per line), so neither New nor a Reset between
// such configurations allocates in proportion to the bound, and compaction
// still packs a line with as many one-uop entries as fit, exactly as the
// reference does.
func TestSlotsBoundedByLineBytes(t *testing.T) {
	for _, alloc := range []Alloc{AllocNone, AllocRAC, AllocPWAC, AllocFPWAC} {
		cfg := Config{CapacityUops: 2048, Ways: 8, MaxEntriesPerLine: math.MaxInt, Alloc: alloc, MaxICLines: 1}
		c := newCache(t, cfg)
		if want := c.Sets() * cfg.Ways * maxLineEntries; cap(c.slots) != want {
			t.Fatalf("%v: %d slots, want %d", alloc, cap(c.slots), want)
		}
		small := cfg
		small.MaxEntriesPerLine = maxLineEntries
		if allocs := testing.AllocsPerRun(3, func() {
			if err := c.Reset(small); err != nil {
				t.Fatal(err)
			}
			if err := c.Reset(cfg); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%v: Reset allocated %v objects, want 0", alloc, allocs)
		}

		ref := newRefCache(cfg, NewStats())
		stride := uint64(c.Sets() * 64) // same set, distinct start addresses
		for k := uint64(0); k < 100; k++ {
			e := entryAt(0x1000+k*stride, 1, k/5)
			c.Fill(e)
			ref.Fill(e)
		}
		if c.ResidentEntries() != ref.ResidentEntries() || c.Utilization() != ref.Utilization() {
			t.Fatalf("%v: %d entries at %.3f utilization, reference %d at %.3f", alloc,
				c.ResidentEntries(), c.Utilization(), ref.ResidentEntries(), ref.Utilization())
		}
		for k := uint64(0); k < 100; k++ {
			got, ok := c.Probe(0x1000 + k*stride)
			want, wantOK := ref.Probe(0x1000 + k*stride)
			if ok != wantOK || ok && *got != *want {
				t.Fatalf("%v: probe %d = %v, reference %v", alloc, k, ok, wantOK)
			}
		}
		full := 0
		lo, hi := c.setLines(c.setOf(0x1000))
		for i := lo; i < hi; i++ {
			full = max(full, len(c.entries(i)))
		}
		want := maxLineEntries
		if alloc == AllocNone {
			want = 1
		}
		if full != want {
			t.Errorf("%v: fullest line holds %d entries, want %d", alloc, full, want)
		}
	}
}
