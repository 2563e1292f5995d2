package uopcache

import (
	"testing"

	"uopsim/internal/rng"
)

// entryAt builds a synthetic terminated entry of the given uop count
// starting at addr, tagged with pwid.
func entryAt(addr uint64, uops int, pwid uint64) *Entry {
	return &Entry{
		Start:   addr,
		End:     addr + uint64(uops*4),
		nInsts:  uint8(min(uops, MaxEntryInsts)),
		NumUops: uint8(uops),
		PWID:    pwid,
		Term:    TermTakenBranch,
	}
}

func newCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{CapacityUops: 2048, Ways: 0, MaxEntriesPerLine: 1, MaxICLines: 1},
		{CapacityUops: 50, Ways: 8, MaxEntriesPerLine: 1, MaxICLines: 1}, // zero sets
		{CapacityUops: 2048, Ways: 8, MaxEntriesPerLine: 0, MaxICLines: 1},
		{CapacityUops: 2048, Ways: 8, MaxEntriesPerLine: 1, Alloc: AllocRAC, MaxICLines: 1}, // compaction w/o lines
		{CapacityUops: 2048, Ways: 8, MaxEntriesPerLine: 2, Alloc: AllocRAC, MaxICLines: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestCapacityToSets(t *testing.T) {
	c := newCache(t, DefaultConfig())
	if c.Sets() != 32 { // 2048 uops / 8 per line / 8 ways
		t.Errorf("sets = %d, want 32", c.Sets())
	}
	cfg := DefaultConfig()
	cfg.CapacityUops = 65536
	c2 := newCache(t, cfg)
	if c2.Sets() != 1024 {
		t.Errorf("64K sets = %d, want 1024", c2.Sets())
	}
}

func TestFillLookupProbe(t *testing.T) {
	c := newCache(t, DefaultConfig())
	e := entryAt(0x1000, 4, 1)
	c.Fill(e)
	if got, ok := c.Lookup(0x1000); !ok || got.NumUops != 4 {
		t.Fatal("lookup after fill failed")
	}
	if _, ok := c.Lookup(0x1004); ok {
		t.Fatal("lookup at non-start address must miss")
	}
	if _, ok := c.Probe(0x1000); !ok {
		t.Fatal("probe failed")
	}
	if c.Stats.Hits.Value() != 1 || c.Stats.Lookups.Value() != 2 {
		t.Errorf("stats: hits=%d lookups=%d", c.Stats.Hits.Value(), c.Stats.Lookups.Value())
	}
}

func TestBaselineLRUReplacement(t *testing.T) {
	c := newCache(t, DefaultConfig())
	// Fill 9 entries mapping to the same set (stride = sets*64 = 2048).
	for i := 0; i < 9; i++ {
		c.Fill(entryAt(uint64(0x1000+i*2048), 4, uint64(i)))
	}
	// The first-filled (LRU) entry must be gone.
	if _, ok := c.Probe(0x1000); ok {
		t.Error("LRU entry should have been evicted")
	}
	if _, ok := c.Probe(0x1000 + 2048); !ok {
		t.Error("second entry should survive")
	}
	if c.Stats.LineEvictions.Value() != 1 {
		t.Errorf("evictions = %d", c.Stats.LineEvictions.Value())
	}
}

func TestLookupPromotes(t *testing.T) {
	c := newCache(t, DefaultConfig())
	for i := 0; i < 8; i++ {
		c.Fill(entryAt(uint64(0x1000+i*2048), 4, uint64(i)))
	}
	c.Lookup(0x1000) // promote the oldest
	c.Fill(entryAt(uint64(0x1000+8*2048), 4, 99))
	if _, ok := c.Probe(0x1000); !ok {
		t.Error("promoted entry was evicted")
	}
	if _, ok := c.Probe(0x1000 + 2048); ok {
		t.Error("the true LRU should have been evicted")
	}
}

func TestDedupeReplacesStaleEntry(t *testing.T) {
	c := newCache(t, DefaultConfig())
	c.Fill(entryAt(0x1000, 4, 1))
	c.Fill(entryAt(0x1000, 6, 1)) // re-decode produced a different shape
	e, ok := c.Lookup(0x1000)
	if !ok || e.NumUops != 6 {
		t.Fatalf("stale entry not replaced (uops=%d)", e.NumUops)
	}
	if c.Stats.FillsDeduped.Value() != 1 {
		t.Errorf("dedupes = %d", c.Stats.FillsDeduped.Value())
	}
	if c.ResidentEntries() != 1 {
		t.Errorf("resident = %d", c.ResidentEntries())
	}
}

func compactionConfig(alloc Alloc, maxEntries int) Config {
	return Config{CapacityUops: 2048, Ways: 8, MaxEntriesPerLine: maxEntries, Alloc: alloc, MaxICLines: 1}
}

func TestRACCompactsIntoMRULine(t *testing.T) {
	c := newCache(t, compactionConfig(AllocRAC, 2))
	a := entryAt(0x1000, 3, 1)      // set of 0x1000
	b := entryAt(0x1000+2048, 3, 2) // same set, different line
	c.Fill(a)
	c.Fill(b)
	c.Lookup(0x1000) // make a's line MRU
	small := entryAt(0x1000+4096, 3, 3)
	c.Fill(small)
	if c.Stats.FillsCompact.Value() != 1 || c.Stats.AllocRAC.Value() != 1 {
		t.Fatalf("compaction missing: compact=%d rac=%d",
			c.Stats.FillsCompact.Value(), c.Stats.AllocRAC.Value())
	}
	// All three resident, occupying two lines.
	for _, addr := range []uint64{0x1000, 0x1000 + 2048, 0x1000 + 4096} {
		if _, ok := c.Probe(addr); !ok {
			t.Errorf("entry %#x missing", addr)
		}
	}
}

func TestRACRespectsLineCapacity(t *testing.T) {
	c := newCache(t, compactionConfig(AllocRAC, 2))
	c.Fill(entryAt(0x1000, 8, 1)) // 58 bytes: no room for a second entry
	c.Fill(entryAt(0x1000+2048, 8, 2))
	if c.Stats.FillsCompact.Value() != 0 {
		t.Error("full lines must not be compacted into")
	}
}

func TestMaxEntriesPerLineHonored(t *testing.T) {
	c := newCache(t, compactionConfig(AllocRAC, 2))
	c.Fill(entryAt(0x1000, 2, 1))
	c.Fill(entryAt(0x1000+2048, 2, 2)) // compacts with first (MRU)
	c.Fill(entryAt(0x1000+4096, 2, 3)) // line holds 2 already: new line
	lines := 0
	for _, addr := range []uint64{0x1000, 0x1000 + 2048, 0x1000 + 4096} {
		if _, ok := c.Probe(addr); !ok {
			t.Fatalf("entry %#x missing", addr)
		}
		lines++
	}
	if c.Stats.FillsCompact.Value() != 1 {
		t.Errorf("compact fills = %d, want 1", c.Stats.FillsCompact.Value())
	}
}

func TestPWACPrefersSamePW(t *testing.T) {
	c := newCache(t, compactionConfig(AllocPWAC, 2))
	c.Fill(entryAt(0x1000, 3, 77))      // PW 77
	c.Fill(entryAt(0x1000+2048, 8, 88)) // PW 88: full line, cannot pair
	// A PW-77 entry should join the PW-77 line even though 88's is MRU.
	c.Fill(entryAt(0x1000+4096, 3, 77))
	if c.Stats.AllocPWAC.Value() != 1 {
		t.Fatalf("PWAC allocations = %d", c.Stats.AllocPWAC.Value())
	}
	// Verify co-residency: evicting by filling two big entries into other
	// ways is complex; instead check the line composition directly.
	set := c.setOf(0x1000)
	found := false
	for w := range c.setLines(set) {
		l := &c.setLines(set)[w]
		if len(l.entries) == 2 && l.entries[0].PWID == 77 && l.entries[1].PWID == 77 {
			found = true
		}
	}
	if !found {
		t.Error("same-PW entries not co-located")
	}
}

func TestFPWACRelocatesForeignEntry(t *testing.T) {
	// Paper Fig 14: PWB1 is compacted with PWA; when PWB2 arrives, the
	// forced variant keeps PWB1+PWB2 together and moves PWA to the LRU line.
	c := newCache(t, compactionConfig(AllocFPWAC, 2))
	pwa := entryAt(0x1000, 4, 0xA)
	pwb1 := entryAt(0x1000+2048, 4, 0xB)
	c.Fill(pwa)
	c.Fill(pwb1) // RAC-compacts with pwa (MRU, fits: 30+30 <= 64)
	if c.Stats.FillsCompact.Value() != 1 {
		t.Fatalf("setup failed: pwb1 not compacted (compact=%d)", c.Stats.FillsCompact.Value())
	}
	pwb2 := entryAt(0x1000+4096, 4, 0xB)
	c.Fill(pwb2)
	if c.Stats.AllocFPWAC.Value() != 1 {
		t.Fatalf("forced PWAC not used (fpwac=%d)", c.Stats.AllocFPWAC.Value())
	}
	set := c.setOf(0x1000)
	var bTogether, aAlone bool
	for w := range c.setLines(set) {
		l := &c.setLines(set)[w]
		switch len(l.entries) {
		case 2:
			if l.entries[0].PWID == 0xB && l.entries[1].PWID == 0xB {
				bTogether = true
			}
		case 1:
			if l.entries[0].PWID == 0xA {
				aAlone = true
			}
		}
	}
	if !bTogether || !aAlone {
		t.Errorf("Fig 14 layout not reached: bTogether=%v aAlone=%v", bTogether, aAlone)
	}
}

func TestFPWACFallsBackWhenPairTooBig(t *testing.T) {
	c := newCache(t, compactionConfig(AllocFPWAC, 2))
	c.Fill(entryAt(0x1000, 4, 0xA))
	c.Fill(entryAt(0x1000+2048, 4, 0xB)) // compacted with A
	// A second PW-B entry too big to pair with pwb1 (4+8 uops = 86B > 64).
	c.Fill(entryAt(0x1000+4096, 8, 0xB))
	if c.Stats.AllocFPWAC.Value() != 0 {
		t.Error("oversized pair must not force-compact")
	}
}

func TestInvalidateCodeLine(t *testing.T) {
	c := newCache(t, DefaultConfig())
	e := entryAt(0x1000, 4, 1) // covers [0x1000, 0x1010)
	c.Fill(e)
	if n := c.InvalidateCodeLine(0x1000); n != 1 {
		t.Fatalf("invalidated %d, want 1", n)
	}
	if _, ok := c.Probe(0x1000); ok {
		t.Fatal("entry survived invalidation")
	}
	if n := c.InvalidateCodeLine(0x1000); n != 0 {
		t.Errorf("second invalidation removed %d", n)
	}
}

func TestInvalidateCLASPSpanningEntry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxICLines = 2
	c := newCache(t, cfg)
	// Entry starting in line 0x1000 spanning into line 0x1040.
	e := &Entry{Start: 0x1030, End: 0x1050, ids: [MaxEntryInsts]uint32{1, 2}, nInsts: 2, NumUops: 4, SpansBoundary: true, Term: TermICBoundary}
	c.Fill(e)
	// An SMC write to line 0x1040 must find the entry via the preceding
	// set probe.
	if n := c.InvalidateCodeLine(0x1040); n != 1 {
		t.Fatalf("CLASP invalidation missed the spanning entry (n=%d)", n)
	}
}

func TestFlushAllAndUtilization(t *testing.T) {
	c := newCache(t, DefaultConfig())
	c.Fill(entryAt(0x1000, 8, 1))
	if c.Utilization() <= 0 {
		t.Error("utilization should be positive")
	}
	if c.ResidentUops() != 8 {
		t.Errorf("resident uops = %d", c.ResidentUops())
	}
	c.FlushAll()
	if c.ResidentEntries() != 0 || c.Utilization() != 0 {
		t.Error("flush incomplete")
	}
}

func TestOversizedEntryPanics(t *testing.T) {
	c := newCache(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("oversized entry should panic")
		}
	}()
	c.Fill(entryAt(0x1000, 9, 1)) // 9*7+2 = 65 > 64
}

// TestCompactionInvariants drives random fills through every policy and
// checks structural invariants: line budgets, per-line entry caps, and no
// duplicate start addresses.
func TestCompactionInvariants(t *testing.T) {
	for _, alloc := range []Alloc{AllocNone, AllocRAC, AllocPWAC, AllocFPWAC} {
		maxE := 1
		if alloc != AllocNone {
			maxE = 3
		}
		c := newCache(t, Config{CapacityUops: 2048, Ways: 8, MaxEntriesPerLine: maxE, Alloc: alloc, MaxICLines: 1})
		r := rng.New(uint64(alloc) + 42)
		for i := 0; i < 5000; i++ {
			addr := uint64(0x1000 + r.Intn(1<<16)*4)
			uops := r.Range(1, 8)
			pw := uint64(r.Intn(64))
			c.Fill(entryAt(addr, uops, pw))
		}
		starts := map[uint64]bool{}
		for set := 0; set < c.Sets(); set++ {
			for w := range c.setLines(set) {
				l := &c.setLines(set)[w]
				if len(l.entries) > maxE {
					t.Fatalf("%v: line holds %d entries (max %d)", alloc, len(l.entries), maxE)
				}
				if l.usedBytes() > LineBytes {
					t.Fatalf("%v: line overflows: %d bytes", alloc, l.usedBytes())
				}
				for _, e := range l.entries {
					if starts[e.Start] {
						t.Fatalf("%v: duplicate entry start %#x", alloc, e.Start)
					}
					starts[e.Start] = true
					if c.setOf(e.Start) != set {
						t.Fatalf("%v: entry %#x in wrong set %d", alloc, e.Start, set)
					}
				}
			}
		}
	}
}
