package uopcache

import (
	"testing"
	"testing/quick"

	"uopsim/internal/isa"
	"uopsim/internal/rng"
)

// mkInst builds a static instruction for builder tests.
func mkInst(id uint32, addr uint64, length, uops, imm uint8, ucoded bool) *isa.Inst {
	class := isa.ClassALU
	if ucoded {
		class = isa.ClassMicrocoded
	}
	in := &isa.Inst{ID: id, Len: length, NumUops: uops, ImmDisp: imm, Class: class}
	in.SetAddr(addr)
	return in
}

// seqInsts lays out n identical instructions contiguously from base.
func seqInsts(base uint64, n int, length, uops, imm uint8) []*isa.Inst {
	insts := make([]*isa.Inst, n)
	addr := base
	for i := range insts {
		insts[i] = mkInst(uint32(i), addr, length, uops, imm, false)
		addr += uint64(length)
	}
	return insts
}

// cloneEntry copies an emitted entry: emit's argument is the builder's own
// open entry, which the next instruction rebuilds.
func cloneEntry(e *Entry) *Entry {
	c := *e
	return &c
}

func collectEntries(t *testing.T, limits BuildLimits) (*Builder, *[]*Entry) {
	var out []*Entry
	b := NewBuilder(limits, newCache(t, DefaultConfig()), func(e *Entry) { out = append(out, cloneEntry(e)) })
	return b, &out
}

func TestBuilderTakenBranchTermination(t *testing.T) {
	b, out := collectEntries(t, DefaultLimits())
	insts := seqInsts(0x1000, 3, 4, 1, 0)
	b.Add(insts[0], 0x1000, 1, false)
	b.Add(insts[1], 0x1000, 1, false)
	b.Add(insts[2], 0x1000, 1, true) // predicted taken branch
	if len(*out) != 1 {
		t.Fatalf("entries = %d, want 1", len(*out))
	}
	e := (*out)[0]
	if e.Term != TermTakenBranch || !e.EndsTaken {
		t.Errorf("term = %v endsTaken = %v", e.Term, e.EndsTaken)
	}
	if e.NumUops != 3 || e.NumInsts() != 3 {
		t.Errorf("uops = %d insts = %d", e.NumUops, e.NumInsts())
	}
	if e.Start != 0x1000 || e.End != 0x1000+12 {
		t.Errorf("range [%#x, %#x)", e.Start, e.End)
	}
}

func TestBuilderICBoundaryTermination(t *testing.T) {
	b, out := collectEntries(t, DefaultLimits())
	// Instructions of 10 bytes starting at 0x1030: the 2nd starts at 0x103a
	// (same line), the 3rd at 0x1044 (next line) -> terminate.
	insts := seqInsts(0x1030, 3, 10, 1, 0)
	for _, in := range insts {
		b.Add(in, 0x1030, 1, false)
	}
	if len(*out) != 1 {
		t.Fatalf("entries = %d, want 1 (boundary split)", len(*out))
	}
	e := (*out)[0]
	if e.Term != TermICBoundary {
		t.Errorf("term = %v, want icboundary", e.Term)
	}
	if e.NumInsts() != 2 {
		t.Errorf("first entry insts = %d, want 2", e.NumInsts())
	}
	if e.SpansBoundary {
		t.Error("baseline entry must not span the boundary")
	}
}

func TestBuilderCLASPSpansOneBoundary(t *testing.T) {
	limits := DefaultLimits()
	limits.MaxICLines = 2
	b, out := collectEntries(t, limits)
	// 7 x 10B from 0x1030: line crossings at inst 3 (0x1044) and inst 8...
	// With a 2-line span the entry may cover lines 0x1000 and 0x1040 but
	// must terminate when an instruction starts in line 0x1080.
	insts := seqInsts(0x1030, 9, 10, 1, 0)
	for _, in := range insts {
		b.Add(in, 0x1030, 1, false)
	}
	if len(*out) == 0 {
		t.Fatal("no entries emitted")
	}
	e := (*out)[0]
	if !e.SpansBoundary {
		t.Error("CLASP entry should span the first boundary")
	}
	if e.Term != TermICBoundary {
		t.Errorf("term = %v", e.Term)
	}
	// Every inst of the first entry starts below 0x1080.
	if e.End > 0x1080+10 {
		t.Errorf("entry extends too far: end=%#x", e.End)
	}
}

func TestBuilderMaxUopsTermination(t *testing.T) {
	b, out := collectEntries(t, DefaultLimits())
	insts := seqInsts(0x2000, 3, 4, 3, 0) // 3 uops each; 3rd would exceed 8
	for _, in := range insts {
		b.Add(in, 0x2000, 1, false)
	}
	if len(*out) != 1 {
		t.Fatalf("entries = %d", len(*out))
	}
	if (*out)[0].Term != TermMaxUops {
		t.Errorf("term = %v", (*out)[0].Term)
	}
	if (*out)[0].NumUops != 6 {
		t.Errorf("uops = %d", (*out)[0].NumUops)
	}
}

func TestBuilderMaxImmTermination(t *testing.T) {
	b, out := collectEntries(t, DefaultLimits())
	insts := seqInsts(0x2000, 3, 4, 1, 2) // 2 imm fields each; 3rd exceeds 4
	for _, in := range insts {
		b.Add(in, 0x2000, 1, false)
	}
	if len(*out) != 1 || (*out)[0].Term != TermMaxImm {
		t.Fatalf("out=%d term=%v", len(*out), (*out)[0].Term)
	}
}

func TestBuilderMaxUcodeTermination(t *testing.T) {
	b, out := collectEntries(t, DefaultLimits())
	addr := uint64(0x2000)
	for i := 0; i < 5; i++ {
		in := mkInst(uint32(i), addr, 2, 1, 0, true)
		addr += 2
		b.Add(in, 0x2000, 1, false)
	}
	if len(*out) != 1 || (*out)[0].Term != TermMaxUcode {
		t.Fatalf("ucode termination missing: %d entries", len(*out))
	}
	if (*out)[0].NumUcoded != 4 {
		t.Errorf("ucoded = %d", (*out)[0].NumUcoded)
	}
}

func TestBuilderCapacityTermination(t *testing.T) {
	b, out := collectEntries(t, DefaultLimits())
	// 7 uops + 4 imm = 49 + 16 + 2 = 67 > 64: the 4th inst (2 uops, 1 imm)
	// cannot fit after 3 insts of (2 uops, 1 imm) = 6 uops + 3 imm = 56B.
	insts := seqInsts(0x3000, 4, 6, 2, 1)
	for _, in := range insts {
		b.Add(in, 0x3000, 1, false)
	}
	if len(*out) != 1 || (*out)[0].Term != TermCapacity {
		t.Fatalf("capacity termination missing (entries=%d)", len(*out))
	}
	if (*out)[0].Bytes() > LineBytes {
		t.Errorf("entry bytes %d exceed line", (*out)[0].Bytes())
	}
}

func TestBuilderNonContiguousAutoTerminates(t *testing.T) {
	b, out := collectEntries(t, DefaultLimits())
	b.Add(mkInst(0, 0x1000, 4, 1, 0, false), 0x1000, 1, false)
	b.Add(mkInst(9, 0x5000, 4, 1, 0, false), 0x5000, 2, false) // jump elsewhere
	if len(*out) != 1 {
		t.Fatalf("non-contiguous add should terminate the open entry")
	}
}

func TestBuilderFlushDropsPartial(t *testing.T) {
	b, out := collectEntries(t, DefaultLimits())
	b.Add(mkInst(0, 0x1000, 4, 1, 0, false), 0x1000, 1, false)
	b.Flush()
	if len(*out) != 0 {
		t.Fatal("flush must not emit")
	}
	if b.Abandoned() != 1 {
		t.Errorf("abandoned = %d", b.Abandoned())
	}
}

func TestBuilderTerminateTaken(t *testing.T) {
	b, out := collectEntries(t, DefaultLimits())
	b.Add(mkInst(0, 0x1000, 4, 1, 0, false), 0x1000, 1, false)
	b.TerminateTaken()
	if len(*out) != 1 || !(*out)[0].EndsTaken {
		t.Fatal("TerminateTaken should emit a taken-ending entry")
	}
}

func TestEntriesPerPWAccounting(t *testing.T) {
	c := newCache(t, DefaultConfig())
	st := c.Stats
	var out []*Entry
	b := NewBuilder(DefaultLimits(), c, func(e *Entry) { out = append(out, cloneEntry(e)) })
	// PW 1: 4 insts of 3 uops -> splits into two entries (8-uop limit).
	insts := seqInsts(0x1000, 4, 4, 3, 0)
	for _, in := range insts {
		b.Add(in, 0x1000, 1, false)
	}
	// PW 2 (sequential continuation): one inst, then taken.
	next := mkInst(9, insts[3].End(), 4, 1, 0, false)
	b.Add(next, 0x2000, 2, true)
	// PW 3 flushes accounting for PW 2.
	b.Add(mkInst(10, 0x9000, 4, 1, 0, false), 0x9000, 3, false)

	if st.EntriesPerPW.Total() < 2 {
		t.Fatalf("PW distribution samples = %d", st.EntriesPerPW.Total())
	}
	if got := st.EntriesPerPW.Fraction(2); got == 0 {
		t.Errorf("PW 1 spanned 2 entries but distribution shows none: %v", st.EntriesPerPW)
	}
}

// TestEntryNeverOverflowsLine drives the builder with random instruction
// streams and checks the fundamental invariant: every emitted entry fits a
// 64-byte line and respects the Table I limits.
func TestEntryNeverOverflowsLine(t *testing.T) {
	if err := quick.Check(func(seed uint64, clasp bool) bool {
		r := rng.New(seed)
		limits := DefaultLimits()
		if clasp {
			limits.MaxICLines = 2
		}
		ok := true
		var emitted []*Entry
		b := NewBuilder(limits, newCache(t, DefaultConfig()), func(e *Entry) { emitted = append(emitted, cloneEntry(e)) })
		addr := uint64(0x1000)
		pw := uint64(0x1000)
		pwInst := uint64(1)
		for i := 0; i < 200; i++ {
			length := uint8(r.Range(1, 15))
			uops := uint8(r.Range(1, 4))
			imm := uint8(r.Intn(3))
			ucoded := r.Bool(0.05)
			if ucoded {
				uops = uint8(r.Range(3, 8))
				imm = 0
			}
			in := mkInst(uint32(i), addr, length, uops, imm, ucoded)
			taken := r.Bool(0.2)
			b.Add(in, pw, pwInst, taken)
			addr += uint64(length)
			if taken {
				// New PW at a new address (simulated branch target).
				addr += uint64(r.Range(1, 200))
				pw = addr
				pwInst++
			}
		}
		for _, e := range emitted {
			if e.Bytes() > LineBytes {
				ok = false
			}
			if int(e.NumUops) > limits.MaxUops || int(e.NumImm) > limits.MaxImm || int(e.NumUcoded) > limits.MaxUcoded {
				ok = false
			}
			if !clasp && icLine(e.Start) != icLine(e.End-1) && !e.SpansBoundary {
				// baseline entries may end with a straddling instruction,
				// but must never START instructions beyond their line
				// (checked via SpansBoundary which tracks start bytes).
				_ = e
			}
			if e.Start >= e.End {
				ok = false
			}
		}
		return ok
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
