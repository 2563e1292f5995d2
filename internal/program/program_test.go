package program

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"uopsim/internal/isa"
	"uopsim/internal/rng"
)

func buildSimple(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder(0x1000, isa.DefaultMix(), rng.New(1))
	b0 := b.AddBranchBlock(3, isa.BranchCond, -1) // patched below
	b1 := b.AddBlock(2)
	b2 := b.AddBranchBlock(1, isa.BranchJump, b0)
	b.SetTarget(b0, b2)
	p, err := b.Finish(b0)
	if err != nil {
		t.Fatal(err)
	}
	_ = b1
	return p
}

func TestBuilderLayoutContiguity(t *testing.T) {
	p := buildSimple(t)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Base != 0x1000 {
		t.Errorf("base = %#x", p.Base)
	}
	prevEnd := p.Base
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Addr() != prevEnd {
			t.Fatalf("inst %d at %#x, expected %#x", i, in.Addr(), prevEnd)
		}
		prevEnd = in.End()
	}
	if p.Limit != prevEnd {
		t.Errorf("limit mismatch")
	}
}

func TestAddressLookup(t *testing.T) {
	p := buildSimple(t)
	for i := range p.Insts {
		in := &p.Insts[i]
		got := p.At(in.Addr())
		if got == nil || got.ID != in.ID {
			t.Fatalf("At(%#x) failed", in.Addr())
		}
	}
	if p.At(p.Base+1) != nil && p.Insts[0].Len > 1 {
		t.Error("mid-instruction address should not resolve")
	}
	if p.At(p.Limit) != nil {
		t.Error("address past the end should not resolve")
	}
}

// TestAtIndexWordEdges lays instructions on the first and last bit of the
// address index's words (offsets 0, 63, 64, 127 and 128) and checks every
// byte of the region resolves as the instruction table says.
func TestAtIndexWordEdges(t *testing.T) {
	lens := []uint8{15, 15, 15, 15, 3, 1, 15, 15, 15, 15, 2, 1, 1, 4}
	p := &Program{Base: 0x1000, Limit: 0x1000}
	for i, n := range lens {
		in := isa.Inst{ID: uint32(i), Len: n}
		in.SetAddr(p.Limit)
		p.Insts = append(p.Insts, in)
		p.Limit += uint64(n)
	}
	p.index()
	starts := map[uint64]bool{}
	for i := range p.Insts {
		starts[p.Insts[i].Addr()-p.Base] = true
	}
	for _, off := range []uint64{0, 63, 64, 127, 128} {
		if !starts[off] {
			t.Fatalf("no instruction starts at offset %d", off)
		}
	}
	for addr := p.Base - 1; addr < p.Limit+130; addr++ {
		got := p.At(addr)
		if got == nil {
			if starts[addr-p.Base] {
				t.Errorf("At(%#x) = nil, want the instruction starting there", addr)
			}
			continue
		}
		if got.Addr() != addr {
			t.Errorf("At(%#x) = instruction %d at %#x", addr, got.ID, got.Addr())
		}
	}
	if p.At(0) != nil || p.At(math.MaxUint64) != nil {
		t.Error("addresses outside the region should not resolve")
	}
}

// TestBlockSize pins the block at three int32s: ID and fallthrough are
// implied by its index.
func TestBlockSize(t *testing.T) {
	if got := unsafe.Sizeof(Block{}); got != 12 {
		t.Errorf("sizeof(Block) = %d, want 12", got)
	}
}

func TestNextWalksSequentially(t *testing.T) {
	p := buildSimple(t)
	in := p.At(p.Entry)
	count := 1
	for {
		next := p.Next(in)
		if next == nil {
			break
		}
		if next.Addr() != in.End() {
			t.Fatalf("Next returned non-adjacent inst")
		}
		in = next
		count++
	}
	if count != p.NumInsts() {
		t.Errorf("walked %d of %d insts", count, p.NumInsts())
	}
}

func TestBranchTargetsPatched(t *testing.T) {
	p := buildSimple(t)
	// Block 0 ends in a conditional branch to block 2's first inst.
	blk0 := &p.Blocks[0]
	br := &p.Insts[blk0.First+blk0.N-1]
	if !br.IsBranch() || br.Branch != isa.BranchCond {
		t.Fatal("block 0 should end in a conditional branch")
	}
	blk2 := &p.Blocks[2]
	want := p.Insts[blk2.First].Addr()
	if br.Target() != want {
		t.Errorf("target = %#x, want %#x", br.Target(), want)
	}
}

func TestBlockOf(t *testing.T) {
	p := buildSimple(t)
	for bi := range p.Blocks {
		blk := &p.Blocks[bi]
		for j := blk.First; j < blk.First+blk.N; j++ {
			if got := p.BlockOf(uint32(j)); got != blk {
				t.Fatalf("BlockOf(%d) = %v, want block %d", j, got, bi)
			}
		}
	}
}

func TestFinishErrors(t *testing.T) {
	b := NewBuilder(0, isa.DefaultMix(), rng.New(1))
	if _, err := b.Finish(0); err == nil {
		t.Error("empty program should fail")
	}

	b2 := NewBuilder(0, isa.DefaultMix(), rng.New(1))
	b2.AddBlock(1)
	if _, err := b2.Finish(5); err == nil {
		t.Error("invalid entry block should fail")
	}

	// Direct branch without a target must fail at Finish.
	b3 := NewBuilder(0, isa.DefaultMix(), rng.New(1))
	b3.AddBranchBlock(1, isa.BranchJump, -1)
	if _, err := b3.Finish(0); err == nil {
		t.Error("unpatched direct branch should fail")
	}
}

// TestFinishCodeSpace checks the 32-bit code space guard: code that would
// reach past isa.CodeLimit fails with an error, and code ending exactly at
// it builds.
func TestFinishCodeSpace(t *testing.T) {
	build := func(base uint64) (*Program, error) {
		b := NewBuilder(base, isa.DefaultMix(), rng.New(1))
		b0 := b.AddBlock(40)
		b.AddBranchBlock(2, isa.BranchJump, b0)
		return b.Finish(b0)
	}
	p, err := build(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	size := p.CodeBytes()
	for _, base := range []uint64{isa.CodeLimit - size + 1, isa.CodeLimit - 16, isa.CodeLimit, math.MaxUint64 - 8} {
		if p, err := build(base); err == nil {
			t.Errorf("build at %#x = [%#x, %#x), want an error", base, p.Base, p.Limit)
		}
	}
	p, err = build(isa.CodeLimit - size)
	if err != nil {
		t.Fatalf("build ending at CodeLimit: %v", err)
	}
	if p.Limit != isa.CodeLimit || p.Insts[len(p.Insts)-1].Target() != p.Base {
		t.Errorf("build ending at CodeLimit: limit %#x, back-jump target %#x", p.Limit, p.Insts[len(p.Insts)-1].Target())
	}
}

func TestSetTargetValidation(t *testing.T) {
	b := NewBuilder(0, isa.DefaultMix(), rng.New(1))
	blk := b.AddBlock(1) // no branch
	b.SetTarget(blk, 0)
	if _, err := b.Finish(0); err == nil {
		t.Error("SetTarget on branchless block should surface an error")
	}
}

func TestInteriorBranchesRejected(t *testing.T) {
	// Validate() must reject a block with a branch before its last inst.
	b := NewBuilder(0, isa.DefaultMix(), rng.New(1))
	b.AddBranchBlock(2, isa.BranchRet, -1)
	p, err := b.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: make an interior instruction a branch.
	p.Insts[0].Class = isa.ClassBranch
	p.Insts[0].Branch = isa.BranchJump
	if err := p.Validate(); err == nil {
		t.Error("interior branch should fail validation")
	}
}

// TestRandomProgramsValidate synthesizes many random small CFGs and checks
// the builder's output always validates.
func TestRandomProgramsValidate(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		b := NewBuilder(0x4000, isa.DefaultMix(), r.Derive(1))
		sr := r.Derive(2)
		n := sr.Range(2, 20)
		var condBlocks []int
		for i := 0; i < n; i++ {
			switch sr.Intn(3) {
			case 0:
				b.AddBlock(sr.Range(1, 6))
			case 1:
				condBlocks = append(condBlocks, b.AddBranchBlock(sr.Range(1, 6), isa.BranchCond, 0))
			default:
				b.AddBranchBlock(sr.Range(0, 4), isa.BranchRet, -1)
			}
		}
		total := b.NumBlocks()
		for _, cb := range condBlocks {
			b.SetTarget(cb, sr.Intn(total))
		}
		p, err := b.Finish(0)
		if err != nil {
			return false
		}
		return p.Validate() == nil
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRegisterDiscipline(t *testing.T) {
	// Destinations of block bodies should stay in the local register
	// partition except for the occasional global write, and conditional
	// blocks end with the counter idiom.
	b := NewBuilder(0, isa.DefaultMix(), rng.New(3))
	b.AddBranchBlock(6, isa.BranchCond, 0)
	b.SetTarget(0, 0)
	p, err := b.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	blk := &p.Blocks[0]
	last := &p.Insts[blk.First+blk.N-2] // last body inst (before branch)
	if last.Class != isa.ClassALU || last.Dest != last.Src1 || last.Dest >= numGlobalRegs {
		t.Errorf("counter idiom missing: %+v", last)
	}
}
