package program

import (
	"fmt"
	"slices"

	"uopsim/internal/isa"
	"uopsim/internal/rng"
)

// Builder assembles a Program in two phases: blocks are declared with
// instruction templates first (so forward branch edges can reference blocks
// that do not exist yet), then Finish assigns addresses and patches branch
// targets. Blocks are declared in layout order, so every block's
// instructions go straight into one flat slice that becomes Program.Insts.
type Builder struct {
	base    uint64
	mix     isa.Mix
	rnd     *rng.Source
	insts   []isa.Inst // every block's instructions; addresses unassigned until Finish
	blocks  []builderBlock
	written []uint8 // assignRegs scratch
	err     error
}

type builderBlock struct {
	first, n    int // the block's run of Builder.insts
	term        isa.BranchKind
	targetBlock int // block index for direct branches; -1 otherwise
}

// NewBuilder creates a Builder laying code out from base with the given
// instruction mix and random source.
func NewBuilder(base uint64, mix isa.Mix, rnd *rng.Source) *Builder {
	return &Builder{base: base, mix: mix, rnd: rnd, blocks: nil}
}

// NumBlocks returns the number of blocks declared so far.
func (b *Builder) NumBlocks() int { return len(b.blocks) }

// AddBlock declares a basic block with bodyInsts non-branch instructions and
// no terminating branch (pure fallthrough). It returns the block index.
func (b *Builder) AddBlock(bodyInsts int) int {
	return b.addBlock(bodyInsts, isa.BranchNone, -1)
}

// AddBranchBlock declares a basic block with bodyInsts non-branch
// instructions terminated by a branch of the given kind. For direct branches
// (cond/jump/call), target is the index of the target block; indirect kinds
// ignore it. It returns the block index.
func (b *Builder) AddBranchBlock(bodyInsts int, kind isa.BranchKind, target int) int {
	return b.addBlock(bodyInsts, kind, target)
}

func (b *Builder) addBlock(bodyInsts int, kind isa.BranchKind, target int) int {
	if bodyInsts < 0 {
		b.fail(fmt.Errorf("builder: negative body size %d", bodyInsts))
		bodyInsts = 0
	}
	if bodyInsts == 0 && kind == isa.BranchNone {
		bodyInsts = 1 // a block must contain at least one instruction
	}
	first := len(b.insts)
	for i := 0; i < bodyInsts; i++ {
		b.insts = append(b.insts, b.mix.NewInst(b.rnd, 0))
	}
	b.assignRegs(b.insts[first:], kind == isa.BranchCond)
	if kind != isa.BranchNone {
		b.insts = append(b.insts, b.newBranch(kind))
	}
	b.blocks = append(b.blocks, builderBlock{first: first, n: len(b.insts) - first, term: kind, targetBlock: target})
	return len(b.blocks) - 1
}

// Register partitioning: regs 0..3 are long-lived globals (pointers, loop
// counters); 4..15 are block-local temporaries.
const (
	numGlobalRegs = 4
	firstLocalReg = numGlobalRegs
)

// assignRegs rewrites the operand registers of a block with a compiler-like
// discipline: destinations rotate through the local registers, sources read
// values produced earlier in the same block (short chains) or occasionally a
// global register. This is what gives real code its ILP — purely random
// operands build unboundedly deep dependence chains across loop iterations,
// which collapses UPC and inflates branch resolution latency beyond anything
// hardware exhibits.
//
// For blocks ending in a conditional branch, the final body instruction is
// rewritten into a counter-update idiom (ALU on a global register) so the
// loop-carried dependence feeding the flags is one cycle per iteration, as
// with real induction variables.
func (b *Builder) assignRegs(insts []isa.Inst, endsCond bool) {
	rot := b.rnd.Intn(isa.NumRegs - firstLocalReg)
	written := b.written[:0]
	pickSrc := func() uint8 {
		switch {
		case b.rnd.Bool(0.08):
			return uint8(b.rnd.Intn(numGlobalRegs))
		case len(written) > 0 && b.rnd.Bool(0.72):
			// Recent-value bias: read one of the last few produced values.
			k := len(written)
			lo := k - 4
			if lo < 0 {
				lo = 0
			}
			return written[b.rnd.Range(lo, k-1)]
		default:
			return isa.RegNone // immediate/constant operand
		}
	}
	for i := range insts {
		in := &insts[i]
		if in.Dest != isa.RegNone {
			if b.rnd.Bool(0.05) {
				in.Dest = uint8(b.rnd.Intn(numGlobalRegs))
			} else {
				in.Dest = firstLocalReg + uint8(rot%(isa.NumRegs-firstLocalReg))
				rot++
			}
		}
		if in.Src1 != isa.RegNone {
			in.Src1 = pickSrc()
		}
		if in.Src2 != isa.RegNone {
			in.Src2 = pickSrc()
		}
		if in.Dest != isa.RegNone {
			written = append(written, in.Dest)
		}
	}
	b.written = written
	if endsCond && len(insts) > 0 {
		// Counter-update idiom (dec/cmp) producing the branch's flags.
		last := &insts[len(insts)-1]
		if last.Class != isa.ClassMicrocoded {
			g := uint8(b.rnd.Intn(numGlobalRegs))
			last.Class = isa.ClassALU
			last.NumUops = 1
			last.Dest, last.Src1, last.Src2 = g, g, isa.RegNone
		}
	}
}

// SetTarget redirects the terminating direct branch of block to target. It is
// used to close loops discovered after block creation.
func (b *Builder) SetTarget(block, target int) {
	if block < 0 || block >= len(b.blocks) {
		b.fail(fmt.Errorf("builder: SetTarget on invalid block %d", block))
		return
	}
	bb := &b.blocks[block]
	if bb.term == isa.BranchNone || bb.term.IsIndirect() {
		b.fail(fmt.Errorf("builder: SetTarget on block %d without direct branch", block))
		return
	}
	bb.targetBlock = target
}

func (b *Builder) newBranch(kind isa.BranchKind) isa.Inst {
	in := isa.Inst{
		Class:   isa.ClassBranch,
		Branch:  kind,
		NumUops: 1,
	}
	_, in.Src1, _ = b.mix.SampleRegs(b.rnd, isa.ClassBranch)
	switch kind {
	case isa.BranchCond:
		in.Len = uint8(b.rnd.Range(2, 6)) // Jcc rel8/rel32
	case isa.BranchJump:
		in.Len = uint8(b.rnd.Range(2, 5))
	case isa.BranchCall:
		in.Len = 5 // call rel32: one fastpath op on modern x86 cores
	case isa.BranchRet:
		in.Len = 1
	case isa.BranchIndirect:
		in.Len = uint8(b.rnd.Range(2, 3))
	case isa.BranchIndirectCall:
		in.Len = uint8(b.rnd.Range(2, 3))
	}
	return in
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Finish assigns instruction IDs and addresses contiguously from the base
// address, patches direct-branch targets to the first instruction of their
// target blocks, and validates the result. It fails when the code would
// reach past isa.CodeLimit.
func (b *Builder) Finish(entryBlock int) (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.blocks) == 0 {
		return nil, fmt.Errorf("builder: no blocks")
	}
	if entryBlock < 0 || entryBlock >= len(b.blocks) {
		return nil, fmt.Errorf("builder: invalid entry block %d", entryBlock)
	}

	var size uint64
	for i := range b.insts {
		size += uint64(b.insts[i].Len)
	}
	if b.base > isa.CodeLimit || size > isa.CodeLimit-b.base {
		return nil, fmt.Errorf("builder: %d code bytes at %#x cross the 32-bit code space (isa.CodeLimit)", size, b.base)
	}
	addr := b.base
	for i := range b.insts {
		in := &b.insts[i]
		in.SetAddr(addr)
		in.ID = uint32(i)
		addr += uint64(in.Len)
	}
	// The image outlives the builder, so its slices are exact-size.
	p := &Program{Insts: slices.Clone(b.insts), Blocks: make([]Block, len(b.blocks)), Base: b.base, Limit: addr}
	p.index()
	for bi, bb := range b.blocks {
		p.Blocks[bi] = Block{First: int32(bb.first), N: int32(bb.n), TargetBlock: int32(bb.targetBlock)}
		last := &p.Insts[bb.first+bb.n-1]
		if !last.IsBranch() || last.Branch.IsIndirect() {
			continue
		}
		tb := bb.targetBlock
		if tb < 0 || tb >= len(b.blocks) {
			return nil, fmt.Errorf("builder: block %d direct branch with invalid target block %d", bi, tb)
		}
		last.SetTarget(p.Insts[b.blocks[tb].first].Addr())
	}

	p.Entry = p.Insts[b.blocks[entryBlock].first].Addr()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
