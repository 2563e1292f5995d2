// Package program models a static program as a control-flow graph of basic
// blocks laid out in a flat code address space, exactly the view a processor
// front-end has of a binary: contiguous variable-length instructions with
// branch edges between them.
//
// Programs are built with a Builder (used by internal/workload's synthesizer)
// and are immutable afterwards. Dynamic behaviour — branch outcomes, memory
// address streams — is attached externally by the workload walker; the
// program holds only what a binary holds.
package program

import (
	"fmt"
	"math/bits"
	"sort"

	"uopsim/internal/isa"
)

// Block is a basic block: a straight-line run of instructions with at most
// one terminating branch (always the last instruction when present). A
// block's ID is its index in Program.Blocks; its fallthrough successor is
// the next index (none for the last block).
type Block struct {
	// First is the index into Program.Insts of the block's first instruction.
	First int32
	// N is the number of instructions in the block.
	N int32
	// TargetBlock is the ID of the taken-target block for direct branches,
	// or -1.
	TargetBlock int32
}

// Program is an immutable synthesized binary. On the Table II profiles it
// holds about 25 bytes per instruction: a 20-byte isa.Inst, 4.5 bytes of
// Blocks and 0.7 bytes of address index. Its code lies below
// isa.CodeLimit.
type Program struct {
	// Insts holds every static instruction in address order; ID indexes it.
	Insts []isa.Inst
	// Blocks holds every basic block in layout order.
	Blocks []Block
	// Entry is the address of the first instruction executed.
	Entry uint64
	// Base and Limit bound the code region: Base <= addr < Limit.
	Base, Limit uint64

	// bounds has bit i set when an instruction starts at Base+i, and
	// rank[w] is the ID of the first instruction starting in word w. IDs
	// follow address order, so At — the hottest lookup in the simulator —
	// finds an ID with a bounds check, a bit test and a popcount.
	bounds []uint64
	rank   []uint32
}

// At returns the instruction starting at addr, or nil when addr is not an
// instruction boundary (e.g. a wrong-path fetch into the middle of an
// encoding or outside the code region).
func (p *Program) At(addr uint64) *isa.Inst {
	off := addr - p.Base // addr < Base wraps far past the index
	if off/64 >= uint64(len(p.bounds)) {
		return nil
	}
	word, bit := p.bounds[off/64], uint64(1)<<(off%64)
	if word&bit == 0 {
		return nil
	}
	return &p.Insts[p.rank[off/64]+uint32(bits.OnesCount64(word&(bit-1)))]
}

// index builds the address index over Insts (see At). At never reads the
// rank of a word no instruction starts in.
func (p *Program) index() {
	n := (p.Limit - p.Base + 63) / 64
	p.bounds, p.rank = make([]uint64, n), make([]uint32, n)
	for i := range p.Insts {
		off := p.Insts[i].Addr() - p.Base
		if p.bounds[off/64] == 0 {
			p.rank[off/64] = uint32(i)
		}
		p.bounds[off/64] |= 1 << (off % 64)
	}
}

// Inst returns the instruction with the given static ID.
func (p *Program) Inst(id uint32) *isa.Inst { return &p.Insts[id] }

// BlockOf returns the block containing instruction id.
func (p *Program) BlockOf(id uint32) *Block {
	i := sort.Search(len(p.Blocks), func(i int) bool {
		b := &p.Blocks[i]
		return uint32(b.First+b.N) > id
	})
	if i == len(p.Blocks) {
		return nil
	}
	return &p.Blocks[i]
}

// Next returns the instruction immediately following in (by address), or nil
// at the end of the code region.
func (p *Program) Next(in *isa.Inst) *isa.Inst {
	return p.At(in.End())
}

// NumInsts returns the static instruction count.
func (p *Program) NumInsts() int { return len(p.Insts) }

// CodeBytes returns the total size of the code region in bytes.
func (p *Program) CodeBytes() uint64 { return p.Limit - p.Base }

// Validate checks structural invariants; it is used by tests and the
// synthesizer self-check. It returns the first violation found.
func (p *Program) Validate() error {
	if len(p.Insts) == 0 {
		return fmt.Errorf("program: no instructions")
	}
	if p.At(p.Entry) == nil {
		return fmt.Errorf("program: entry %#x is not an instruction boundary", p.Entry)
	}
	prevEnd := p.Base
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.ID != uint32(i) {
			return fmt.Errorf("program: inst %d has ID %d", i, in.ID)
		}
		if in.Addr() != prevEnd {
			return fmt.Errorf("program: inst %d at %#x not contiguous with previous end %#x", i, in.Addr(), prevEnd)
		}
		if in.Len == 0 || in.Len > isa.MaxInstLen {
			return fmt.Errorf("program: inst %d has invalid length %d", i, in.Len)
		}
		if in.IsBranch() && !in.Branch.IsIndirect() {
			// Direct branches must land on an instruction boundary.
			if p.At(in.Target()) == nil {
				return fmt.Errorf("program: inst %d branch target %#x not a boundary", i, in.Target())
			}
		}
		prevEnd = in.End()
	}
	if prevEnd != p.Limit {
		return fmt.Errorf("program: limit %#x does not match last inst end %#x", p.Limit, prevEnd)
	}
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		if b.N <= 0 {
			return fmt.Errorf("program: block %d empty", bi)
		}
		for j := b.First; j < b.First+b.N-1; j++ {
			if p.Insts[j].IsBranch() {
				return fmt.Errorf("program: block %d has interior branch at inst %d", bi, j)
			}
		}
	}
	return nil
}
