package workload

import (
	"uopsim/internal/isa"
	"uopsim/internal/program"
	"uopsim/internal/reuse"
	"uopsim/internal/rng"
)

// Rec is one committed-path dynamic instruction. The static instruction is
// referenced by ID into the program's instruction table.
type Rec struct {
	// InstID indexes program.Program.Insts.
	InstID uint32
	// Taken reports the architectural outcome for branches (always true for
	// unconditional transfers, false for non-branches).
	Taken bool
	// Next is the address of the next instruction on the architectural path
	// (branch target when taken, fallthrough otherwise).
	Next uint64
	// MemAddr is the effective address for loads/stores, 0 otherwise.
	MemAddr uint64
}

// Walker executes a Workload architecturally, producing the oracle dynamic
// instruction stream: an unbounded sequence of Recs, deterministic for a
// given workload seed. A simulator's core owns one walker and follows it
// as the architectural path its front end must fetch.
//
// All walker state is dense, indexed by behaviour slot (Behaviors): the
// walker runs once per fetched instruction, so it does no map lookups, and
// a new walker allocates only for the instructions that carry behaviour. A
// Reset walker clears and reuses those arrays whenever they are large
// enough, whichever workload it moves to, so a walker holds the largest
// array of each kind it has served: at most 312 KiB over the 13 profiles
// (bm_cc's conditional and memory slots, nutch's indirect ones).
type Walker struct {
	prog *program.Program
	beh  *Behaviors
	rnd  rng.Source

	cur   uint32   // current static instruction ID
	stack []uint32 // call stack of resume instruction IDs

	// condPos is per Cond slot: a loop back-edge's remaining trips (0 = not
	// live) or a pattern branch's position. A branch has one kind, so the
	// two never share a slot.
	condPos  []uint32
	indRun   []indirectRun // per Indirect slot: the current target run
	memPos   []uint64      // per Mem slot: the stream offset
	executed uint64
}

type indirectRun struct {
	remaining int32
	target    uint64
}

// NewWalker positions a walker at the workload's dispatcher.
func NewWalker(w *Workload) *Walker {
	wk := &Walker{}
	wk.Reset(w)
	return wk
}

// Reset makes wk the walker NewWalker(w) builds, reusing its call stack and
// each per-slot array whose capacity covers w's behaviour slots of that
// kind; a smaller workload leaves the arrays' spare capacity in place.
func (wk *Walker) Reset(w *Workload) {
	beh := w.Behaviors
	*wk = Walker{
		prog:    w.Program,
		beh:     beh,
		rnd:     *rng.New(w.Profile.Seed).Derive(5),
		cur:     uint32(w.Program.Blocks[beh.DispatchBlock].First),
		stack:   wk.stack[:0],
		condPos: reuse.Cap(wk.condPos, len(beh.Cond)),
		indRun:  reuse.Cap(wk.indRun, len(beh.Indirect)),
		memPos:  reuse.Cap(wk.memPos, len(beh.Mem)),
	}
}

// Executed returns the number of instructions produced so far.
func (w *Walker) Executed() uint64 { return w.executed }

// Depth returns the current call-stack depth (diagnostics/tests).
func (w *Walker) Depth() int { return len(w.stack) }

// Next executes one instruction and returns its record. The stream never
// ends.
func (w *Walker) Next() Rec {
	in := w.prog.Inst(w.cur)
	rec := Rec{InstID: w.cur}
	w.executed++

	switch {
	case in.IsBranch():
		w.stepBranch(in, &rec)
	default:
		rec.Next = in.End()
		switch in.Class {
		case isa.ClassLoad, isa.ClassStore, isa.ClassLoadOp:
			rec.MemAddr = w.memAddr(in)
		}
	}

	next := w.prog.At(rec.Next)
	if next == nil {
		// Fell off the end of the code region (cannot happen with the
		// synthesizer's layout): restart at the entry.
		rec.Next = w.prog.Entry
		next = w.prog.At(rec.Next)
	}
	w.cur = next.ID
	return rec
}

func (w *Walker) stepBranch(in *isa.Inst, rec *Rec) {
	fall := in.End()
	switch in.Branch {
	case isa.BranchCond:
		taken := w.condOutcome(in)
		rec.Taken = taken
		if taken {
			rec.Next = in.Target()
		} else {
			rec.Next = fall
		}
	case isa.BranchJump:
		rec.Taken = true
		rec.Next = in.Target()
	case isa.BranchCall:
		rec.Taken = true
		rec.Next = in.Target()
		w.push(in.ID + 1)
	case isa.BranchIndirectCall:
		rec.Taken = true
		rec.Next = w.indirectTarget(in)
		w.push(in.ID + 1)
	case isa.BranchIndirect:
		rec.Taken = true
		rec.Next = w.indirectTarget(in)
	case isa.BranchRet:
		rec.Taken = true
		if len(w.stack) > 0 {
			resume := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			rec.Next = w.prog.Inst(resume).Addr()
		} else {
			rec.Next = w.prog.Entry
		}
	default:
		rec.Taken = true
		rec.Next = fall
	}
}

func (w *Walker) push(resumeID uint32) {
	if int(resumeID) >= w.prog.NumInsts() {
		resumeID = w.prog.Inst(0).ID
	}
	w.stack = append(w.stack, resumeID)
}

func (w *Walker) condOutcome(in *isa.Inst) bool {
	s := w.beh.slot[in.ID]
	if s == 0 {
		return false // unannotated conditional: fall through
	}
	cb, pos := &w.beh.Cond[s-1], &w.condPos[s-1]
	switch cb.Kind {
	case BehChaotic, BehBiased:
		return w.rnd.Bool(cb.P)
	case BehPattern:
		p := *pos
		*pos = p + 1
		return cb.Pattern>>(p%uint32(cb.PatLen))&1 == 1
	case BehLoop:
		remaining := int(*pos)
		if remaining == 0 { // not live: entering the loop
			remaining = w.sampleTrips(cb)
		}
		remaining--
		if remaining > 0 {
			*pos = uint32(remaining)
			return true // loop back
		}
		*pos = 0
		return false // exit
	default:
		return false
	}
}

func (w *Walker) sampleTrips(cb *CondBehavior) int {
	if cb.FixedTrip > 0 {
		return int(cb.FixedTrip)
	}
	return w.rnd.Geometric(cb.TripMean, int(8*cb.TripMean)+1)
}

func (w *Walker) indirectTarget(in *isa.Inst) uint64 {
	s := w.beh.slot[in.ID]
	if s == 0 {
		return w.prog.Entry
	}
	ib, run := &w.beh.Indirect[s-1], &w.indRun[s-1]
	if len(ib.TargetBlocks) == 0 {
		return w.prog.Entry
	}
	if run.remaining > 0 {
		run.remaining--
		return run.target
	}
	idx := w.rnd.Choose(ib.Weights)
	blk := &w.prog.Blocks[ib.TargetBlocks[idx]]
	run.target = w.prog.Inst(uint32(blk.First)).Addr()
	if ib.RunLen > 1 {
		run.remaining = int32(w.rnd.Geometric(ib.RunLen, int(4*ib.RunLen)+1) - 1)
	}
	return run.target
}

func (w *Walker) memAddr(in *isa.Inst) uint64 {
	s := w.beh.slot[in.ID]
	if s == 0 {
		return 0
	}
	mb := w.beh.Mem[s-1]
	reg := &w.beh.Regions[mb.Region]
	if mb.Stride == 0 {
		return reg.Base + w.rnd.Uint64()%reg.Size
	}
	off := w.memPos[s-1]
	w.memPos[s-1] = off + uint64(mb.Stride)
	return reg.Base + off%reg.Size
}
