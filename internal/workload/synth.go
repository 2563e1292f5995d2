package workload

import (
	"fmt"
	"math"

	"uopsim/internal/isa"
	"uopsim/internal/program"
	"uopsim/internal/rng"
)

// GenVersion names the workload-synthesis algorithm generation. It is part
// of every design-point fingerprint (internal/runcache): bump it whenever a
// change to this package alters the program or behaviour stream a profile
// synthesizes — the seeds in Profiles() then address new content and every
// persisted run-cache blob silently expires.
const GenVersion = "wlgen-1"

// BehaviorKind classifies the dynamic outcome model of a conditional branch.
type BehaviorKind uint8

const (
	// BehBiased branches are taken with a fixed probability near 0 or 1.
	BehBiased BehaviorKind = iota
	// BehChaotic branches have i.i.d. data-dependent outcomes (the MPKI
	// driver: no predictor can learn them).
	BehChaotic
	// BehPattern branches repeat a short periodic taken/not-taken pattern.
	BehPattern
	// BehLoop branches are loop back-edges: taken trip-1 times, then not
	// taken once.
	BehLoop
)

// CondBehavior is the outcome model of one static conditional branch.
// Fields run widest first, so it packs into 32 bytes.
type CondBehavior struct {
	// P is the taken probability for BehBiased/BehChaotic.
	P float64
	// Pattern/PatLen encode a periodic outcome sequence (bit i = taken).
	Pattern uint64
	// TripMean is the mean trip count for BehLoop; FixedTrip > 0 makes the
	// count deterministic (predictable exit).
	TripMean  float64
	FixedTrip int32
	Kind      BehaviorKind
	PatLen    uint8
}

// IndirectBehavior is the target model of one static indirect branch/call.
type IndirectBehavior struct {
	// TargetBlocks are candidate target blocks (function entries).
	TargetBlocks []int
	// Weights are the selection weights (Zipf for the dispatcher).
	Weights []float64
	// RunLen is the mean number of consecutive selections of the same
	// target before re-drawing (phase locality); <= 1 means redraw always.
	RunLen float64
}

// MemBehavior is the address-stream model of one static memory instruction.
type MemBehavior struct {
	// Region indexes Behaviors.Regions: the data region the instruction
	// references.
	Region uint8
	// Stride advances the access pointer each execution; 0 means random
	// within the region.
	Stride uint8
}

// MemRegion is one data region memory instructions reference.
type MemRegion struct {
	Base, Size uint64
}

// The data regions, indexing Behaviors.Regions.
const (
	regionHot uint8 = iota
	regionWarm
	regionCold
	numRegions
)

// maxSlots is the most behaviours one Behaviors table may hold: slot 0
// means none, so a uint16 slot indexes 65,535.
const maxSlots = math.MaxUint16

// Behaviors attaches dynamic semantics to a synthesized program. Each
// static instruction has one slot: 0 when it carries no behaviour, else 1 +
// its index into the table of its kind. One slot suffices because the
// instruction's class fixes the kind: conditional branches index Cond,
// indirect branches and calls index Indirect, loads and stores index Mem.
// Tables are in block and instruction-ID order. A slot is a uint16, so a
// table holds at most maxSlots behaviours; the largest in Table II is
// bm_cc's 34,368 memory behaviours, and BuildAt refuses a profile that
// would need more.
type Behaviors struct {
	slot     []uint16
	Cond     []CondBehavior
	Indirect []IndirectBehavior
	Mem      []MemBehavior
	// Regions holds the hot, warm and cold data regions MemBehavior.Region
	// indexes, each at least 4 KiB.
	Regions [numRegions]MemRegion
	// DispatchBlock is the block ID of the dispatcher loop head (walker
	// restart point).
	DispatchBlock int
	// FuncEntries maps function index -> entry block ID.
	FuncEntries []int
}

// Workload bundles a synthesized program with its behaviours and profile.
// A built workload is immutable and safe to share across concurrent
// simulations (all run state lives in Walkers).
type Workload struct {
	Profile   *Profile
	Program   *program.Program
	Behaviors *Behaviors
}

// CondOf returns the outcome model of conditional branch id, or nil when id
// is not an annotated conditional branch.
func (w *Workload) CondOf(id uint32) *CondBehavior {
	s := w.Behaviors.slot[id]
	if s == 0 || w.Program.Inst(id).Branch != isa.BranchCond {
		return nil
	}
	return &w.Behaviors.Cond[s-1]
}

// utilityFuncs returns the number of trailing "utility" functions: shared
// leaf routines (hashing, copying, allocation) that every driver function
// calls but that make no calls themselves. A two-level call graph keeps the
// dynamic tree size bounded and stable — deep random DAGs concentrate
// execution unpredictably in their upper layers.
func utilityFuncs(numFuncs int) int {
	u := numFuncs / 8
	if u < 8 {
		u = 8
	}
	if u >= numFuncs {
		u = numFuncs - 1
	}
	return u
}

const (
	// CodeBase is where synthesized code is laid out. Code must end at or
	// below isa.CodeLimit (4 GiB), since instructions hold 32-bit
	// addresses: the largest profile ends at 0x46142f from here, and the
	// second SMT thread's base (smt.ThreadBBase) is only 256 MiB higher.
	CodeBase uint64 = 0x00400000
	// Data-region bases (see dataRegions), disjoint from the code.
	hotBase  uint64 = 0x10000000
	warmBase uint64 = 0x20000000
	coldBase uint64 = 0x40000000
)

// Build synthesizes the program and behaviours for a profile at the default
// code base.
func Build(p *Profile) (*Workload, error) { return BuildAt(p, CodeBase) }

// BuildAt synthesizes the program at an explicit code base. Distinct bases
// let several workloads share one address space without aliasing — the SMT
// configuration runs two threads whose code regions must not collide in the
// shared uop cache.
func BuildAt(p *Profile, base uint64) (*Workload, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	r := rng.New(p.Seed)
	b := program.NewBuilder(base, p.Mix, r.Derive(1))
	structR := r.Derive(2)
	behR := r.Derive(3)

	beh := &Behaviors{}

	// Branch behaviours are collected per block (instruction IDs do not
	// exist until Finish) and converted afterwards.
	condByBlock := make(map[int]CondBehavior)
	indByBlock := make(map[int]IndirectBehavior)
	type callPatch struct {
		block  int
		callee int
	}
	var callPatches []callPatch
	type indPatch struct {
		block   int
		callees []int
		weights []float64
		runLen  float64
	}
	var indPatches []indPatch

	// Dispatcher: D0 ends in an indirect call to a Zipf-selected function;
	// D1 jumps back to D0. Function returns resume at D1.
	d0 := b.AddBranchBlock(structR.Range(2, 4), isa.BranchIndirectCall, -1)
	b.AddBranchBlock(structR.Range(1, 2), isa.BranchJump, d0) // D1: resume point, loops back
	beh.DispatchBlock = d0

	// Functions. Calls may only target higher-indexed functions (call DAG),
	// which guarantees walker termination without recursion bookkeeping.
	funcEntries := make([]int, p.NumFuncs)
	for f := 0; f < p.NumFuncs; f++ {
		entry, err := buildFunc(p, b, structR, behR, f, condByBlock, indByBlock,
			func(block, callee int) { callPatches = append(callPatches, callPatch{block, callee}) },
			func(block int, callees []int, w []float64, run float64) {
				indPatches = append(indPatches, indPatch{block, callees, w, run})
			})
		if err != nil {
			return nil, err
		}
		funcEntries[f] = entry
	}
	beh.FuncEntries = funcEntries

	// Patch direct call targets now that all function entry blocks exist.
	for _, cp := range callPatches {
		b.SetTarget(cp.block, funcEntries[cp.callee])
	}

	// Dispatcher indirect-call behaviour: all functions, Zipf popularity
	// over a random rank permutation.
	perm := structR.Perm(p.NumFuncs)
	dispatchTargets := make([]int, p.NumFuncs)
	copy(dispatchTargets, funcEntries)
	indByBlock[d0] = IndirectBehavior{
		TargetBlocks: dispatchTargets,
		Weights:      zipfWeights(p.NumFuncs, p.ZipfS, perm),
		RunLen:       p.FuncRunLen,
	}
	for _, ip := range indPatches {
		targets := make([]int, len(ip.callees))
		for i, c := range ip.callees {
			targets[i] = funcEntries[c]
		}
		indByBlock[ip.block] = IndirectBehavior{TargetBlocks: targets, Weights: ip.weights, RunLen: ip.runLen}
	}

	prog, err := b.Finish(d0)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", p.Name, err)
	}

	// Memory behaviours: one per static memory instruction in ID order,
	// drawn from a derived stream so they are independent of structure
	// generation.
	beh.slot = make([]uint16, prog.NumInsts())
	nMem := 0
	for i := range prog.Insts {
		switch prog.Insts[i].Class {
		case isa.ClassLoad, isa.ClassStore, isa.ClassLoadOp:
			nMem++
			beh.slot[i] = uint16(nMem)
		}
	}
	if n := max(nMem, len(condByBlock), len(indByBlock)); n > maxSlots {
		return nil, fmt.Errorf("workload %s: %d behaviours of one kind, more than the %d a slot indexes", p.Name, n, maxSlots)
	}
	beh.Regions = dataRegions(p)
	memR := r.Derive(4)
	beh.Mem = make([]MemBehavior, nMem)
	for i := range beh.Mem {
		beh.Mem[i] = newMemBehavior(p, memR)
	}

	// Branch behaviours move to the tables in block order (the branch is
	// always the last instruction of its block).
	beh.Cond = make([]CondBehavior, 0, len(condByBlock))
	beh.Indirect = make([]IndirectBehavior, 0, len(indByBlock))
	for blockID := range prog.Blocks {
		blk := &prog.Blocks[blockID]
		last := blk.First + blk.N - 1
		if cb, ok := condByBlock[blockID]; ok {
			beh.Cond = append(beh.Cond, cb)
			beh.slot[last] = uint16(len(beh.Cond))
		} else if ib, ok := indByBlock[blockID]; ok {
			beh.Indirect = append(beh.Indirect, ib)
			beh.slot[last] = uint16(len(beh.Indirect))
		}
	}
	return &Workload{Profile: p, Program: prog, Behaviors: beh}, nil
}

// dataRegions lays out the profile's hot, warm and cold data regions; an
// unsized region gets 4 KiB.
func dataRegions(p *Profile) [numRegions]MemRegion {
	regions := [numRegions]MemRegion{
		regionHot:  {hotBase, p.HotBytes},
		regionWarm: {warmBase, p.WarmBytes},
		regionCold: {coldBase, p.ColdBytes},
	}
	for i := range regions {
		if regions[i].Size == 0 {
			regions[i].Size = 1 << 12
		}
	}
	return regions
}

func newMemBehavior(p *Profile, r *rng.Source) MemBehavior {
	var mb MemBehavior
	x := r.Float64()
	switch {
	case x < p.ColdFrac:
		mb.Region = regionCold
	case x < p.ColdFrac+p.WarmFrac:
		mb.Region = regionWarm
	default:
		mb.Region = regionHot
	}
	// Most instructions stride (array walks, stack frames); the rest roam
	// randomly (pointer chasing, hashing).
	if r.Bool(0.7) {
		strides := [...]uint8{4, 8, 8, 16, 64}
		mb.Stride = strides[r.Intn(len(strides))]
	}
	return mb
}

// buildFunc creates one function and returns its entry block ID.
func buildFunc(
	p *Profile,
	b *program.Builder,
	structR, behR *rng.Source,
	f int,
	condByBlock map[int]CondBehavior,
	indByBlock map[int]IndirectBehavior,
	patchCall func(block, callee int),
	patchIndirectCall func(block int, callees []int, weights []float64, runLen float64),
) (entry int, err error) {
	entry = -1
	segments := structR.Geometric(float64(p.SegmentsPerFunc), p.SegmentsPerFunc*3)
	body := func() int { return structR.Geometric(p.BlockInsts, p.MaxBlockInsts) }
	note := func(block int) {
		if entry == -1 {
			entry = block
		}
	}

	utils := utilityFuncs(p.NumFuncs)
	firstUtil := p.NumFuncs - utils
	canCall := f < firstUtil // utility (leaf) functions make no calls
	for s := 0; s < segments; s++ {
		x := structR.Float64()
		switch {
		case x < p.LoopFrac:
			// Loop: body blocks B1..Bk, last ends with a backward
			// conditional branch to B1.
			k := structR.Range(1, maxInt(1, p.LoopBodyBlocks))
			first := -1
			for i := 0; i < k; i++ {
				var blk int
				if i == k-1 {
					blk = b.AddBranchBlock(body(), isa.BranchCond, -1)
				} else {
					blk = b.AddBlock(body())
				}
				if first == -1 {
					first = blk
				}
				note(blk)
			}
			last := first + k - 1
			b.SetTarget(last, first)
			condByBlock[last] = newLoopBehavior(p, behR)
		case canCall && x < p.LoopFrac+p.CallFrac:
			// Call site: one block ending in a (possibly indirect) call to
			// a higher-indexed function.
			// Callees come from the shared utility pool (leaf functions).
			if behR.Bool(p.IndirectCallFrac) {
				blk := b.AddBranchBlock(body(), isa.BranchIndirectCall, -1)
				note(blk)
				n := minInt(p.IndirectTargets, utils)
				if n < 1 {
					n = 1
				}
				callees := make([]int, n)
				weights := make([]float64, n)
				for i := 0; i < n; i++ {
					callees[i] = structR.Range(firstUtil, p.NumFuncs-1)
					weights[i] = 1 / float64(i+1)
				}
				patchIndirectCall(blk, callees, weights, 2+p.FuncRunLen)
			} else {
				callee := structR.Range(firstUtil, p.NumFuncs-1)
				blk := b.AddBranchBlock(body(), isa.BranchCall, -1)
				note(blk)
				patchCall(blk, callee)
			}
		case x < p.LoopFrac+p.CallFrac+0.62:
			if structR.Bool(0.5) {
				// If-else diamond with the classic layout: A cond-jumps to
				// the else part E when taken; the then part T ends with an
				// unconditional jump over E to the join J. The jump is a
				// taken control transfer that terminates uop cache entries
				// mid-line, a major fragmentation source (§III-D).
				a := b.AddBranchBlock(body(), isa.BranchCond, -1)
				note(a)
				t := b.AddBranchBlock(body(), isa.BranchJump, -1)
				e := b.AddBlock(body())
				j := b.AddBlock(structR.Range(1, 3))
				b.SetTarget(a, e)
				b.SetTarget(t, j)
				condByBlock[a] = newCondBehavior(p, behR)
			} else {
				// If-then diamond: cond block A (taken skips S to join J),
				// skip block(s) S, then control continues at J.
				a := b.AddBranchBlock(body(), isa.BranchCond, -1)
				note(a)
				nSkip := structR.Range(1, 2)
				for i := 0; i < nSkip; i++ {
					b.AddBlock(body())
				}
				j := b.AddBlock(structR.Range(1, 3))
				b.SetTarget(a, j)
				condByBlock[a] = newCondBehavior(p, behR)
			}
		default:
			// Straight-line run.
			blk := b.AddBlock(body())
			note(blk)
		}
	}
	// Epilogue: return block.
	ret := b.AddBranchBlock(structR.Range(1, 3), isa.BranchRet, -1)
	note(ret)
	if entry < 0 {
		return -1, fmt.Errorf("workload: function %d built no blocks", f)
	}
	return entry, nil
}

// newCondBehavior classifies a diamond's conditional branch. It consumes
// exactly two draws from r regardless of the chosen kind so that changing a
// profile's fractions shifts classification thresholds monotonically without
// reshuffling every later branch's assignment — which keeps per-profile MPKI
// calibration stable.
func newCondBehavior(p *Profile, r *rng.Source) CondBehavior {
	x := r.Float64()
	aux := r.Uint64()
	switch {
	case x < p.ChaoticFrac:
		return CondBehavior{Kind: BehChaotic, P: p.ChaoticP}
	case x < p.ChaoticFrac+p.PatternFrac:
		// Short periods with exactly one minority outcome (e.g. TNNN,
		// NTTTT) — the shapes real periodic branches take.
		maxLen := maxInt(2, minInt(p.PatternLenMax, 4))
		n := 2 + int(aux%uint64(maxLen-1))
		minority := uint(aux>>8) % uint(n)
		var pat uint64
		if aux>>32&1 == 1 {
			pat = (1<<uint(n) - 1) &^ (1 << minority) // mostly taken
		} else {
			pat = 1 << minority // mostly not taken
		}
		return CondBehavior{Kind: BehPattern, Pattern: pat, PatLen: uint8(n)}
	default:
		// Mostly-taken branches fall through ~BiasP of the time; mostly
		// not-taken branches are error/slow paths taken far more rarely
		// (keeps BTB discovery mispredicts from dominating MPKI).
		pTaken := p.BiasP / 4
		if aux%100 < 62 { // most biased branches are mostly taken
			pTaken = 1 - p.BiasP
		}
		return CondBehavior{Kind: BehBiased, P: pTaken}
	}
}

// newLoopBehavior consumes exactly two draws (see newCondBehavior).
func newLoopBehavior(p *Profile, r *rng.Source) CondBehavior {
	x := r.Float64()
	aux := r.Uint64()
	cb := CondBehavior{Kind: BehLoop, TripMean: p.TripMean}
	fixedFrac := p.FixedTripFrac
	if fixedFrac == 0 {
		fixedFrac = 0.75
	}
	// Most loops have deterministic (compile-time-like) trip counts, which a
	// TAGE predictor learns (and whose exit misses amortize over the trips);
	// the rest vary per entry.
	if x < fixedFrac {
		lo := maxInt(2, int(p.TripMean)/2)
		hi := int(2 * p.TripMean)
		cb.FixedTrip = int32(lo + int(aux%uint64(hi-lo+1)))
	}
	return cb
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
