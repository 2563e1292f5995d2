// Package workload synthesizes the 13 benchmark programs of the paper's
// Table II as statistical equivalents: control-flow graphs with calibrated
// code footprint, basic-block geometry, branch behaviour (bias, periodic
// patterns, data-dependent chaos, loop trip counts, indirect fan-out) and
// memory reference streams, plus the architectural walker that executes them
// to produce the dynamic instruction (oracle) stream.
//
// The real workloads cannot be run here (proprietary SimNow full-system
// traces); what the uop cache sees, however, is fully characterized by the
// statistics this package controls — see DESIGN.md §1.
package workload

import (
	"fmt"
	"math"

	"uopsim/internal/isa"
)

// Profile is the tunable description of one synthetic workload.
type Profile struct {
	// Name is the short identifier used in figures (e.g. "bm-cc").
	Name string
	// Suite is the benchmark suite grouping used in the paper's figures.
	Suite string
	// Description explains which Table II workload this profile mirrors.
	Description string
	// Seed makes the workload deterministic and distinct from its peers.
	Seed uint64

	// Mix is the non-branch instruction composition.
	Mix isa.Mix

	// NumFuncs is the number of synthesized functions. Together with
	// SegmentsPerFunc and BlockInsts it sets the code footprint, the key
	// knob for uop cache capacity pressure.
	NumFuncs int
	// SegmentsPerFunc is the mean number of CFG segments (straight runs,
	// if-diamonds, loops, call sites) per function.
	SegmentsPerFunc int
	// BlockInsts is the mean basic-block body size in instructions.
	BlockInsts float64
	// MaxBlockInsts caps block body size.
	MaxBlockInsts int

	// LoopFrac is the fraction of segments that are loops.
	LoopFrac float64
	// TripMean is the mean loop trip count.
	TripMean float64
	// LoopBodyBlocks is the maximum number of blocks in a loop body.
	LoopBodyBlocks int

	// CallFrac is the fraction of segments that are call sites.
	CallFrac float64
	// IndirectCallFrac is the fraction of call sites that are indirect
	// (virtual dispatch), each with IndirectTargets candidate callees.
	IndirectCallFrac float64
	// IndirectTargets is the fan-out of indirect call sites.
	IndirectTargets int

	// ChaoticFrac is the fraction of conditional branches whose outcome is
	// i.i.d. random (data-dependent, unpredictable) — the dominant MPKI
	// control.
	ChaoticFrac float64
	// ChaoticP is the taken probability of chaotic branches (0.5 is the
	// hardest).
	ChaoticP float64
	// PatternFrac is the fraction of conditional branches following a short
	// periodic pattern (TAGE-predictable once warm).
	PatternFrac float64
	// PatternLenMax bounds pattern periods.
	PatternLenMax int
	// BiasP is the taken probability magnitude for biased branches; each
	// biased branch is taken with probability BiasP or 1-BiasP.
	BiasP float64
	// FixedTripFrac is the fraction of loops with deterministic trip counts
	// (learnable exits); the rest re-sample per entry. Zero means the 0.75
	// default.
	FixedTripFrac float64

	// ZipfS is the skew of the dispatcher's function popularity (larger =
	// hotter hot set = more temporal reuse).
	ZipfS float64
	// FuncRunLen is the mean number of consecutive invocations of the same
	// function before the dispatcher switches (phase behaviour).
	FuncRunLen float64

	// HotBytes/WarmBytes/ColdBytes size the three data regions; WarmFrac and
	// ColdFrac give the probability that a memory instruction is bound to
	// the warm/cold region (remainder hot).
	HotBytes, WarmBytes, ColdBytes uint64
	WarmFrac, ColdFrac             float64
}

// maxTripMean bounds TripMean so that a loop's trip count, up to eight
// times the mean, fits the walker's 32-bit loop counters and a fixed trip
// count, up to twice the mean, fits CondBehavior.FixedTrip.
const maxTripMean = 1 << 28

// validate reports the first configuration error.
func (p *Profile) validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile missing name")
	case p.NumFuncs < 1:
		return fmt.Errorf("workload %s: NumFuncs must be >= 1", p.Name)
	case p.SegmentsPerFunc < 1:
		return fmt.Errorf("workload %s: SegmentsPerFunc must be >= 1", p.Name)
	case p.BlockInsts < 1:
		return fmt.Errorf("workload %s: BlockInsts must be >= 1", p.Name)
	case p.TripMean < 1 || p.TripMean > maxTripMean:
		return fmt.Errorf("workload %s: TripMean must be in [1, %d]", p.Name, maxTripMean)
	case p.ChaoticFrac < 0 || p.ChaoticFrac > 1:
		return fmt.Errorf("workload %s: ChaoticFrac out of range", p.Name)
	}
	return nil
}

// Profiles returns the 13 workload profiles mirroring Table II, in the
// paper's figure order: Cloud (SparkBench ×3, nutch, mahout), Server (redis,
// jvm), SPEC CPU 2017 (perlbench, gcc, x264, deepsjeng, leela, xz).
//
// Footprints: cloud/server workloads carry large flat code footprints (deep
// software stacks, JITed code), SPEC INT footprints are smaller but loopier.
// ChaoticFrac is tuned so the measured baseline branch MPKI ranks like Table
// II (redis/x264 lowest, leela/xz highest).
func Profiles() []*Profile {
	ps := []*Profile{
		{
			Name: "sp_log_regr", Suite: "Cloud", Seed: 0x5101,
			Description: "SparkBench logistic regression (Table II MPKI 10.37): large JVM-style footprint, data-dependent branches",
			NumFuncs:    700, SegmentsPerFunc: 14, BlockInsts: 2.5, MaxBlockInsts: 6,
			LoopFrac: 0.08, TripMean: 10, LoopBodyBlocks: 2,
			CallFrac: 0.16, IndirectCallFrac: 0.08, IndirectTargets: 3,
			ChaoticFrac: 0.150, ChaoticP: 0.42, PatternFrac: 0.06, PatternLenMax: 6, BiasP: 0.012,
			ZipfS: 0.30, FuncRunLen: 3,
			HotBytes: 1 << 15, WarmBytes: 1 << 19, ColdBytes: 1 << 24, WarmFrac: 0.25, ColdFrac: 0.035,
		},
		{
			Name: "sp_tr_cnt", Suite: "Cloud", Seed: 0x5102,
			Description: "SparkBench triangle count (Table II MPKI 7.9): graph traversal, large footprint, moderate chaos",
			NumFuncs:    680, SegmentsPerFunc: 14, BlockInsts: 2.2, MaxBlockInsts: 6,
			LoopFrac: 0.09, TripMean: 10, LoopBodyBlocks: 2,
			CallFrac: 0.15, IndirectCallFrac: 0.08, IndirectTargets: 3,
			ChaoticFrac: 0.050, ChaoticP: 0.45, PatternFrac: 0.06, PatternLenMax: 6, BiasP: 0.012,
			ZipfS: 0.30, FuncRunLen: 3,
			HotBytes: 1 << 15, WarmBytes: 1 << 19, ColdBytes: 1 << 24, WarmFrac: 0.25, ColdFrac: 0.045,
		},
		{
			Name: "sp_pg_rnk", Suite: "Cloud", Seed: 0x5103,
			Description: "SparkBench page rank (Table II MPKI 9.27): iterative graph kernel with large working set",
			NumFuncs:    680, SegmentsPerFunc: 14, BlockInsts: 2.5, MaxBlockInsts: 6,
			LoopFrac: 0.09, TripMean: 10, LoopBodyBlocks: 2,
			CallFrac: 0.15, IndirectCallFrac: 0.08, IndirectTargets: 3,
			ChaoticFrac: 0.120, ChaoticP: 0.43, PatternFrac: 0.06, PatternLenMax: 6, BiasP: 0.012,
			ZipfS: 0.30, FuncRunLen: 3,
			HotBytes: 1 << 15, WarmBytes: 1 << 19, ColdBytes: 1 << 24, WarmFrac: 0.25, ColdFrac: 0.040,
		},
		{
			Name: "nutch", Suite: "Cloud", Seed: 0x5104,
			Description: "Nutch search indexing (Table II MPKI 5.12): very large flat footprint, biased branches",
			NumFuncs:    850, SegmentsPerFunc: 15, BlockInsts: 2.3, MaxBlockInsts: 7,
			LoopFrac: 0.06, TripMean: 9, LoopBodyBlocks: 2,
			CallFrac: 0.18, IndirectCallFrac: 0.14, IndirectTargets: 3,
			ChaoticFrac: 0.008, ChaoticP: 0.45, PatternFrac: 0.03, PatternLenMax: 7, BiasP: 0.010,
			ZipfS: 0.30, FuncRunLen: 3,
			HotBytes: 1 << 15, WarmBytes: 1 << 20, ColdBytes: 1 << 24, WarmFrac: 0.28, ColdFrac: 0.035,
		},
		{
			Name: "mahout", Suite: "Cloud", Seed: 0x5105,
			Description: "Mahout Bayes classification (Table II MPKI 9.05): ML scoring loops over sparse features",
			NumFuncs:    650, SegmentsPerFunc: 14, BlockInsts: 2.4, MaxBlockInsts: 6,
			LoopFrac: 0.10, TripMean: 10, LoopBodyBlocks: 2,
			CallFrac: 0.15, IndirectCallFrac: 0.06, IndirectTargets: 3,
			ChaoticFrac: 0.100, ChaoticP: 0.44, PatternFrac: 0.05, PatternLenMax: 6, BiasP: 0.012,
			ZipfS: 0.30, FuncRunLen: 3,
			HotBytes: 1 << 15, WarmBytes: 1 << 19, ColdBytes: 1 << 23, WarmFrac: 0.25, ColdFrac: 0.045,
		},
		{
			Name: "redis", Suite: "redis", Seed: 0x5201,
			Description: "redis + memtier (Table II MPKI 1.01): compact hot command loop, highly biased branches",
			NumFuncs:    120, SegmentsPerFunc: 8, BlockInsts: 3.0, MaxBlockInsts: 7,
			LoopFrac: 0.12, TripMean: 30, LoopBodyBlocks: 2,
			CallFrac: 0.14, IndirectCallFrac: 0.06, IndirectTargets: 5,
			ChaoticFrac: 0.000, ChaoticP: 0.45, PatternFrac: 0.00, PatternLenMax: 5, BiasP: 0.003, FixedTripFrac: 0.92,
			ZipfS: 0.30, FuncRunLen: 4,
			HotBytes: 1 << 14, WarmBytes: 1 << 18, ColdBytes: 1 << 23, WarmFrac: 0.22, ColdFrac: 0.025,
		},
		{
			Name: "jvm", Suite: "jvm", Seed: 0x5202,
			Description: "SPECjbb2015-Composite (Table II MPKI 2.15): big JITed footprint, mostly predictable branches",
			NumFuncs:    550, SegmentsPerFunc: 15, BlockInsts: 2.3, MaxBlockInsts: 7,
			LoopFrac: 0.07, TripMean: 12, LoopBodyBlocks: 2,
			CallFrac: 0.17, IndirectCallFrac: 0.13, IndirectTargets: 3,
			ChaoticFrac: 0.002, ChaoticP: 0.45, PatternFrac: 0.01, PatternLenMax: 6, BiasP: 0.003, FixedTripFrac: 0.92,
			ZipfS: 0.30, FuncRunLen: 3,
			HotBytes: 1 << 15, WarmBytes: 1 << 20, ColdBytes: 1 << 24, WarmFrac: 0.27, ColdFrac: 0.030,
		},
		{
			Name: "bm_pb", Suite: "SPEC CPU 2017", Seed: 0x5301,
			Description: "500.perlbench_r (Table II MPKI 2.07): interpreter dispatch, medium footprint",
			NumFuncs:    150, SegmentsPerFunc: 9, BlockInsts: 2.2, MaxBlockInsts: 6,
			LoopFrac: 0.12, TripMean: 14, LoopBodyBlocks: 2,
			CallFrac: 0.16, IndirectCallFrac: 0.10, IndirectTargets: 4,
			ChaoticFrac: 0.002, ChaoticP: 0.45, PatternFrac: 0.006, PatternLenMax: 7, BiasP: 0.003, FixedTripFrac: 0.92,
			ZipfS: 0.45, FuncRunLen: 3,
			HotBytes: 1 << 14, WarmBytes: 1 << 18, ColdBytes: 1 << 22, WarmFrac: 0.25, ColdFrac: 0.025,
		},
		{
			Name: "bm_cc", Suite: "SPEC CPU 2017", Seed: 0x5302,
			Description: "502.gcc_r (Table II MPKI 5.48): the paper's biggest winner — huge code footprint, short blocks",
			NumFuncs:    950, SegmentsPerFunc: 16, BlockInsts: 2.2, MaxBlockInsts: 5,
			LoopFrac: 0.07, TripMean: 9, LoopBodyBlocks: 2,
			CallFrac: 0.19, IndirectCallFrac: 0.08, IndirectTargets: 5,
			ChaoticFrac: 0.012, ChaoticP: 0.44, PatternFrac: 0.06, PatternLenMax: 6, BiasP: 0.010,
			ZipfS: 0.30, FuncRunLen: 3,
			HotBytes: 1 << 15, WarmBytes: 1 << 19, ColdBytes: 1 << 23, WarmFrac: 0.26, ColdFrac: 0.035,
		},
		{
			Name: "bm_x64", Suite: "SPEC CPU 2017", Seed: 0x5303,
			Description: "525.x264_r (Table II MPKI 1.31): tight media kernels, long blocks, loop-dominated",
			NumFuncs:    70, SegmentsPerFunc: 8, BlockInsts: 4.2, MaxBlockInsts: 10,
			LoopFrac: 0.36, TripMean: 42, LoopBodyBlocks: 3,
			CallFrac: 0.10, IndirectCallFrac: 0.06, IndirectTargets: 3,
			ChaoticFrac: 0.022, FixedTripFrac: 0.95, ChaoticP: 0.45, PatternFrac: 0.09, PatternLenMax: 8, BiasP: 0.008,
			ZipfS: 0.50, FuncRunLen: 10,
			HotBytes: 1 << 14, WarmBytes: 1 << 19, ColdBytes: 1 << 23, WarmFrac: 0.30, ColdFrac: 0.020,
		},
		{
			Name: "bm_ds", Suite: "SPEC CPU 2017", Seed: 0x5304,
			Description: "531.deepsjeng_r (Table II MPKI 4.5): game-tree search, recursive control, medium chaos",
			NumFuncs:    110, SegmentsPerFunc: 9, BlockInsts: 2.4, MaxBlockInsts: 6,
			LoopFrac: 0.12, TripMean: 10, LoopBodyBlocks: 2,
			CallFrac: 0.18, IndirectCallFrac: 0.08, IndirectTargets: 3,
			ChaoticFrac: 0.005, ChaoticP: 0.42, PatternFrac: 0.05, PatternLenMax: 6, BiasP: 0.012,
			ZipfS: 0.50, FuncRunLen: 3,
			HotBytes: 1 << 14, WarmBytes: 1 << 18, ColdBytes: 1 << 22, WarmFrac: 0.24, ColdFrac: 0.025,
		},
		{
			Name: "bm_lla", Suite: "SPEC CPU 2017", Seed: 0x5305,
			Description: "541.leela_r (Table II MPKI 11.51): MCTS Go engine, heavily data-dependent branches",
			NumFuncs:    100, SegmentsPerFunc: 9, BlockInsts: 2.3, MaxBlockInsts: 6,
			LoopFrac: 0.12, TripMean: 10, LoopBodyBlocks: 2,
			CallFrac: 0.16, IndirectCallFrac: 0.08, IndirectTargets: 3,
			ChaoticFrac: 0.360, ChaoticP: 0.45, PatternFrac: 0.04, PatternLenMax: 5, BiasP: 0.015,
			ZipfS: 0.50, FuncRunLen: 3,
			HotBytes: 1 << 14, WarmBytes: 1 << 18, ColdBytes: 1 << 22, WarmFrac: 0.25, ColdFrac: 0.025,
		},
		{
			Name: "bm_z", Suite: "SPEC CPU 2017", Seed: 0x5306,
			Description: "557.xz_r (Table II MPKI 11.61): LZMA match finding, near-random comparison outcomes",
			NumFuncs:    90, SegmentsPerFunc: 8, BlockInsts: 2.4, MaxBlockInsts: 6,
			LoopFrac: 0.12, TripMean: 10, LoopBodyBlocks: 2,
			CallFrac: 0.12, IndirectCallFrac: 0.06, IndirectTargets: 3,
			ChaoticFrac: 0.240, ChaoticP: 0.46, PatternFrac: 0.04, PatternLenMax: 5, BiasP: 0.014,
			ZipfS: 0.30, FuncRunLen: 4,
			HotBytes: 1 << 14, WarmBytes: 1 << 19, ColdBytes: 1 << 23, WarmFrac: 0.28, ColdFrac: 0.035,
		},
	}
	for _, p := range ps {
		p.Mix = isa.DefaultMix()
	}
	return ps
}

// table is the Table II set, built once: every request resolves its
// workload by name, so ByName and Names read this instead of rebuilding
// all 13 profiles per call.
var table = Profiles()

// ByName returns a copy of the profile with the given name; the caller may
// modify it without affecting later lookups.
func ByName(name string) (*Profile, error) {
	p, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	cp := *p
	return &cp, nil
}

// Lookup returns the Table II profile with the given name itself, not a
// copy, for callers that only read it (fingerprints, feature vectors):
// every caller shares it, so it must never be modified.
func Lookup(name string) (*Profile, error) {
	if p := find(name); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("workload: unknown profile %q (have %v)", name, Names())
}

func find(name string) *Profile {
	for _, p := range table {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Names lists all profile names in figure order.
func Names() []string {
	names := make([]string, len(table))
	for i, p := range table {
		names[i] = p.Name
	}
	return names
}

// zipfWeights returns unnormalized Zipf(s) weights for n ranks with a
// deterministic rank permutation so "function 0" is not always the hottest.
func zipfWeights(n int, s float64, perm []int) []float64 {
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		rank := float64(perm[i] + 1)
		w[i] = 1 / math.Pow(rank, s)
	}
	return w
}
