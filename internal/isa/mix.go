package isa

import "uopsim/internal/rng"

// Mix describes the statistical composition of non-branch instructions in a
// synthesized program. Weights need not sum to one; they are normalized.
type Mix struct {
	ALU        float64
	Mul        float64
	Div        float64
	Load       float64
	Store      float64
	LoadOp     float64
	FP         float64
	FPDiv      float64
	Nop        float64
	Microcoded float64

	// MeanLen is the target mean instruction length in bytes. Real x86
	// integer code averages ~3.5-4.5 bytes.
	MeanLen float64
	// ImmDispProb is the probability that a non-memory instruction carries
	// a 32-bit immediate too large to fold into the op encoding (it then
	// occupies a uop cache imm/disp slot).
	ImmDispProb float64
	// UcodeUopsMin/Max bound the microcode expansion of ClassMicrocoded
	// instructions.
	UcodeUopsMin, UcodeUopsMax int
}

// DefaultMix returns an integer-code-like instruction mix.
func DefaultMix() Mix {
	return Mix{
		ALU:          0.42,
		Mul:          0.015,
		Div:          0.004,
		Load:         0.20,
		Store:        0.11,
		LoadOp:       0.12,
		FP:           0.03,
		FPDiv:        0.003,
		Nop:          0.01,
		Microcoded:   0.008,
		MeanLen:      3.8,
		ImmDispProb:  0.50,
		UcodeUopsMin: 3,
		UcodeUopsMax: 8,
	}
}

func (m Mix) weights() []float64 {
	return []float64{m.ALU, m.Mul, m.Div, m.Load, m.Store, m.LoadOp, m.FP, m.FPDiv, m.Nop, m.Microcoded}
}

var mixClasses = []Class{
	ClassALU, ClassMul, ClassDiv, ClassLoad, ClassStore,
	ClassLoadOp, ClassFP, ClassFPDiv, ClassNop, ClassMicrocoded,
}

// SampleClass draws a non-branch instruction class according to the mix.
func (m Mix) SampleClass(r *rng.Source) Class {
	return mixClasses[r.Choose(m.weights())]
}

// SampleLen draws an instruction length for class c, clamped to
// [1, MaxInstLen]. The distribution is a discretized, right-skewed spread
// around MeanLen; microcoded and FP instructions skew longer (prefix bytes),
// and instructions with immediates are lengthened by the caller.
func (m Mix) SampleLen(r *rng.Source, c Class, immDisp uint8) uint8 {
	mean := m.MeanLen
	switch c {
	case ClassFP, ClassFPDiv:
		mean += 1.5 // escape/VEX prefixes
	case ClassMicrocoded:
		mean += 1.0
	case ClassNop:
		mean = 1.5
	}
	// Triangular-ish sample: base 1..3 (mean 2) + geometric tail, with the
	// tail mean chosen so the overall expectation lands near MeanLen after
	// accounting for the immediate bytes added below (E[immDisp] ~ 0.45).
	n := 1 + r.Intn(3) + r.Geometric(mean-2.9, MaxInstLen)
	n += int(immDisp) * 2 // imm/disp bytes make encodings longer
	if n > MaxInstLen {
		n = MaxInstLen
	}
	if n < 1 {
		n = 1
	}
	return uint8(n)
}

// SampleImmDisp draws the number of 32-bit immediate/displacement fields
// (0..2) for class c.
func (m Mix) SampleImmDisp(r *rng.Source, c Class) uint8 {
	switch c {
	case ClassNop:
		return 0
	case ClassMicrocoded:
		// Microcode-sequenced instructions keep their operands in the MSROM
		// entry, not in uop cache imm/disp slots (8 uops + 2 imms would
		// overflow a 64B line).
		return 0
	case ClassLoad, ClassStore, ClassLoadOp:
		// Only large displacements spill to imm/disp slots; small ones fold
		// into the 56-bit op encoding.
		if r.Bool(0.30) {
			if r.Bool(0.15) {
				return 2 // disp + imm (e.g. cmp [mem], imm32)
			}
			return 1
		}
		return 0
	}
	if r.Bool(m.ImmDispProb) {
		if r.Bool(0.12) {
			return 2
		}
		return 1
	}
	return 0
}

// SampleUops draws the uop expansion count for class c.
//
// Counts follow AMD-style fastpath macro-ops — the currency an op cache
// actually stores (§II-B1): load-execute and store instructions are single
// ops (the AGU/ALU split happens at issue, below the op cache), and only
// microcoded instructions expand.
func (m Mix) SampleUops(r *rng.Source, c Class) uint8 {
	switch c {
	case ClassMicrocoded:
		lo, hi := m.UcodeUopsMin, m.UcodeUopsMax
		if lo < 1 {
			lo = 1
		}
		if hi < lo {
			hi = lo
		}
		return uint8(r.Range(lo, hi))
	default:
		return 1
	}
}

// SampleRegs draws destination and source registers for class c.
//
// A large fraction of real instructions consume immediates, constants or
// freshly zeroed registers rather than long-lived values; without that,
// random operand graphs grow unrealistically deep dependence chains and
// collapse ILP. Source operands are therefore present only probabilistically.
func (m Mix) SampleRegs(r *rng.Source, c Class) (dest, src1, src2 uint8) {
	reg := func() uint8 { return uint8(r.Intn(NumRegs)) }
	dest, src1, src2 = RegNone, RegNone, RegNone
	switch c {
	case ClassNop:
	case ClassStore:
		if r.Bool(0.8) {
			src1 = reg() // stored value
		}
		if r.Bool(0.4) {
			src2 = reg() // address component beyond the displacement
		}
	case ClassBranch:
		// Conditional branches read flags (modeled in the back end), not a
		// general register.
	default:
		dest = reg()
		if r.Bool(0.65) {
			src1 = reg()
		}
		if r.Bool(0.25) {
			src2 = reg()
		}
	}
	return dest, src1, src2
}

// NewInst assembles a full non-branch instruction at addr using the mix.
// The caller assigns the ID afterwards.
func (m Mix) NewInst(r *rng.Source, addr uint64) Inst {
	c := m.SampleClass(r)
	imm := m.SampleImmDisp(r, c)
	dest, s1, s2 := m.SampleRegs(r, c)
	return Inst{
		addr:    code32(addr),
		Len:     m.SampleLen(r, c, imm),
		Class:   c,
		Branch:  BranchNone,
		NumUops: m.SampleUops(r, c),
		ImmDisp: imm,
		Dest:    dest,
		Src1:    s1,
		Src2:    s2,
	}
}
