// Package isa models the CISC (x86-like) instruction set the simulator
// executes: variable-length instructions that decode into one or more
// fixed-length micro-operations (uops).
//
// The model is deliberately parameterized rather than a byte-exact x86
// decoder: the micro-op cache never stores raw x86 bytes, so the only
// properties that matter to the paper's mechanisms are the distributions of
// instruction lengths, uop expansion counts, immediate/displacement operand
// counts, and microcoded instructions. Those are first-class here.
package isa

import "fmt"

// Class is the functional class of an instruction. It determines the uop
// expansion, execution latency and port binding of the resulting uops.
type Class uint8

const (
	// ClassALU is a simple one-uop integer operation (add, sub, logic, mov).
	ClassALU Class = iota
	// ClassMul is an integer multiply.
	ClassMul
	// ClassDiv is an integer divide (long latency, unpipelined).
	ClassDiv
	// ClassLoad reads memory.
	ClassLoad
	// ClassStore writes memory (cracks into store-address + store-data uops).
	ClassStore
	// ClassLoadOp is a load-execute instruction (memory source operand); it
	// cracks into a load uop plus an ALU uop.
	ClassLoadOp
	// ClassFP is a pipelined floating-point/vector arithmetic operation.
	ClassFP
	// ClassFPDiv is a long-latency floating-point divide/sqrt.
	ClassFPDiv
	// ClassNop occupies front-end slots but no execution resources.
	ClassNop
	// ClassMicrocoded is a complex instruction (string op, CPUID-like,
	// call-gate, wide push/pop multiple) expanded by the microcode sequencer
	// into several uops.
	ClassMicrocoded
	// ClassBranch is any control-transfer instruction; BranchKind refines it.
	ClassBranch

	numClasses
)

var classNames = [numClasses]string{
	"alu", "mul", "div", "load", "store", "loadop",
	"fp", "fpdiv", "nop", "ucode", "branch",
}

// String returns the lower-case mnemonic class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// BranchKind refines ClassBranch instructions.
type BranchKind uint8

const (
	// BranchNone marks non-branch instructions.
	BranchNone BranchKind = iota
	// BranchCond is a direct conditional branch.
	BranchCond
	// BranchJump is a direct unconditional jump.
	BranchJump
	// BranchCall is a direct call.
	BranchCall
	// BranchRet is a near return.
	BranchRet
	// BranchIndirect is an indirect jump (e.g. through a register or jump
	// table).
	BranchIndirect
	// BranchIndirectCall is an indirect call (virtual dispatch).
	BranchIndirectCall
)

var branchNames = []string{"none", "cond", "jump", "call", "ret", "ijump", "icall"}

// String returns the branch kind name.
func (k BranchKind) String() string {
	if int(k) < len(branchNames) {
		return branchNames[k]
	}
	return fmt.Sprintf("branch(%d)", uint8(k))
}

// IsCall reports whether the kind pushes a return address.
func (k BranchKind) IsCall() bool { return k == BranchCall || k == BranchIndirectCall }

// IsIndirect reports whether the target comes from data rather than the
// instruction encoding.
func (k BranchKind) IsIndirect() bool {
	return k == BranchIndirect || k == BranchIndirectCall || k == BranchRet
}

// IsUnconditional reports whether the branch is always taken.
func (k BranchKind) IsUnconditional() bool { return k != BranchNone && k != BranchCond }

// NumRegs is the number of architectural integer registers tracked for
// dependences (x86-64 GPRs).
const NumRegs = 16

// MaxInstLen is the architectural maximum instruction length in bytes.
const MaxInstLen = 15

// CodeLimit bounds the code address space: every instruction lies below
// it. An Inst stores its address and direct-branch target in 32 bits, as
// x86 direct branches encode rel32 displacements; program.Builder refuses a
// layout that would cross it.
const CodeLimit uint64 = 1 << 32

// Inst is one static instruction. Instances are immutable after program
// construction; the dynamic stream references them by pointer. Fields run
// widest first, so the struct packs into 20 bytes with no padding.
type Inst struct {
	// addr is the virtual (and, in this simulator, physical) address of the
	// first byte; target is the static target address for direct branches
	// and calls. Both lie below CodeLimit; see Addr and Target.
	addr, target uint32
	// ID is a dense static-instruction index within the program, used to
	// attach dynamic behaviour (branch outcome streams, memory streams).
	ID uint32
	// Len is the encoded length in bytes (1..MaxInstLen).
	Len uint8
	// Class is the functional class.
	Class Class
	// Branch refines ClassBranch; BranchNone otherwise.
	Branch BranchKind
	// NumUops is the number of uops the decoder emits (>= 1).
	NumUops uint8
	// ImmDisp is the number of 32-bit immediate/displacement fields the uop
	// cache must store alongside the uops (0..2).
	ImmDisp uint8
	// Dest is the destination architectural register, or RegNone.
	Dest uint8
	// Src1, Src2 are source registers, or RegNone.
	Src1, Src2 uint8
}

// RegNone marks an absent register operand.
const RegNone uint8 = 0xff

// Addr returns the address of the instruction's first byte.
func (in *Inst) Addr() uint64 { return uint64(in.addr) }

// Target returns the static target address of a direct branch or call.
func (in *Inst) Target() uint64 { return uint64(in.target) }

// End returns the address one past the last byte of the instruction.
func (in *Inst) End() uint64 { return uint64(in.addr) + uint64(in.Len) }

// SetAddr places the instruction at addr. It panics when addr is not below
// CodeLimit; program layout checks its code region before placing any
// instruction.
func (in *Inst) SetAddr(addr uint64) { in.addr = code32(addr) }

// SetTarget sets the direct-branch target to addr, which must lie below
// CodeLimit (see SetAddr).
func (in *Inst) SetTarget(addr uint64) { in.target = code32(addr) }

func code32(addr uint64) uint32 {
	if addr >= CodeLimit {
		panic(fmt.Sprintf("isa: code address %#x not below CodeLimit", addr))
	}
	return uint32(addr)
}

// IsBranch reports whether the instruction is any control transfer.
func (in *Inst) IsBranch() bool { return in.Class == ClassBranch }

// IsMicrocoded reports whether the microcode sequencer expands it.
func (in *Inst) IsMicrocoded() bool { return in.Class == ClassMicrocoded }

// String renders a short diagnostic form.
func (in *Inst) String() string {
	if in.IsBranch() {
		return fmt.Sprintf("%#x: %s/%s len=%d ->%#x", in.addr, in.Class, in.Branch, in.Len, in.target)
	}
	return fmt.Sprintf("%#x: %s len=%d uops=%d", in.addr, in.Class, in.Len, in.NumUops)
}

// ExecLatency returns the execution latency in cycles for a uop of class c.
// Loads get their latency from the memory hierarchy instead; the value here
// is the address-generation component.
func ExecLatency(c Class) int {
	switch c {
	case ClassALU, ClassNop:
		return 1
	case ClassMul:
		return 3
	case ClassDiv:
		return 18
	case ClassLoad, ClassLoadOp:
		return 1 // AGU; memory latency added by the hierarchy
	case ClassStore:
		return 1
	case ClassFP:
		return 3
	case ClassFPDiv:
		return 13
	case ClassMicrocoded:
		return 2
	case ClassBranch:
		return 1
	default:
		return 1
	}
}
