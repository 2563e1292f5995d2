package isa

import (
	"testing"
	"testing/quick"
	"unsafe"

	"uopsim/internal/rng"
)

func TestClassNames(t *testing.T) {
	for c := ClassALU; c < numClasses; c++ {
		if c.String() == "" || c.String()[0] == 'c' && c.String() != "class(255)" && c.String()[:5] == "class" {
			t.Errorf("class %d has fallback name %q", c, c.String())
		}
	}
	if Class(200).String() != "class(200)" {
		t.Errorf("out-of-range name = %q", Class(200).String())
	}
}

func TestBranchKindPredicates(t *testing.T) {
	cases := []struct {
		k                             BranchKind
		call, indirect, unconditional bool
	}{
		{BranchNone, false, false, false},
		{BranchCond, false, false, false},
		{BranchJump, false, false, true},
		{BranchCall, true, false, true},
		{BranchRet, false, true, true},
		{BranchIndirect, false, true, true},
		{BranchIndirectCall, true, true, true},
	}
	for _, c := range cases {
		if c.k.IsCall() != c.call {
			t.Errorf("%v IsCall = %v", c.k, c.k.IsCall())
		}
		if c.k.IsIndirect() != c.indirect {
			t.Errorf("%v IsIndirect = %v", c.k, c.k.IsIndirect())
		}
		if c.k.IsUnconditional() != c.unconditional {
			t.Errorf("%v IsUnconditional = %v", c.k, c.k.IsUnconditional())
		}
	}
}

func TestInstHelpers(t *testing.T) {
	in := Inst{Len: 5, Class: ClassBranch, Branch: BranchCond}
	in.SetAddr(100)
	if in.End() != 105 {
		t.Errorf("End = %d", in.End())
	}
	if !in.IsBranch() || in.IsMicrocoded() {
		t.Error("predicates wrong")
	}
	uc := Inst{Class: ClassMicrocoded}
	if !uc.IsMicrocoded() {
		t.Error("microcoded predicate wrong")
	}
	if in.String() == "" || uc.String() == "" {
		t.Error("String should not be empty")
	}
}

func TestExecLatencyPositive(t *testing.T) {
	for c := ClassALU; c < numClasses; c++ {
		if ExecLatency(c) < 1 {
			t.Errorf("latency(%v) = %d", c, ExecLatency(c))
		}
	}
	if ExecLatency(ClassDiv) <= ExecLatency(ClassALU) {
		t.Error("divide should be slower than ALU")
	}
}

func TestMixSampleProperties(t *testing.T) {
	mix := DefaultMix()
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		in := mix.NewInst(r, 0x1000)
		if in.Len < 1 || in.Len > MaxInstLen {
			return false
		}
		if in.NumUops < 1 || in.NumUops > 8 {
			return false
		}
		if in.ImmDisp > 2 {
			return false
		}
		if in.Class == ClassBranch {
			return false // NewInst never emits branches
		}
		for _, reg := range []uint8{in.Dest, in.Src1, in.Src2} {
			if reg != RegNone && reg >= NumRegs {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMixMeanLength(t *testing.T) {
	mix := DefaultMix()
	r := rng.New(99)
	var sum float64
	n := 50_000
	for i := 0; i < n; i++ {
		in := mix.NewInst(r, 0)
		sum += float64(in.Len)
	}
	mean := sum / float64(n)
	if mean < 3.0 || mean > 5.0 {
		t.Errorf("mean instruction length = %.2f, want ~%.1f", mean, mix.MeanLen)
	}
}

func TestMixMacroOpCounts(t *testing.T) {
	mix := DefaultMix()
	r := rng.New(5)
	for i := 0; i < 1000; i++ {
		if got := mix.SampleUops(r, ClassLoadOp); got != 1 {
			t.Fatalf("load-op should be one fastpath op, got %d", got)
		}
		if got := mix.SampleUops(r, ClassStore); got != 1 {
			t.Fatalf("store should be one fastpath op, got %d", got)
		}
		uc := mix.SampleUops(r, ClassMicrocoded)
		if uc < uint8(mix.UcodeUopsMin) || uc > uint8(mix.UcodeUopsMax) {
			t.Fatalf("microcoded ops = %d outside [%d,%d]", uc, mix.UcodeUopsMin, mix.UcodeUopsMax)
		}
	}
}

func TestMicrocodedCarriesNoImm(t *testing.T) {
	mix := DefaultMix()
	r := rng.New(6)
	for i := 0; i < 1000; i++ {
		if mix.SampleImmDisp(r, ClassMicrocoded) != 0 {
			t.Fatal("microcoded instructions must not occupy imm/disp slots")
		}
	}
}

func TestMixClassFrequencies(t *testing.T) {
	mix := DefaultMix()
	r := rng.New(7)
	counts := map[Class]int{}
	n := 100_000
	for i := 0; i < n; i++ {
		counts[mix.SampleClass(r)]++
	}
	aluFrac := float64(counts[ClassALU]) / float64(n)
	if aluFrac < 0.35 || aluFrac > 0.55 {
		t.Errorf("ALU fraction = %.3f", aluFrac)
	}
	memFrac := float64(counts[ClassLoad]+counts[ClassStore]+counts[ClassLoadOp]) / float64(n)
	if memFrac < 0.35 || memFrac > 0.55 {
		t.Errorf("memory fraction = %.3f", memFrac)
	}
}

// TestInstSize pins the static instruction at 20 bytes: the 32-bit address
// and target, the ID and eight one-byte fields, with no padding between
// them. Every program image holds one per instruction (569k across the
// Table II profiles), so each byte here is half a megabyte per process.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 20 {
		t.Errorf("sizeof(Inst) = %d, want 20", got)
	}
}

// TestCodeAddressRange checks that an instruction holds any address below
// CodeLimit exactly and refuses one at or above it.
func TestCodeAddressRange(t *testing.T) {
	var in Inst
	in.Len = 15
	in.SetAddr(CodeLimit - 1)
	in.SetTarget(CodeLimit - 16)
	if in.Addr() != CodeLimit-1 || in.Target() != CodeLimit-16 || in.End() != CodeLimit+14 {
		t.Errorf("Addr, Target, End = %#x, %#x, %#x", in.Addr(), in.Target(), in.End())
	}
	for _, set := range []func(uint64){in.SetAddr, in.SetTarget} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("placing code at %#x did not panic", CodeLimit)
				}
			}()
			set(CodeLimit)
		}()
	}
}
