package fetch

import (
	"reflect"
	"testing"

	"uopsim/internal/bpred"
	"uopsim/internal/isa"
)

// trainTaken biases the predictor strongly toward taking the conditional
// branch at pc.
func trainTaken(p *bpred.Predictor, pc uint64, taken bool) {
	for i := 0; i < 32; i++ {
		p.TrainCond(pc, taken)
		p.ArchShift(taken)
		p.SpecShift(taken)
	}
}

func TestPWLineEndWithoutBranches(t *testing.T) {
	p := bpred.New()
	b := NewBuilder(DefaultConfig(), p)
	var pw PW
	b.Build(&pw, 0x1010)
	if pw.Term != TermLineEnd {
		t.Fatalf("term = %v", pw.Term)
	}
	if pw.End != 0x1040 || pw.NextPC != 0x1040 {
		t.Errorf("end=%#x next=%#x, want line end", pw.End, pw.NextPC)
	}
	if pw.EndsTaken || len(pw.Conds) != 0 {
		t.Error("empty-BTB window should predict pure fallthrough")
	}
}

func TestPWTakenBranchTerminates(t *testing.T) {
	p := bpred.New()
	p.TrainTarget(0x1010, isa.BranchJump, 0x4000, 5)
	b := NewBuilder(DefaultConfig(), p)
	var pw PW
	b.Build(&pw, 0x1000)
	if !pw.EndsTaken || pw.Term != TermTaken {
		t.Fatalf("unconditional jump should terminate the window: %+v", pw)
	}
	if pw.TakenPC != 0x1010 || pw.End != 0x1015 || pw.NextPC != 0x4000 {
		t.Errorf("pw=%+v", pw)
	}
	if pw.TerminalKind != isa.BranchJump {
		t.Errorf("kind=%v", pw.TerminalKind)
	}
}

func TestPWTakenConditional(t *testing.T) {
	p := bpred.New()
	p.TrainTarget(0x1008, isa.BranchCond, 0x5000, 4)
	trainTaken(p, 0x1008, true)
	b := NewBuilder(DefaultConfig(), p)
	var pw PW
	b.Build(&pw, 0x1000)
	if !pw.EndsTaken || pw.TakenPC != 0x1008 || pw.NextPC != 0x5000 {
		t.Fatalf("pw=%+v", pw)
	}
	if len(pw.Conds) != 1 || !pw.Conds[0].Taken {
		t.Errorf("conds=%+v", pw.Conds)
	}
}

func TestPWNotTakenContinues(t *testing.T) {
	p := bpred.New()
	p.TrainTarget(0x1008, isa.BranchCond, 0x5000, 4)
	trainTaken(p, 0x1008, false)
	b := NewBuilder(DefaultConfig(), p)
	var pw PW
	b.Build(&pw, 0x1000)
	if pw.EndsTaken {
		t.Fatal("not-taken conditional must not terminate the window")
	}
	if pw.Term != TermLineEnd || pw.End != 0x1040 {
		t.Errorf("pw=%+v", pw)
	}
	if len(pw.Conds) != 1 || pw.Conds[0].Taken {
		t.Errorf("conds=%+v", pw.Conds)
	}
}

func TestPWNotTakenBudget(t *testing.T) {
	p := bpred.New()
	// Two not-taken conditionals within the line exhaust the default budget.
	p.TrainTarget(0x1008, isa.BranchCond, 0x5000, 4)
	p.TrainTarget(0x1018, isa.BranchCond, 0x6000, 4)
	trainTaken(p, 0x1008, false)
	trainTaken(p, 0x1018, false)
	b := NewBuilder(DefaultConfig(), p)
	var pw PW
	b.Build(&pw, 0x1000)
	if pw.Term != TermMaxNT {
		t.Fatalf("term = %v, want not-taken budget", pw.Term)
	}
	if pw.End != 0x101c || pw.NextPC != 0x101c {
		t.Errorf("budget-terminated window should end after the second branch: %+v", pw)
	}
	if len(pw.Conds) != 2 {
		t.Errorf("conds=%d", len(pw.Conds))
	}
}

func TestPWCallPushesRAS(t *testing.T) {
	p := bpred.New()
	p.TrainTarget(0x1010, isa.BranchCall, 0x7000, 5)
	p.TrainTarget(0x7000, isa.BranchRet, 0, 1)
	b := NewBuilder(DefaultConfig(), p)
	var pw1 PW
	b.Build(&pw1, 0x1000)
	if pw1.NextPC != 0x7000 {
		t.Fatalf("call window: %+v", pw1)
	}
	var pw2 PW
	b.Build(&pw2, pw1.NextPC)
	if !pw2.EndsTaken || pw2.TerminalKind != isa.BranchRet {
		t.Fatalf("return window: %+v", pw2)
	}
	if pw2.NextPC != 0x1015 {
		t.Errorf("return should target the call fallthrough, got %#x", pw2.NextPC)
	}
}

func TestPWInstancesIncrease(t *testing.T) {
	p := bpred.New()
	b := NewBuilder(DefaultConfig(), p)
	var a PW
	b.Build(&a, 0x1000)
	var c PW
	b.Build(&c, 0x1040)
	if c.Instance <= a.Instance {
		t.Error("instances must increase")
	}
	built, _, lineEnd, _ := b.Stats()
	if built != 2 || lineEnd != 2 {
		t.Errorf("stats: built=%d lineEnd=%d", built, lineEnd)
	}
}

func TestPWMidLineStart(t *testing.T) {
	p := bpred.New()
	b := NewBuilder(DefaultConfig(), p)
	var pw PW
	b.Build(&pw, 0x1035)
	if pw.Start != 0x1035 || pw.End != 0x1040 {
		t.Errorf("mid-line window: %+v", pw)
	}
}

// trainedPredictor returns a predictor whose BTB and TAGE know a small
// region with not-taken, taken and unconditional branches, so successive
// windows carry between zero and three Conds.
func trainedPredictor() *bpred.Predictor {
	p := bpred.New()
	p.TrainTarget(0x1008, isa.BranchCond, 0x5000, 4)
	p.TrainTarget(0x1018, isa.BranchCond, 0x6000, 4)
	trainTaken(p, 0x1008, false)
	trainTaken(p, 0x1018, false)
	p.TrainTarget(0x1048, isa.BranchCond, 0x1000, 4)
	trainTaken(p, 0x1048, true)
	p.TrainTarget(0x1090, isa.BranchJump, 0x1040, 5)
	return p
}

var reuseStarts = []uint64{0x1000, 0x101c, 0x1040, 0x1080, 0x1035, 0x10c0}

// samePW compares two windows field for field; Conds compare by content,
// so an empty reused backing equals a fresh window's nil slice.
func samePW(a, b PW) bool {
	if len(a.Conds) != len(b.Conds) {
		return false
	}
	for i := range a.Conds {
		if a.Conds[i] != b.Conds[i] {
			return false
		}
	}
	a.Conds, b.Conds = nil, nil
	return reflect.DeepEqual(a, b)
}

// staleFields sets every field of pw but Conds to a non-zero value.
func staleFields(pw *PW) {
	v := reflect.ValueOf(pw).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(7)
		case reflect.Uint8, reflect.Uint64:
			f.SetUint(7)
		case reflect.Slice:
		default:
			panic("staleFields: unhandled kind " + f.Kind().String())
		}
	}
}

// TestBuildIntoReusedPW pins the recycling contract: building into a reused
// PW, whatever its fields hold, yields exactly what a fresh PW would hold,
// and after the first pass the reused Conds backing absorbs every later
// window without allocating.
func TestBuildIntoReusedPW(t *testing.T) {
	reused := NewBuilder(DefaultConfig(), trainedPredictor())
	fresh := NewBuilder(DefaultConfig(), trainedPredictor())
	var pw PW
	for round := 0; round < 3; round++ {
		for _, pc := range reuseStarts {
			staleFields(&pw)
			reused.Build(&pw, pc)
			var want PW
			fresh.Build(&want, pc)
			if !samePW(pw, want) {
				t.Fatalf("round %d start %#x: reused %+v, fresh %+v", round, pc, pw, want)
			}
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		for _, pc := range reuseStarts {
			reused.Build(&pw, pc)
		}
	})
	if allocs != 0 {
		t.Errorf("building into a reused PW allocates %.1f objects per pass, want 0", allocs)
	}
}
