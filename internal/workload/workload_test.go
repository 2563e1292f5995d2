package workload

import (
	"testing"

	"uopsim/internal/isa"
)

func buildNamed(t *testing.T, name string) *Workload {
	t.Helper()
	prof, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestAllProfilesBuildAndValidate(t *testing.T) {
	if len(Names()) != 13 {
		t.Fatalf("expected 13 Table II workloads, have %d", len(Names()))
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			wl := buildNamed(t, name)
			if err := wl.Program.Validate(); err != nil {
				t.Fatal(err)
			}
			if wl.Program.NumInsts() < 1000 {
				t.Errorf("suspiciously small program: %d insts", wl.Program.NumInsts())
			}
		})
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("no_such_workload"); err == nil {
		t.Fatal("unknown name should error")
	}
}

// TestByNameReturnsCopy: a caller that edits the profile it got must not
// change what the next lookup returns.
func TestByNameReturnsCopy(t *testing.T) {
	p, err := ByName("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	want := *p
	p.Seed++
	p.ChaoticFrac = 0.99
	p.Mix.ALU = -1
	again, err := ByName("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	if *again != want {
		t.Fatalf("mutating a returned profile changed the table: got %+v, want %+v", *again, want)
	}
	if *Profiles()[8] != want {
		t.Fatal("ByName(bm_cc) differs from the freshly built Table II profile")
	}
}

// TestByNameAllocs pins the lookup to the one copy it hands out; every
// request resolves its workload through it.
func TestByNameAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ByName("bm_z"); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("ByName allocates %.0f times per call, want <= 1", n)
	}
}

func TestBuildDeterminism(t *testing.T) {
	prof, _ := ByName("bm_ds")
	a, err := Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	if a.Program.NumInsts() != b.Program.NumInsts() {
		t.Fatal("program size differs between identical builds")
	}
	for i := range a.Program.Insts {
		x, y := a.Program.Insts[i], b.Program.Insts[i]
		if x != y {
			t.Fatalf("inst %d differs: %+v vs %+v", i, x, y)
		}
	}
	wa, wb := NewWalker(a), NewWalker(b)
	for i := 0; i < 50_000; i++ {
		ra := wa.Next()
		rb := wb.Next()
		if ra != rb {
			t.Fatalf("walker diverged at step %d", i)
		}
	}
}

// TestWalkerFollowsArchitecture verifies the fundamental control-flow
// contract: each record's Next is a valid instruction boundary, and the
// following record is the instruction at that address.
func TestWalkerFollowsArchitecture(t *testing.T) {
	wl := buildNamed(t, "bm_cc")
	w := NewWalker(wl)
	prev := w.Next()
	for i := 0; i < 200_000; i++ {
		rec := w.Next()
		in := wl.Program.Inst(rec.InstID)
		if in.Addr != prev.Next {
			t.Fatalf("step %d: inst at %#x, previous said next=%#x", i, in.Addr, prev.Next)
		}
		if prevInst := wl.Program.Inst(prev.InstID); !prevInst.IsBranch() && prev.Next != prevInst.End() {
			t.Fatalf("non-branch with non-sequential next at step %d", i)
		}
		prev = rec
	}
	if w.Executed() != 200_001 {
		t.Errorf("executed = %d", w.Executed())
	}
}

func TestWalkerBranchSemantics(t *testing.T) {
	wl := buildNamed(t, "bm_ds")
	w := NewWalker(wl)
	for i := 0; i < 200_000; i++ {
		rec := w.Next()
		in := wl.Program.Inst(rec.InstID)
		switch {
		case !in.IsBranch():
			if rec.Taken {
				t.Fatal("non-branch marked taken")
			}
		case in.Branch == isa.BranchCond:
			if rec.Taken && rec.Next != in.Target {
				t.Fatal("taken conditional must go to its target")
			}
			if !rec.Taken && rec.Next != in.End() {
				t.Fatal("not-taken conditional must fall through")
			}
		case in.Branch == isa.BranchJump || in.Branch == isa.BranchCall:
			if !rec.Taken || rec.Next != in.Target {
				t.Fatal("direct unconditional must jump to its target")
			}
		default:
			if !rec.Taken {
				t.Fatal("indirect transfer must be taken")
			}
		}
	}
}

func TestWalkerCallStackBalance(t *testing.T) {
	wl := buildNamed(t, "nutch")
	w := NewWalker(wl)
	depth := 0
	maxDepth := 0
	for i := 0; i < 300_000; i++ {
		rec := w.Next()
		in := wl.Program.Inst(rec.InstID)
		switch in.Branch {
		case isa.BranchCall, isa.BranchIndirectCall:
			depth++
		case isa.BranchRet:
			depth--
		}
		if depth > maxDepth {
			maxDepth = depth
		}
		if depth < 0 {
			t.Fatalf("returned more than called at step %d", i)
		}
		if w.Depth() != depth {
			t.Fatalf("walker depth %d != tracked %d", w.Depth(), depth)
		}
	}
	if maxDepth < 1 || maxDepth > 4 {
		t.Errorf("two-level call graph should bound depth in [1,4]: max %d", maxDepth)
	}
}

func TestWalkerMemoryRegions(t *testing.T) {
	wl := buildNamed(t, "redis")
	w := NewWalker(wl)
	var memRefs int
	for i := 0; i < 100_000; i++ {
		rec := w.Next()
		in := wl.Program.Inst(rec.InstID)
		isMem := in.Class == isa.ClassLoad || in.Class == isa.ClassStore || in.Class == isa.ClassLoadOp
		if isMem {
			memRefs++
			if rec.MemAddr < hotBase {
				t.Fatalf("memory address %#x below the data regions", rec.MemAddr)
			}
		} else if rec.MemAddr != 0 {
			t.Fatalf("non-memory instruction carries address %#x", rec.MemAddr)
		}
	}
	if memRefs == 0 {
		t.Fatal("no memory references in 100K instructions")
	}
}

func TestFixedTripLoopsAreStable(t *testing.T) {
	wl := buildNamed(t, "bm_x64")
	w := NewWalker(wl)
	// For each fixed-trip back edge, observed consecutive-taken runs must
	// always equal FixedTrip-1.
	runs := map[uint32]int{}
	for i := 0; i < 400_000; i++ {
		rec := w.Next()
		in := wl.Program.Inst(rec.InstID)
		cb := wl.CondOf(in.ID)
		if cb == nil || cb.Kind != BehLoop || cb.FixedTrip == 0 {
			continue
		}
		if rec.Taken {
			runs[in.ID]++
		} else {
			if got := runs[in.ID] + 1; got != cb.FixedTrip {
				t.Fatalf("loop %d ran %d trips, fixed at %d", in.ID, got, cb.FixedTrip)
			}
			runs[in.ID] = 0
		}
	}
}

func TestProfileValidation(t *testing.T) {
	bad := Profile{Name: "x"}
	if err := bad.validate(); err == nil {
		t.Error("empty profile should fail validation")
	}
	p := *Profiles()[0]
	p.ChaoticFrac = 1.5
	if err := p.validate(); err == nil {
		t.Error("out-of-range chaotic fraction should fail")
	}
}

func TestZipfWeights(t *testing.T) {
	perm := []int{2, 0, 1}
	w := zipfWeights(3, 1.0, perm)
	// rank 1 (perm value 0) gets weight 1; rank 3 gets 1/3.
	if w[1] != 1.0 {
		t.Errorf("w[1] = %v", w[1])
	}
	// perm[0]=2 -> rank 3 -> weight 1/3 (smallest); perm[2]=1 -> rank 2 -> 1/2.
	if w[0] != 1.0/3 || w[2] != 0.5 {
		t.Errorf("weights not ordered by rank: %v", w)
	}
}

// TestStreamStatisticsInBand checks the macro statistics every profile must
// hold for the front-end model to be meaningful: branch density, taken
// rate, memory density, and mean ops per instruction.
func TestStreamStatisticsInBand(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			wl := buildNamed(t, name)
			w := NewWalker(wl)
			var insts, branches, taken, mem, ops, imms uint64
			n := 100_000
			for i := 0; i < n; i++ {
				rec := w.Next()
				in := wl.Program.Inst(rec.InstID)
				insts++
				ops += uint64(in.NumUops)
				imms += uint64(in.ImmDisp)
				if in.IsBranch() {
					branches++
					if rec.Taken {
						taken++
					}
				}
				switch in.Class {
				case isa.ClassLoad, isa.ClassStore, isa.ClassLoadOp:
					mem++
				}
			}
			brDens := float64(branches) / float64(insts)
			if brDens < 0.08 || brDens > 0.40 {
				t.Errorf("branch density = %.3f outside [0.08, 0.40]", brDens)
			}
			takenRate := float64(taken) / float64(branches)
			// Loop-dominated profiles (x264, redis) legitimately run their
			// back edges taken >90% of executions.
			if takenRate < 0.30 || takenRate > 0.99 {
				t.Errorf("taken rate = %.3f outside [0.30, 0.99]", takenRate)
			}
			memDens := float64(mem) / float64(insts)
			if memDens < 0.20 || memDens > 0.55 {
				t.Errorf("memory density = %.3f outside [0.20, 0.55]", memDens)
			}
			opsPerInst := float64(ops) / float64(insts)
			if opsPerInst < 0.95 || opsPerInst > 1.4 {
				t.Errorf("ops/inst = %.3f outside [0.95, 1.4]", opsPerInst)
			}
			immPerInst := float64(imms) / float64(insts)
			if immPerInst > 0.8 {
				t.Errorf("imm fields/inst = %.3f too high", immPerInst)
			}
		})
	}
}
