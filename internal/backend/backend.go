// Package backend models the out-of-order engine of Table I at the fidelity
// the paper's front-end study needs: a 256-entry ROB, a 160-entry issue
// window, execution ports with class latencies (loads probing the cache
// hierarchy), register dependences via a ready-time scoreboard, and 8-wide
// in-order commit. Wrong-path uops are never dispatched (dispatch stalls at
// an unresolved misprediction), so a redirect needs no ROB repair.
package backend

import (
	"uopsim/internal/isa"
	"uopsim/internal/mem"
	"uopsim/internal/reuse"
	"uopsim/internal/stats"
	"uopsim/internal/uopq"
)

// Config sizes the back end (Table I).
type Config struct {
	ROBSize     int // 256
	IQSize      int // 160 (modeled as max dispatched-but-incomplete uops)
	RetireWidth int // 8
	ALUPorts    int
	MemPorts    int
	FPPorts     int
}

// DefaultConfig mirrors Table I with a Zen-like 4 ALU + 3 AGU + 2 FP port
// split (memory uops are ~a third of the dispatch stream; two AGUs would
// saturate below the 6-wide dispatch rate).
func DefaultConfig() Config {
	return Config{ROBSize: 256, IQSize: 160, RetireWidth: 8, ALUPorts: 4, MemPorts: 3, FPPorts: 2}
}

type robEntry struct {
	done       int64
	uops       uint8 // this entry stands for one uop
	isBranch   bool
	fetchCycle int64
}

// Backend executes dispatched uops.
type Backend struct {
	cfg  Config
	hier *mem.Hierarchy

	rob     []robEntry
	robHead int
	robLen  int

	regReady   [isa.NumRegs]int64
	flagsReady int64

	// Port occupancy rings: use[cycle % ring] counts uops issued on that
	// kind's ports in that cycle. A uop issues at the first cycle at or
	// after its operands are ready with spare port capacity — late-ready
	// uops do not block earlier-ready ones (out-of-order issue).
	aluUse, memUse, fpUse []uint8
	aluN, memN, fpN       uint8

	inFlight    int
	inFlightDec []int // completion ring, indexed by cycle % len

	lastInst    *isa.Inst
	lastUopDone int64

	retiredUops stats.Counter

	// Latency accounting (diagnostics): dispatch-to-complete sums by cause.
	latSum, latDep, latPort, latN stats.Counter
}

// RegisterMetrics publishes the backend's counters under sc (expected mount
// point: "backend").
func (b *Backend) RegisterMetrics(sc stats.Scope) {
	sc.RegisterCounter("uops.retired", &b.retiredUops)
	lat := sc.Scope("lat")
	lat.RegisterCounter("sum", &b.latSum)
	lat.RegisterCounter("dep", &b.latDep)
	lat.RegisterCounter("port", &b.latPort)
	lat.RegisterCounter("uops", &b.latN)
}

// LatencyProfile returns (avg dispatch->done, avg dep wait, avg port wait).
func (b *Backend) LatencyProfile() (avg, dep, port float64) {
	if b.latN.Value() == 0 {
		return 0, 0, 0
	}
	n := float64(b.latN.Value())
	return float64(b.latSum.Value()) / n, float64(b.latDep.Value()) / n, float64(b.latPort.Value()) / n
}

const decRingSize = 2048 // must exceed the longest possible uop latency chain

// New builds a backend over the given memory hierarchy.
func New(cfg Config, hier *mem.Hierarchy) *Backend {
	b := &Backend{}
	b.Reset(cfg, hier)
	return b
}

// Reset empties b into the backend New(cfg, hier) builds, reusing its ROB
// and port rings when their sizes match. It panics on the same invalid
// configurations as New.
func (b *Backend) Reset(cfg Config, hier *mem.Hierarchy) {
	if cfg.ROBSize < 1 || cfg.RetireWidth < 1 {
		panic("backend: invalid config")
	}
	*b = Backend{
		cfg:         cfg,
		hier:        hier,
		rob:         reuse.Slice(b.rob, cfg.ROBSize),
		aluUse:      reuse.Slice(b.aluUse, decRingSize),
		memUse:      reuse.Slice(b.memUse, decRingSize),
		fpUse:       reuse.Slice(b.fpUse, decRingSize),
		aluN:        uint8(max(1, cfg.ALUPorts)),
		memN:        uint8(max(1, cfg.MemPorts)),
		fpN:         uint8(max(1, cfg.FPPorts)),
		inFlightDec: reuse.Slice(b.inFlightDec, decRingSize),
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// CanDispatch reports whether one more uop can enter at the given cycle.
func (b *Backend) CanDispatch() bool {
	return b.robLen < b.cfg.ROBSize && b.inFlight < b.cfg.IQSize
}

// Dispatch enters a correct-path uop at cycle and returns its completion
// (branch resolution) cycle. Callers must check CanDispatch.
func (b *Backend) Dispatch(cycle int64, u uopq.Uop) int64 {
	if !b.CanDispatch() {
		panic("backend: dispatch without capacity")
	}
	in := u.Inst

	// Source readiness from the scoreboard; intra-instruction uops chain on
	// the instruction's previous uop (load-op, store addr/data, microcode).
	// Conditional branches read the flags register, which the most recent
	// flag-writing ALU op produced (x86 semantics); this is what makes
	// branch resolution fast in real code.
	ready := cycle + 1
	if in.Class == isa.ClassBranch {
		if in.Branch == isa.BranchCond && b.flagsReady > ready {
			ready = b.flagsReady
		}
	} else {
		if in.Src1 != isa.RegNone && b.regReady[in.Src1] > ready {
			ready = b.regReady[in.Src1]
		}
		if in.Src2 != isa.RegNone && b.regReady[in.Src2] > ready {
			ready = b.regReady[in.Src2]
		}
	}
	if u.UopIdx > 0 && in == b.lastInst && b.lastUopDone > ready {
		ready = b.lastUopDone
	}

	use, n, lat, busy := b.classify(&u)
	issue := b.reservePort(use, n, ready, int64(busy))
	b.latDep.Add(uint64(ready - (cycle + 1)))
	b.latPort.Add(uint64(issue - ready))
	b.latSum.Add(uint64(issue + int64(lat) - cycle))
	b.latN.Inc()
	done := issue + int64(lat)

	if in.Dest != isa.RegNone && u.LastOfInst {
		b.regReady[in.Dest] = done
	}
	if u.LastOfInst {
		switch in.Class {
		case isa.ClassALU, isa.ClassMul, isa.ClassLoadOp:
			b.flagsReady = done
		}
	}
	b.lastInst = in
	b.lastUopDone = done

	tail := (b.robHead + b.robLen) % len(b.rob)
	b.rob[tail] = robEntry{done: done, uops: 1, isBranch: in.IsBranch(), fetchCycle: u.FetchCycle}
	b.robLen++

	b.inFlight++
	span := done - cycle
	if span >= decRingSize {
		span = decRingSize - 1
	}
	b.inFlightDec[(cycle+span)%decRingSize]++

	return done
}

// classify maps a uop to its port pool, latency and issue occupancy (busy
// cycles the port cannot accept another uop; 1 for pipelined units).
func (b *Backend) classify(u *uopq.Uop) (use []uint8, n uint8, lat, busy int) {
	in := u.Inst
	switch in.Class {
	case isa.ClassLoad:
		return b.memUse, b.memN, isa.ExecLatency(in.Class) + b.hier.Load(u.MemAddr), 1
	case isa.ClassLoadOp:
		if u.UopIdx == 0 {
			return b.memUse, b.memN, isa.ExecLatency(isa.ClassLoad) + b.hier.Load(u.MemAddr), 1
		}
		return b.aluUse, b.aluN, isa.ExecLatency(isa.ClassALU), 1
	case isa.ClassStore:
		if u.UopIdx == 0 {
			b.hier.Store(u.MemAddr)
			return b.memUse, b.memN, 1, 1
		}
		return b.aluUse, b.aluN, 1, 1
	case isa.ClassDiv:
		return b.aluUse, b.aluN, isa.ExecLatency(in.Class), isa.ExecLatency(in.Class)
	case isa.ClassFP:
		return b.fpUse, b.fpN, isa.ExecLatency(in.Class), 1
	case isa.ClassFPDiv:
		return b.fpUse, b.fpN, isa.ExecLatency(in.Class), isa.ExecLatency(in.Class)
	default:
		return b.aluUse, b.aluN, isa.ExecLatency(in.Class), 1
	}
}

// reservePort finds the first cycle at or after ready with spare capacity on
// the port pool and marks it busy for busy cycles. The occupancy ring wraps;
// entries are cleared lazily by Tick.
func (b *Backend) reservePort(use []uint8, n uint8, ready, busy int64) int64 {
	issue := ready
	limit := ready + decRingSize/2 // safety bound well past any real backlog
	for issue < limit {
		ok := true
		for c := issue; c < issue+busy; c++ {
			if use[c%decRingSize] >= n {
				ok = false
				issue = c + 1
				break
			}
		}
		if ok {
			for c := issue; c < issue+busy; c++ {
				use[c%decRingSize]++
			}
			return issue
		}
	}
	return limit
}

// Tick advances per-cycle bookkeeping (issue-window drain and port-ring
// hygiene). Call once per cycle before dispatching.
func (b *Backend) Tick(cycle int64) {
	idx := cycle % decRingSize
	b.inFlight -= b.inFlightDec[idx]
	b.inFlightDec[idx] = 0
	if b.inFlight < 0 {
		b.inFlight = 0
	}
	// The slot for the cycle that just became "past" can never be reserved
	// again until the ring wraps; clear it now so it is fresh when it does.
	past := (cycle - 1 + decRingSize) % decRingSize
	b.aluUse[past] = 0
	b.memUse[past] = 0
	b.fpUse[past] = 0
}

// Commit retires up to RetireWidth completed uops in order and returns how
// many retired this cycle.
func (b *Backend) Commit(cycle int64) int {
	n := 0
	for n < b.cfg.RetireWidth && b.robLen > 0 {
		e := &b.rob[b.robHead]
		if e.done > cycle {
			break
		}
		b.robHead = (b.robHead + 1) % len(b.rob)
		b.robLen--
		b.retiredUops.Inc()
		n++
	}
	return n
}

// ROBOccupancy returns the current ROB fill (diagnostics).
func (b *Backend) ROBOccupancy() int { return b.robLen }

// RetiredUops returns the committed uop count.
func (b *Backend) RetiredUops() uint64 { return b.retiredUops.Value() }
