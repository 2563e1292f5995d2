package pipeline

import (
	"fmt"

	"uopsim/internal/bpred"
	"uopsim/internal/fetch"
	"uopsim/internal/isa"
	"uopsim/internal/loopcache"
	"uopsim/internal/stats"
	"uopsim/internal/uopq"
)

// counters are the pipeline-owned raw observables; Metrics derives the
// paper's figures from snapshots of these.
type counters struct {
	uopsOC, uopsIC, uopsLC stats.Counter
	insts                  stats.Counter // correct-path instructions dispatched
	branches               stats.Counter // correct-path branches consumed
	mispredicts            stats.Counter
	mispLatSum             stats.Counter
	decRedirects           stats.Counter
	resyncs                stats.Counter
	decodedInsts           stats.Counter
	wrongPathDecoded       stats.Counter
	dispatchStallWP        stats.Counter // cycles dispatch stalled on a wrong-path head

	// Mispredict composition diagnostics.
	mispCondPredicted stats.Counter // TAGE got the direction wrong
	mispCondUnknown   stats.Counter // BTB-unknown conditional that was taken
	mispRet           stats.Counter
	mispIndirect      stats.Counter
	mispOther         stats.Counter

	// Dispatch stall composition (first blocked slot per cycle).
	stallEmptyUQ stats.Counter
	stallBackend stats.Counter
	robOccSum    stats.Counter

	// Mispredict latency decomposition.
	mispFetchToDisp stats.Counter
	mispDispToDone  stats.Counter

	// PW absorption diagnostics (entry overshoot swallowing windows).
	absorbedPWs   stats.Counter
	absorbedConds stats.Counter
}

// register publishes the pipeline-owned counters under paths grouped by the
// stage that owns them.
func (m *counters) register(r *stats.Registry) {
	disp := r.Scope("dispatch")
	disp.RegisterCounter("uops.oc", &m.uopsOC)
	disp.RegisterCounter("uops.ic", &m.uopsIC)
	disp.RegisterCounter("uops.lc", &m.uopsLC)
	disp.RegisterCounter("insts", &m.insts)
	disp.RegisterCounter("stall.wrongpath", &m.dispatchStallWP)

	f := r.Scope("fetch")
	f.RegisterCounter("branches", &m.branches)
	f.RegisterCounter("redirects.decode", &m.decRedirects)
	f.RegisterCounter("resyncs", &m.resyncs)
	f.RegisterCounter("pw.absorbed", &m.absorbedPWs)
	f.RegisterCounter("pw.absorbed_conds", &m.absorbedConds)

	bpu := r.Scope("bpu")
	bpu.RegisterCounter("mispredicts", &m.mispredicts)
	misp := bpu.Scope("misp")
	misp.RegisterCounter("latsum", &m.mispLatSum)
	misp.RegisterCounter("cond_predicted", &m.mispCondPredicted)
	misp.RegisterCounter("cond_unknown", &m.mispCondUnknown)
	misp.RegisterCounter("ret", &m.mispRet)
	misp.RegisterCounter("indirect", &m.mispIndirect)
	misp.RegisterCounter("other", &m.mispOther)
	misp.RegisterCounter("lat.fetch_to_disp", &m.mispFetchToDisp)
	misp.RegisterCounter("lat.disp_to_done", &m.mispDispToDone)

	dec := r.Scope("decode")
	dec.RegisterCounter("insts", &m.decodedInsts)
	dec.RegisterCounter("insts.wrongpath", &m.wrongPathDecoded)

	be := r.Scope("backend")
	be.RegisterCounter("rob.stalls", &m.stallBackend)
	be.RegisterCounter("rob.occ_sum", &m.robOccSum)
	r.RegisterCounter("uopq.empty.stalls", &m.stallEmptyUQ)
}

// step advances the machine one cycle. It runs once per simulated cycle
// for every design point, so it must stay allocation-free (see
// TestCycleLoopAllocLean).
//
//uopvet:hotpath
func (s *Sim) step() {
	c := s.cycle
	s.be.Tick(c)
	s.be.Commit(c)
	s.fireExecRedirect(c)
	nd := s.dispatch(c)
	s.drain(c)
	s.fetchStep(c)
	s.bpuStep(c)
	if s.obs != nil {
		if nd > 0 {
			s.obs.Event(Event{Cycle: c, Kind: EvDispatch, A: int32(nd)})
		}
		s.obs.EndCycle(c, Occupancy{
			PWQueue:  s.pwCount,
			UopQueue: s.uq.Len(),
			ROB:      s.be.ROBOccupancy(),
			OCPipe:   s.ocPipe.Len(),
			DCPipe:   s.dcPipe.Len(),
			LCPipe:   s.lcPipe.Len(),
		})
	}
	s.cycle++
}

func (s *Sim) fireExecRedirect(c int64) {
	if !s.redirectPending || c < s.redirect.fire {
		return
	}
	s.m.mispLatSum.Add(uint64(s.redirect.fire - s.redirect.fetchCycle))
	s.flushFrontEnd(c, s.redirect.target, true)
}

// dispatch moves up to DispatchWidth uops from the queue to the back end
// and returns how many it dispatched.
func (s *Sim) dispatch(c int64) int {
	s.m.robOccSum.Add(uint64(s.be.ROBOccupancy()))
	for n := 0; n < s.cfg.DispatchWidth; n++ {
		u, ok := s.uq.Peek()
		if !ok {
			if n == 0 {
				s.m.stallEmptyUQ.Inc()
			}
			return n
		}
		if u.WrongPath {
			// The back end has nothing architectural to do until the
			// pending redirect resolves; wrong-path uops are squashed then.
			s.m.dispatchStallWP.Inc()
			return n
		}
		if !s.be.CanDispatch() {
			if n == 0 {
				s.m.stallBackend.Inc()
			}
			return n
		}
		s.uq.Pop()
		done := s.be.Dispatch(c, u)
		switch u.Source {
		case uopq.SrcUopCache:
			s.m.uopsOC.Inc()
		case uopq.SrcDecoder:
			s.m.uopsIC.Inc()
		case uopq.SrcLoopCache:
			s.m.uopsLC.Inc()
		}
		if u.LastOfInst {
			s.m.insts.Inc()
			if u.Mispredicted {
				if s.redirectPending {
					panic("pipeline: overlapping mispredict redirects")
				}
				s.redirect = pendingRedirect{fire: done + 1, target: u.ActualNext, fetchCycle: u.FetchCycle}
				s.redirectPending = true
				s.m.mispFetchToDisp.Add(uint64(c - u.FetchCycle))
				s.m.mispDispToDone.Add(uint64(done - c))
			}
		}
	}
	return s.cfg.DispatchWidth
}

// drain moves completed items from the three supply pipes into the uop queue
// in global fetch (sequence) order.
func (s *Sim) drain(c int64) {
	popsDC, popsOC, popsLC := 0, 0, 0
	for {
		if popsOC < 1 {
			if g, ok := s.ocPipe.PeekReady(c); ok && g.items[0].seq == s.nextPopSeq {
				if s.uq.Free() < g.uops {
					return
				}
				s.ocPipe.PopReady(c)
				popsOC++
				fired := s.popGroup(c, g)
				s.putItems(g.items)
				if fired {
					return // redirect fired
				}
				continue
			}
		}
		if popsLC < 1 {
			if g, ok := s.lcPipe.PeekReady(c); ok && g.items[0].seq == s.nextPopSeq {
				if s.uq.Free() < g.uops {
					return
				}
				s.lcPipe.PopReady(c)
				popsLC++
				fired := s.popGroup(c, g)
				s.putItems(g.items)
				if fired {
					return
				}
				continue
			}
		}
		if popsDC < s.cfg.DecodeWidth {
			if it, ok := s.dcPipe.PeekReady(c); ok && it.seq == s.nextPopSeq {
				if s.uq.Free() < int(it.inst.NumUops) {
					return
				}
				s.dcPipe.PopReady(c)
				popsDC++
				s.dec.NoteDecode(c, 1, int(it.inst.NumUops))
				s.m.decodedInsts.Inc()
				if !it.correct {
					s.m.wrongPathDecoded.Inc()
				}
				s.ocb.Add(it.inst, it.pwID, it.pwInstance, it.pwEndTaken)
				s.pushUops(it)
				s.nextPopSeq = it.seq + 1
				if it.decRedirect {
					s.ocb.TerminateTaken()
					s.m.decRedirects.Inc()
					s.flushFrontEnd(c, it.rec.Next, false)
					return
				}
				continue
			}
		}
		return
	}
}

// popGroup pushes a group's uops and handles an embedded decode-style
// redirect (BTB-unknown direct jump read out of the uop or loop cache). It
// reports whether a redirect fired.
func (s *Sim) popGroup(c int64, g fGroup) bool {
	for _, it := range g.items {
		s.pushUops(it)
		s.nextPopSeq = it.seq + 1
		if it.decRedirect {
			s.m.decRedirects.Inc()
			s.flushFrontEnd(c, it.rec.Next, false)
			return true
		}
	}
	return false
}

func (s *Sim) pushUops(it fItem) {
	n := int(it.inst.NumUops)
	for i := 0; i < n; i++ {
		u := uopq.Uop{
			Inst:       it.inst,
			UopIdx:     uint8(i),
			LastOfInst: i == n-1,
			Source:     it.src,
			FetchCycle: it.fetchCycle,
			WrongPath:  !it.correct,
		}
		if it.correct {
			u.MemAddr = it.rec.MemAddr
			if u.LastOfInst && it.inst.IsBranch() {
				u.ActualTaken = it.rec.Taken
				u.ActualNext = it.rec.Next
				u.Mispredicted = it.misp
			}
		}
		if !s.uq.Push(u) {
			panic("pipeline: uop queue overflow (space was checked)")
		}
	}
}

// flushFrontEnd redirects fetch to target. flushUQ distinguishes a full
// misprediction recovery (uop queue + accumulation buffer discarded) from a
// decode-time redirect (younger fetch state only).
func (s *Sim) flushFrontEnd(c int64, target uint64, flushUQ bool) {
	if s.obs != nil {
		misp := int32(0)
		if flushUQ {
			misp = 1
		}
		s.obs.Event(Event{Cycle: c, Kind: EvRedirect, Addr: target, A: misp})
	}
	s.ocPipe.Flush(s.putGroup)
	s.dcPipe.Flush(nil)
	s.lcPipe.Flush(s.putGroup)
	if flushUQ {
		s.uq.Flush()
		s.ocb.Flush()
	}
	s.pred.Redirect()
	s.pwClear()
	s.pw = nil
	s.lcRemaining = s.lcRemaining[:0]
	s.lcHead = 0
	s.bpuPC, s.fetchAddr, s.curAddr = target, target, target
	s.wrongPath = false
	s.nextPopSeq = s.seq
	s.fetchStall = c + 1
	s.bpuStall = c + 1
	s.lastICLine = ^uint64(0)
	s.redirectPending = false
}

func (s *Sim) fetchStep(c int64) {
	if s.fetchStall > c {
		return
	}
	if s.pw == nil && !s.acquirePW(c) {
		return
	}
	switch s.pwMode {
	case modeLC:
		s.lcStep(c)
	case modeOC:
		s.ocStep(c)
	case modeIC:
		s.icStep(c)
	}
}

func (s *Sim) acquirePW(c int64) bool {
	for s.pwCount > 0 {
		pw := s.pwAt(0)
		if s.fetchAddr > pw.Start {
			// A previous uop cache entry overshot this window (sequential
			// flow absorbed by a multi-PW entry).
			if pw.EndsTaken && pw.TakenPC < s.fetchAddr {
				// The overshoot swallowed this window's predicted taken
				// branch: the BPU speculated down a path the uop cache
				// contradicted. Re-steer the BPU from the entry end.
				s.resync(c)
				return false
			}
			if !pw.EndsTaken && s.fetchAddr >= pw.End {
				s.m.absorbedPWs.Inc()
				s.m.absorbedConds.Add(uint64(len(pw.Conds)))
				s.pwPopN(1)
				continue // window fully absorbed
			}
		}
		s.setCur(pw)
		s.pwPopN(1)
		s.curAddr = s.pwCur.Start
		if s.fetchAddr > s.curAddr {
			s.curAddr = s.fetchAddr
		}
		s.pwFromOC = false
		if loop, ok := s.lc.Lookup(s.curAddr); ok && s.pwCur.EndsTaken && s.pwCur.TakenPC == loop.BranchPC {
			s.setMode(c, modeLC)
			s.prepareLC(c, loop)
		} else {
			s.setMode(c, modeOC)
		}
		return true
	}
	return false
}

func (s *Sim) resync(c int64) {
	s.m.resyncs.Inc()
	if s.obs != nil {
		s.obs.Event(Event{Cycle: c, Kind: EvResync, Addr: s.fetchAddr})
	}
	s.pwClear()
	s.pw = nil
	s.bpuPC = s.fetchAddr
	s.fetchStall = c + 1
	s.bpuStall = c + 1
}

// ocStep dispatches one uop cache entry per cycle. An entry can cover uops
// from several sequential prediction windows (§II-B2); the emission walks a
// cursor over the current window plus queued sequential successors so that
// branches inside the overshoot region use their own windows' predictions.
func (s *Sim) ocStep(c int64) {
	if !s.ocPipe.CanPush(c) {
		return
	}
	// entry stays valid for this cycle only: the next fill may recycle it.
	entry, hit := s.oc.Lookup(s.curAddr)
	if !hit {
		s.setMode(c, modeIC)
		if s.cfg.OCSwitchPenalty > 0 {
			// Resume fetching OCSwitchPenalty bubble cycles from now.
			s.fetchStall = c + 1 + int64(s.cfg.OCSwitchPenalty)
		}
		return
	}
	s.pwFromOC = true

	g := fGroup{items: s.getItems()}
	cur := s.pw
	consumed := 0 // PWs taken from the queue beyond s.pw
	finishedTaken := false
	outOfGuidance := false
	for _, id := range entry.InstIDs() {
		in := s.prog.Inst(id)
		if in.Addr < s.curAddr {
			continue
		}
		// Advance the window cursor across sequential window boundaries.
		for cur != nil && !cur.EndsTaken && in.Addr >= cur.End {
			if consumed < s.pwCount && s.pwAt(consumed).Start == cur.End {
				cur = s.pwAt(consumed)
				consumed++
			} else {
				cur = nil
			}
		}
		if cur == nil {
			outOfGuidance = true
			break // the BPU has not speculated this far yet
		}
		if cur.EndsTaken && in.Addr > cur.TakenPC {
			break // drop uops past the window's predicted taken branch
		}
		it := s.makeItem(c, in, uopq.SrcUopCache, cur)
		g.items = append(g.items, it)
		g.uops += int(in.NumUops)
		if cur.EndsTaken && in.Addr == cur.TakenPC {
			finishedTaken = true
			break
		}
	}
	if len(g.items) == 0 {
		s.putItems(g.items)
		s.setMode(c, modeIC)
		return
	}
	s.ocPipe.Push(c, g)
	end := g.items[len(g.items)-1].inst.End()

	// Commit cursor state: windows strictly before cur are fully fetched.
	if consumed > 0 {
		s.setCur(s.pwAt(consumed - 1))
		s.pwPopN(consumed)
	}
	cur2 := s.pw // cur aliases either old s.pw or the new copy's original slot
	switch {
	case finishedTaken:
		s.finishPW(cur2.NextPC)
	case outOfGuidance || end >= cur2.End:
		// Sequential completion of every covered window (a trailing
		// straddling instruction may push end past the line boundary).
		s.finishPW(end)
	default:
		s.curAddr = end // same window continues next cycle (§II-B3)
	}
}

func (s *Sim) icStep(c int64) {
	budget := s.cfg.ICFetchBytes
	pw := s.pw
	for budget > 0 {
		if !s.dcPipe.CanPush(c) {
			return
		}
		in := s.prog.At(s.curAddr)
		if in == nil {
			// Wrong-path fetch ran off the instruction map; idle until the
			// pending redirect arrives.
			s.fetchStall = c + 1
			return
		}
		line := s.curAddr &^ 63
		if line != s.lastICLine {
			lat := s.hier.FetchInst(line)
			s.lastICLine = line
			if lat > 0 {
				s.fetchStall = c + 1 + int64(lat) // lat bubble cycles
				return
			}
		}
		it := s.makeItem(c, in, uopq.SrcDecoder, pw)
		s.dcPipe.Push(c, it)
		budget -= int(in.Len)
		s.curAddr = in.End()
		if pw.EndsTaken && in.Addr == pw.TakenPC {
			s.finishPW(pw.NextPC)
			return
		}
		if s.curAddr >= pw.End {
			s.finishPW(s.curAddr)
			return
		}
	}
}

func (s *Sim) prepareLC(c int64, loop *loopcache.Loop) {
	pw := s.pw
	s.lcRemaining = s.lcRemaining[:0]
	s.lcHead = 0
	for _, id := range loop.InstIDs {
		in := s.prog.Inst(id)
		s.lcRemaining = append(s.lcRemaining, s.makeItem(c, in, uopq.SrcLoopCache, pw))
	}
}

func (s *Sim) lcStep(c int64) {
	if !s.lcPipe.CanPush(c) {
		return
	}
	g := fGroup{items: s.getItems()}
	for s.lcHead < len(s.lcRemaining) {
		it := s.lcRemaining[s.lcHead]
		if g.uops+int(it.inst.NumUops) > 8 && len(g.items) > 0 {
			break
		}
		it.fetchCycle = c
		g.items = append(g.items, it)
		g.uops += int(it.inst.NumUops)
		s.lcHead++
	}
	if len(g.items) == 0 {
		s.putItems(g.items)
		s.setMode(c, modeOC) // defensive: empty loop body
		return
	}
	s.lc.NoteServed(g.uops)
	s.lcPipe.Push(c, g)
	if s.lcHead == len(s.lcRemaining) {
		s.finishPW(s.pw.NextPC)
	}
}

func (s *Sim) finishPW(next uint64) {
	pw := s.pw
	if pw.EndsTaken && pw.TerminalKind == isa.BranchCond && pw.NextPC == pw.Start && next == pw.NextPC {
		if s.lc.ObserveBackwardTaken(pw.TakenPC, pw.NextPC) {
			s.captureLoop(pw)
		}
	} else {
		s.lc.ObserveOther()
	}
	s.fetchAddr = next
	s.pw = nil
}

// captureLoop statically extracts the straight-line body [pw.Start,
// pw.TakenPC] and installs it into the loop cache when eligible.
func (s *Sim) captureLoop(pw *fetch.PW) { s.captureLoopAt(pw.Start, pw.TakenPC) }

// captureLoopAt is the window-free form: the sampled-run warming path
// drives it from the architectural stream, where no PW exists. The body is
// gathered in the Sim's loopIDs scratch; Install copies it.
//
//uopvet:hotpath
func (s *Sim) captureLoopAt(start, takenPC uint64) {
	s.loopIDs = s.loopIDs[:0]
	uops := 0
	addr := start
	for {
		in := s.prog.At(addr)
		if in == nil {
			return
		}
		s.loopIDs = append(s.loopIDs, in.ID)
		uops += int(in.NumUops)
		if uops > s.lc.MaxUops() {
			return
		}
		if in.Addr == takenPC {
			break
		}
		if in.IsBranch() {
			return // interior control flow: not a loop-buffer loop
		}
		addr = in.End()
	}
	s.lc.Install(loopcache.Loop{Start: start, BranchPC: takenPC, InstIDs: s.loopIDs, NumUops: uops})
}

func (s *Sim) bpuStep(c int64) {
	if s.bpuStall > c || s.pwCount >= s.cfg.PWQueueSize {
		return
	}
	pw := s.pwAt(s.pwCount) // the free slot behind the queue tail
	s.pwb.Build(pw, s.bpuPC)
	s.pwCount++
	if pw.Penalty > 0 {
		s.bpuStall = c + int64(pw.Penalty)
	}
	s.hier.PrefetchInst(pw.Start)
	if s.obs != nil {
		taken := int32(0)
		if pw.EndsTaken {
			taken = 1
		}
		s.obs.Event(Event{Cycle: c, Kind: EvWindowEnqueued, Addr: pw.Start, A: int32(len(pw.Conds)), B: taken})
	}
	s.bpuPC = pw.NextPC
}

// makeItem stamps one fetched instruction: sequence number, prediction
// context, oracle matching, correct-path training and divergence detection.
func (s *Sim) makeItem(c int64, in *isa.Inst, src uopq.Source, pw *fetch.PW) fItem {
	it := fItem{
		seq:        s.seq,
		inst:       in,
		fetchCycle: c,
		src:        src,
		pwID:       pw.ID,
		pwInstance: pw.Instance,
	}
	s.seq++

	predicted := false
	var condPred bpred.Pred
	if in.IsBranch() {
		if pw.EndsTaken && in.Addr == pw.TakenPC {
			it.predictedNext = pw.NextPC
			it.pwEndTaken = true
			predicted = true
			if in.Branch == isa.BranchCond {
				if ca := findCond(pw, in.Addr); ca != nil {
					condPred = ca.Pred
				} else {
					predicted = false
				}
			}
		} else {
			it.predictedNext = in.End() // predicted (or implicit) not-taken
			if in.Branch == isa.BranchCond {
				if ca := findCond(pw, in.Addr); ca != nil {
					predicted = true
					condPred = ca.Pred
				}
			}
		}
	} else {
		it.predictedNext = in.End()
	}

	if !s.wrongPath && in.Addr == s.nextOraclePC && s.orHead.InstID == in.ID {
		it.correct = true
		it.rec = s.orHead
		s.orHead = s.walker.Next()
		s.nextOraclePC = it.rec.Next
		if s.OnConsume != nil {
			s.OnConsume(it.rec)
		}
		s.consumeCorrect(&it, predicted, condPred)
	}
	return it
}

func findCond(pw *fetch.PW, pc uint64) *fetch.CondAt {
	for i := range pw.Conds {
		if pw.Conds[i].PC == pc {
			return &pw.Conds[i]
		}
	}
	return nil
}

// consumeCorrect trains the predictors with the architectural outcome and
// classifies divergences (misprediction vs decode-time redirect).
func (s *Sim) consumeCorrect(it *fItem, predicted bool, condPred bpred.Pred) {
	in := it.inst
	if !in.IsBranch() {
		return
	}
	s.m.branches.Inc()
	rec := it.rec

	switch in.Branch {
	case isa.BranchCall, isa.BranchIndirectCall:
		s.pred.ArchCall(in.End())
	case isa.BranchRet:
		s.pred.ArchRet()
	}

	switch in.Branch {
	case isa.BranchCond:
		if predicted {
			s.pred.UpdateCond(in.Addr, condPred, rec.Taken)
			s.pred.ArchShift(rec.Taken)
			if rec.Taken {
				s.pred.TrainTarget(in.Addr, in.Branch, in.Target, in.Len)
			}
		} else if rec.Taken {
			// Discovered: enters the BTB so future windows predict it.
			s.pred.TrainTarget(in.Addr, in.Branch, in.Target, in.Len)
		}
	case isa.BranchJump, isa.BranchCall:
		s.pred.TrainTarget(in.Addr, in.Branch, in.Target, in.Len)
		if predicted {
			s.pred.ArchShift(true)
		}
	case isa.BranchRet:
		s.pred.TrainTarget(in.Addr, in.Branch, 0, in.Len)
		if predicted {
			s.pred.ArchShift(true)
		}
	case isa.BranchIndirect, isa.BranchIndirectCall:
		s.pred.TrainTarget(in.Addr, in.Branch, rec.Next, in.Len)
		if predicted {
			s.pred.ArchShift(true)
		}
	}

	if it.predictedNext != rec.Next {
		s.wrongPath = true
		if (in.Branch == isa.BranchJump || in.Branch == isa.BranchCall) && !predicted {
			// The decoder (or uop cache read-out) identifies a direct
			// unconditional transfer and redirects without executing it.
			it.decRedirect = true
		} else {
			it.misp = true
			s.m.mispredicts.Inc()
			switch {
			case in.Branch == isa.BranchCond && predicted:
				s.m.mispCondPredicted.Inc()
			case in.Branch == isa.BranchCond:
				s.m.mispCondUnknown.Inc()
			case in.Branch == isa.BranchRet:
				s.m.mispRet.Inc()
				s.pred.NoteTargetMiss()
			case in.Branch.IsIndirect():
				s.m.mispIndirect.Inc()
				s.pred.NoteTargetMiss()
			default:
				s.m.mispOther.Inc()
				s.pred.NoteTargetMiss()
			}
		}
	}
}

// Run advances the simulation until n correct-path instructions have been
// dispatched, with a generous cycle bound to catch livelock bugs. The
// walker's stream never ends, so Run has no other way out.
func (s *Sim) Run(n uint64) error {
	s.live()
	target := s.m.insts.Value() + n
	bound := s.cycle + int64(n)*200 + 1_000_000
	for s.m.insts.Value() < target {
		if s.cycle > bound {
			return fmt.Errorf("pipeline: exceeded cycle bound at %d insts of %d (livelock?)", s.m.insts.Value(), target)
		}
		s.step()
	}
	return nil
}
