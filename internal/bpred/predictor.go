package bpred

import (
	"uopsim/internal/isa"
	"uopsim/internal/stats"
)

// Predictor bundles the direction predictor, BTB, RAS and indirect target
// predictor behind the two views the pipeline needs: a speculative view used
// while fetching (possibly down the wrong path) and an architectural view
// trained in correct-path program order.
type Predictor struct {
	Tage *Tage
	BTB  *BTB
	RAS  *RAS
	ITP  *ITP

	spec *History
	arch *History

	condLookups stats.Counter
	condMiss    stats.Counter
	targetMiss  stats.Counter

	// Shadow is an optional reference predictor trained with immediate
	// predict+update on the consumed branch sequence; it isolates timing
	// effects from table effects in accuracy debugging.
	Shadow     *Tage
	shadowMiss stats.Counter
}

// RegisterMetrics publishes the predictor's counters under sc (expected
// mount point: "bpu").
func (p *Predictor) RegisterMetrics(sc stats.Scope) {
	tage := sc.Scope("tage")
	tage.RegisterCounter("lookups", &p.condLookups)
	tage.RegisterCounter("mispredicts", &p.condMiss)
	sc.RegisterCounter("target.mispredicts", &p.targetMiss)
	sc.RegisterCounter("shadow.mispredicts", &p.shadowMiss)
}

// New builds a predictor with the default Table I geometry.
func New() *Predictor {
	p := &Predictor{}
	p.Reset()
	return p
}

// Reset returns p to the untrained state New builds: every table is
// cleared in place (allocated only when p has none yet), the counters are
// zeroed and any Shadow predictor is dropped.
func (p *Predictor) Reset() {
	*p = Predictor{
		Tage: orNew(p.Tage),
		BTB:  orNew(p.BTB),
		RAS:  orNew(p.RAS),
		ITP:  orNew(p.ITP),
		spec: orNew(p.spec),
		arch: orNew(p.arch),
	}
	p.Tage.reset()
	p.BTB.reset()
	p.RAS.reset()
	p.ITP.reset()
	p.spec.reset()
	p.arch.reset()
}

// orNew returns v, or a new zero T when v is nil.
func orNew[T any](v *T) *T {
	if v == nil {
		return new(T)
	}
	return v
}

// FindBranch consults the BTB for the first known branch in the 64B line at
// lineAddr at or after byte offset minOffset (speculative fetch side).
func (p *Predictor) FindBranch(lineAddr uint64, minOffset int) (BTBBranch, int, bool) {
	return p.BTB.Lookup(lineAddr, minOffset)
}

// PredictCond predicts the direction of the conditional branch at pc into
// pred, using speculative history.
func (p *Predictor) PredictCond(pred *Pred, pc uint64) {
	p.Tage.Predict(pred, pc, p.spec)
}

// PredictTarget predicts the target of the branch at pc given its BTB record
// (speculative fetch side). For returns it pops the speculative RAS; for
// indirect branches it consults the ITP with BTB fallback; for direct
// branches the BTB target is authoritative.
func (p *Predictor) PredictTarget(pc uint64, br BTBBranch) (uint64, bool) {
	switch br.Kind {
	case isa.BranchRet:
		if t, ok := p.RAS.SpecPop(); ok {
			return t, true
		}
		return br.Target, br.Target != 0
	case isa.BranchIndirect, isa.BranchIndirectCall:
		if t, ok := p.ITP.Predict(pc, p.spec); ok {
			return t, true
		}
		return br.Target, br.Target != 0
	default:
		return br.Target, true
	}
}

// SpecCall records a speculative call's return address on the RAS.
func (p *Predictor) SpecCall(returnAddr uint64) { p.RAS.SpecPush(returnAddr) }

// SpecShift advances speculative history with a (possibly wrong-path)
// branch outcome.
func (p *Predictor) SpecShift(taken bool) { p.spec.Shift(taken) }

// TrainCond performs the correct-path TAGE prediction+update pair for a
// conditional branch and returns the predicted direction. It must be called
// in program order while the front end is on the correct path (speculative
// and architectural history coincide there).
func (p *Predictor) TrainCond(pc uint64, taken bool) (predictedTaken bool) {
	var pred Pred
	p.Tage.Predict(&pred, pc, p.arch)
	p.UpdateCond(pc, &pred, taken)
	return pred.Taken
}

// WarmCond performs the correct-path predict+update pair against
// architectural history without touching the accuracy counters. The
// sampled-run fast-forward path trains through here: skipped branches
// keep the direction tables and usefulness state hot, but are not
// lookups and must not dilute the measured accuracy.
func (p *Predictor) WarmCond(pc uint64, taken bool) {
	var pred Pred
	p.Tage.Predict(&pred, pc, p.arch)
	p.Tage.Update(pc, p.arch, &pred, taken)
}

// UpdateCond trains TAGE with the fetch-time prediction state (pred, as
// PredictCond filled it in) and the resolved outcome, in program order.
func (p *Predictor) UpdateCond(pc uint64, pred *Pred, taken bool) {
	p.Tage.Update(pc, p.arch, pred, taken)
	p.condLookups.Inc()
	if pred.Taken != taken {
		p.condMiss.Inc()
	}
	if p.Shadow != nil {
		var sp Pred
		p.Shadow.Predict(&sp, pc, p.arch)
		p.Shadow.Update(pc, p.arch, &sp, taken)
		if sp.Taken != taken {
			p.shadowMiss.Inc()
		}
	}
}

// ShadowAccuracy returns the shadow predictor's accuracy.
func (p *Predictor) ShadowAccuracy() float64 {
	if p.condLookups.Value() == 0 {
		return 0
	}
	return 1 - float64(p.shadowMiss.Value())/float64(p.condLookups.Value())
}

// TrainTarget performs correct-path target training for a resolved branch.
func (p *Predictor) TrainTarget(pc uint64, kind isa.BranchKind, target uint64, length uint8) {
	p.BTB.Insert(pc, kind, target, length)
	if kind == isa.BranchIndirect || kind == isa.BranchIndirectCall {
		p.ITP.Update(pc, p.arch, target)
	}
}

// WarmTarget is TrainTarget for the fast-forward warming path; it takes the
// BTB's cheap already-recorded fast path (see BTB.WarmInsert).
func (p *Predictor) WarmTarget(pc uint64, kind isa.BranchKind, target uint64, length uint8) {
	p.BTB.WarmInsert(pc, kind, target, length)
	if kind == isa.BranchIndirect || kind == isa.BranchIndirectCall {
		p.ITP.Update(pc, p.arch, target)
	}
}

// ArchShift advances architectural history with a correct-path outcome.
func (p *Predictor) ArchShift(taken bool) { p.arch.Shift(taken) }

// ArchCall/ArchRet maintain the architectural RAS in program order.
func (p *Predictor) ArchCall(returnAddr uint64) { p.RAS.ArchPush(returnAddr) }

// ArchRet records a correct-path return.
func (p *Predictor) ArchRet() { p.RAS.ArchPop() }

// NoteTargetMiss counts a correct-path target misprediction (statistics).
func (p *Predictor) NoteTargetMiss() { p.targetMiss.Inc() }

// Redirect restores all speculative state from the architectural state
// (misprediction or discovery redirect).
func (p *Predictor) Redirect() {
	p.spec.CopyFrom(p.arch)
	p.RAS.Repair()
}

// CondAccuracy returns direction-prediction accuracy over correct-path
// conditional branches.
func (p *Predictor) CondAccuracy() float64 {
	if p.condLookups.Value() == 0 {
		return 0
	}
	return 1 - float64(p.condMiss.Value())/float64(p.condLookups.Value())
}

// Mispredicts returns (direction mispredicts, target mispredicts).
func (p *Predictor) Mispredicts() (uint64, uint64) {
	return p.condMiss.Value(), p.targetMiss.Value()
}
