package pipeline

import (
	"fmt"

	"uopsim/internal/isa"
	"uopsim/internal/workload"
)

// Sampling configures interval-sampled execution (RunSampled): instead of
// simulating every instruction of the measured region, the run is split
// into Intervals evenly spaced strides and only a WarmupInsts +
// IntervalInsts window at the end of each stride is cycle-simulated; the
// instructions between windows are fast-forwarded architecturally through
// the oracle walker, which costs about a fifth as much per instruction as
// the cycle loop: 34.5 against 154 ns/inst on a warmed bm_cc simulator, a
// ratio of 4.5 (BenchmarkInstCost, medians of 5 runs on a 2-vCPU AMD EPYC
// guest). Full-run metrics are extrapolated from the measured windows
// (see RunSampled).
//
// Sampling participates in design-point fingerprints when Enabled, so a
// sampled point and the full simulation of the same point can never share
// a cache blob. Fields added here must stay canonically encodable
// (runcache.Key) — the runcachesafe analyzer checks this type.
type Sampling struct {
	// Enabled turns interval sampling on. The zero value (disabled) leaves
	// RunSampled equivalent to RunMeasured.
	Enabled bool
	// Intervals is K, the number of measurement intervals (default 6).
	Intervals int
	// IntervalInsts is M, the measured instructions per interval (default
	// measure/50: 12% coverage with the default K). The defaults were
	// chosen on the Table II workloads as the best accuracy at ~4x
	// wall-clock: fewer, longer windows beat many short ones here because
	// the uop cache's content ages during each architectural skip and
	// every extra interval pays that re-priming transient again.
	IntervalInsts uint64
	// WarmupInsts is W, the cycle-simulated but unmeasured instructions
	// that precede each interval, re-priming the front end after the
	// fast-forward (default IntervalInsts/3).
	WarmupInsts uint64
}

// WithDefaults resolves zero fields against the measured run length.
// Fingerprints cover the resolved form, so a request that spells out the
// defaults and one that elides them address the same cache blob.
func (sp Sampling) WithDefaults(measure uint64) Sampling {
	if !sp.Enabled {
		return sp
	}
	if sp.Intervals <= 0 {
		sp.Intervals = 6
	}
	if sp.IntervalInsts == 0 {
		sp.IntervalInsts = measure / 50
		if sp.IntervalInsts == 0 {
			sp.IntervalInsts = 1
		}
	}
	if sp.WarmupInsts == 0 {
		sp.WarmupInsts = sp.IntervalInsts / 3
	}
	return sp
}

// Validate reports whether the resolved configuration fits the measured
// region: every interval's warmup+measure window must fit inside its
// stride. Call on the WithDefaults form.
func (sp Sampling) Validate(measure uint64) error {
	if !sp.Enabled {
		return nil
	}
	if sp.Intervals < 1 {
		return fmt.Errorf("pipeline: sampling needs at least one interval, got %d", sp.Intervals)
	}
	if sp.IntervalInsts < 1 {
		return fmt.Errorf("pipeline: sampling needs a positive interval length")
	}
	stride := measure / uint64(sp.Intervals)
	if sp.WarmupInsts+sp.IntervalInsts > stride {
		return fmt.Errorf("pipeline: sampling window (%d warmup + %d measured) exceeds the %d-instruction stride (measure %d / %d intervals)",
			sp.WarmupInsts, sp.IntervalInsts, stride, measure, sp.Intervals)
	}
	return nil
}

// Coverage is the measured fraction of the nominal run: K*M/measure.
func (sp Sampling) Coverage(measure uint64) float64 {
	if !sp.Enabled || measure == 0 {
		return 1
	}
	return float64(uint64(sp.Intervals)*sp.IntervalInsts) / float64(measure)
}

// FastForward advances the architectural state by n instructions without
// simulating cycles: it consumes n oracle records and functionally warms
// the long-lived microarchitectural state they would have touched — the
// branch direction tables, BTB, RAS and indirect predictor in program
// order, the instruction and data cache hierarchy, and the loop-buffer
// trainer — then squashes the front end and re-steers fetch at the next
// architectural PC. This is the SMARTS discipline: structures with state
// lifetimes far longer than any affordable warmup window (predictors,
// caches) are warmed continuously at functional cost, while the short-
// lived pipeline contents are discarded and re-primed by the next
// interval's detailed warmup. The back end needs no repair: it only ever
// holds correct-path uops, which retire naturally during that warmup.
//
// The uop cache and loop cache *contents* persist untouched across the
// skip — their fill paths are driven by fetch, which is exactly what the
// per-interval warmup window re-exercises.
//
// The walker's stream never ends, so every skip consumes all n records:
// FastForward always returns n.
func (s *Sim) FastForward(n uint64) uint64 {
	s.live()
	if n == 0 {
		return 0
	}
	lastLine := ^uint64(0)
	lastTarget := s.nextOraclePC
	for range n {
		rec := s.orHead
		in := s.prog.Inst(rec.InstID)
		s.orHead = s.walker.Next()
		s.nextOraclePC = rec.Next
		if s.OnConsume != nil {
			s.OnConsume(rec)
		}
		if line := in.Addr() &^ uint64(63); line != lastLine {
			lastLine = line
			s.hier.PrefetchInst(line)
		}
		switch in.Class {
		case isa.ClassLoad, isa.ClassLoadOp:
			s.hier.Load(rec.MemAddr)
		case isa.ClassStore:
			s.hier.Store(rec.MemAddr)
		}
		if in.IsBranch() {
			s.warmBranch(in, rec, &lastTarget)
		}
	}
	s.flushFrontEnd(s.cycle, s.nextOraclePC, true)
	return n
}

// warmBranch trains the predictor stack with one skipped branch's
// architectural outcome, mirroring consumeCorrect's training sequence
// (without its statistics — skipped branches are not lookups). It also
// feeds the loop-buffer trainer with the architectural equivalent of the
// fetch-side signal: consecutive backward-taken iterations of one branch.
func (s *Sim) warmBranch(in *isa.Inst, rec workload.Rec, lastTarget *uint64) {
	switch in.Branch {
	case isa.BranchCall, isa.BranchIndirectCall:
		s.pred.ArchCall(in.End())
	case isa.BranchRet:
		s.pred.ArchRet()
	}
	switch in.Branch {
	case isa.BranchCond:
		s.pred.WarmCond(in.Addr(), rec.Taken)
		s.pred.ArchShift(rec.Taken)
		if rec.Taken {
			s.pred.WarmTarget(in.Addr(), in.Branch, in.Target(), in.Len)
		}
	case isa.BranchJump, isa.BranchCall:
		s.pred.WarmTarget(in.Addr(), in.Branch, in.Target(), in.Len)
		s.pred.ArchShift(true)
	case isa.BranchRet:
		s.pred.WarmTarget(in.Addr(), in.Branch, 0, in.Len)
		s.pred.ArchShift(true)
	case isa.BranchIndirect, isa.BranchIndirectCall:
		s.pred.WarmTarget(in.Addr(), in.Branch, rec.Next, in.Len)
		s.pred.ArchShift(true)
	}

	taken := rec.Taken || in.Branch != isa.BranchCond
	if in.Branch == isa.BranchCond && rec.Taken && rec.Next <= in.Addr() && *lastTarget == rec.Next {
		if s.lc.ObserveBackwardTaken(in.Addr(), rec.Next) {
			s.captureLoopAt(rec.Next, in.Addr())
		}
	} else if taken {
		s.lc.ObserveOther()
	}
	if taken {
		*lastTarget = rec.Next
	}
}

// noteSampling publishes a sampled run's shape as sampling.* gauges, so
// its answer records how the numbers were obtained. The gauges are
// registered once and read s.sampling, which a re-sampled Sim updates.
func (s *Sim) noteSampling(sp Sampling, warmup, measure uint64) {
	k := uint64(sp.Intervals)
	skipped := warmup + k*(measure/k-sp.WarmupInsts-sp.IntervalInsts)
	s.sampling = [...]float64{float64(sp.Intervals), float64(sp.IntervalInsts), float64(sp.WarmupInsts),
		sp.Coverage(measure), float64(skipped), float64(k * (sp.WarmupInsts + sp.IntervalInsts))}
	if s.sampled {
		return
	}
	s.sampled = true
	sc := s.reg.Scope("sampling")
	for i, name := range [...]string{"intervals", "interval_insts", "warmup_insts", "coverage", "skipped_insts", "simulated_insts"} {
		sc.RegisterGauge(name, func() float64 { return s.sampling[i] })
	}
}

// IntervalLead returns the architectural skip lengths before and after
// interval i's warmup+measure window inside its stride. Windows are placed
// at deterministic low-discrepancy (golden-ratio) offsets rather than a
// fixed stride position: fixed end-of-stride placement biases the estimate
// toward late-phase behavior under any monotone drift (uop cache still
// filling, footprint growing), and fixed any-position placement aliases
// against workload periodicity. The offsets use integer fixed-point
// arithmetic so placement is bit-identical across platforms.
func (sp Sampling) IntervalLead(i int, measure uint64) (pre, post uint64) {
	stride := measure / uint64(sp.Intervals)
	slack := stride - sp.WarmupInsts - sp.IntervalInsts
	// frac(i*phi) in 32-bit fixed point: 2654435769 = round(2^32/phi).
	pre = (uint64(uint32(uint64(i)*2654435769)) * slack) >> 32
	return pre, slack - pre
}
