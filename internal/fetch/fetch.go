// Package fetch implements the decoupled front end's prediction window (PW)
// construction (§II-A): the branch prediction unit walks the predicted path
// one window per cycle, each window delimited by the I-cache line end, a
// predicted taken branch, or a maximum number of predicted not-taken
// branches (Figs 2a-2c).
package fetch

import (
	"uopsim/internal/bpred"
	"uopsim/internal/isa"
	"uopsim/internal/stats"
)

// ICLineBytes is the I-cache line size that bounds PWs.
const ICLineBytes = 64

// TermReason records why a PW ended.
type TermReason uint8

const (
	// TermLineEnd: the PW reached the end of its I-cache line.
	TermLineEnd TermReason = iota
	// TermTaken: a predicted taken branch ended the PW.
	TermTaken
	// TermMaxNT: the not-taken branch budget was exhausted mid-line.
	TermMaxNT
)

// CondAt is a BTB-known conditional branch inside a PW with its fetch-time
// TAGE state (needed to train the exact entries consulted).
type CondAt struct {
	// PC is the branch address.
	PC uint64
	// Pred is the TAGE prediction state captured at fetch.
	Pred bpred.Pred
	// Taken is the predicted direction.
	Taken bool
}

// PW is one prediction window.
type PW struct {
	// ID is the PW identity used by PWAC: its start address (stable across
	// dynamic instances of the same window).
	ID uint64
	// Instance uniquely numbers this dynamic window.
	Instance uint64
	// Start and End delimit the window: [Start, End). End is exact when the
	// terminal branch came from the BTB, else the line end.
	Start, End uint64
	// Term is the termination reason.
	Term TermReason
	// EndsTaken marks windows terminated by a predicted taken branch.
	EndsTaken bool
	// TakenPC is the terminating branch address when EndsTaken.
	TakenPC uint64
	// NextPC is the predicted fetch address after this window.
	NextPC uint64
	// Conds are the BTB-known conditional branches inside the window in
	// order (including a taken terminal conditional).
	Conds []CondAt
	// TerminalKind is the terminal branch kind when EndsTaken.
	TerminalKind isa.BranchKind
	// Penalty is BPU bubble cycles incurred building this window (BTB L2).
	Penalty int
}

// Config tunes PW construction.
type Config struct {
	// MaxNotTaken is the not-taken conditional branch budget per PW.
	MaxNotTaken int
}

// DefaultConfig matches the two-branches-per-BTB-entry provisioning.
func DefaultConfig() Config { return Config{MaxNotTaken: 2} }

// Builder constructs PWs against a predictor.
type Builder struct {
	cfg      Config
	pred     *bpred.Predictor
	instance uint64

	built      stats.Counter
	takenTerm  stats.Counter
	lineTerm   stats.Counter
	ntTermed   stats.Counter
	specShifts stats.Counter
}

// RegisterMetrics publishes the PW-builder counters under sc (expected
// mount point: "bpu.pw").
func (b *Builder) RegisterMetrics(sc stats.Scope) {
	sc.RegisterCounter("built", &b.built)
	sc.RegisterCounter("term.taken", &b.takenTerm)
	sc.RegisterCounter("term.line", &b.lineTerm)
	sc.RegisterCounter("term.nt_budget", &b.ntTermed)
	sc.RegisterCounter("spec_shifts", &b.specShifts)
}

// NewBuilder creates a PW builder.
func NewBuilder(cfg Config, pred *bpred.Predictor) *Builder {
	b := &Builder{}
	b.Reset(cfg, pred)
	return b
}

// Reset makes b the builder NewBuilder(cfg, pred) creates: instance
// numbering and counters start over.
func (b *Builder) Reset(cfg Config, pred *bpred.Predictor) {
	if cfg.MaxNotTaken < 0 {
		cfg.MaxNotTaken = 0
	}
	*b = Builder{cfg: cfg, pred: pred}
}

func lineOf(addr uint64) uint64 { return addr &^ uint64(ICLineBytes-1) }

// Build constructs the next PW starting at startPC into the caller-owned
// pw, advancing speculative history/RAS for every predicted branch. Every
// field is overwritten; pw's Conds backing array is reused, so a caller that
// recycles its windows builds without allocating once the backing has grown
// to the largest window seen.
//
//uopvet:hotpath
func (b *Builder) Build(pw *PW, startPC uint64) {
	b.instance++
	b.built.Inc()
	// Field by field: a composite-literal store would build the window on
	// the stack and copy it over.
	pw.ID, pw.Instance, pw.Start, pw.End = startPC, b.instance, startPC, 0
	pw.Term, pw.EndsTaken, pw.TakenPC, pw.NextPC = TermLineEnd, false, 0, 0
	pw.Conds, pw.TerminalKind, pw.Penalty = pw.Conds[:0], isa.BranchNone, 0
	line := lineOf(startPC)
	lineEnd := line + ICLineBytes
	cur := startPC
	nt := 0

	for {
		br, pen, found := b.pred.FindBranch(line, int(cur-line))
		pw.Penalty += pen
		if !found {
			pw.End = lineEnd
			pw.NextPC = lineEnd
			pw.Term = TermLineEnd
			b.lineTerm.Inc()
			return
		}
		brPC := br.PC(line)
		fall := br.FallThrough(line)
		if br.Kind == isa.BranchCond {
			pw.Conds = append(pw.Conds, CondAt{PC: brPC})
			ca := &pw.Conds[len(pw.Conds)-1]
			b.pred.PredictCond(&ca.Pred, brPC)
			ca.Taken = ca.Pred.Taken
			b.pred.SpecShift(ca.Taken)
			b.specShifts.Inc()
			if !ca.Taken {
				nt++
				if nt >= b.cfg.MaxNotTaken && b.cfg.MaxNotTaken > 0 {
					pw.End = fall
					pw.NextPC = fall
					pw.Term = TermMaxNT
					b.ntTermed.Inc()
					return
				}
				cur = fall
				if cur >= lineEnd {
					pw.End = lineEnd
					pw.NextPC = lineEnd
					pw.Term = TermLineEnd
					b.lineTerm.Inc()
					return
				}
				continue
			}
			// Predicted taken conditional terminates the PW.
			target, _ := b.pred.PredictTarget(brPC, br)
			pw.End = fall
			pw.EndsTaken = true
			pw.TakenPC = brPC
			pw.TerminalKind = br.Kind
			pw.NextPC = target
			pw.Term = TermTaken
			b.takenTerm.Inc()
			return
		}

		// Unconditional control transfer terminates the PW.
		target, ok := b.pred.PredictTarget(brPC, br)
		if br.Kind.IsCall() {
			b.pred.SpecCall(fall)
		}
		b.pred.SpecShift(true)
		b.specShifts.Inc()
		if !ok {
			target = fall // no target known: fall through and let decode/execute redirect
		}
		pw.End = fall
		pw.EndsTaken = true
		pw.TakenPC = brPC
		pw.TerminalKind = br.Kind
		pw.NextPC = target
		pw.Term = TermTaken
		b.takenTerm.Inc()
		return
	}
}

// Stats returns (PWs built, taken-terminated, line-end-terminated,
// NT-budget-terminated).
func (b *Builder) Stats() (built, taken, lineEnd, ntBudget uint64) {
	return b.built.Value(), b.takenTerm.Value(), b.lineTerm.Value(), b.ntTermed.Value()
}
