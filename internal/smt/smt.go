// Package smt models a two-way simultaneously multithreaded core sharing
// one micro-operation cache.
//
// This is the scenario the paper uses to motivate PWAC over RAC (§V-B1):
// "the replacement state can be updated by another thread because the uop
// cache is shared across all threads in a multithreaded core. Hence, RAC
// cannot guarantee compacting OC entries of the same thread together."
// Under RAC, a thread's fill lands in the set's most-recently-used line —
// which, with a co-runner, is frequently the *other* thread's line, welding
// together entries with uncorrelated lifetimes. PWAC keys compaction on the
// prediction window identity, which is thread-private by construction.
//
// The model interleaves two full pipeline instances cycle by cycle (round
// robin fetch arbitration) around a shared uop cache. The threads' code
// regions are laid out at disjoint bases so entries never alias.
package smt

import (
	"fmt"

	"uopsim/internal/pipeline"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// ThreadBBase is the code base for the second hardware thread (thread A
// uses workload.CodeBase). 256MB of separation keeps the regions disjoint
// for any synthesizable program.
const ThreadBBase uint64 = workload.CodeBase + (256 << 20)

// Pair is a two-thread SMT core.
type Pair struct {
	// A and B are the two hardware threads.
	A, B *pipeline.Sim
	// Shared is the uop cache both threads fill and probe.
	Shared *uopcache.Cache
}

// New builds an SMT pair running profileA and profileB under cfg. The uop
// cache configuration is instantiated once and shared.
func New(cfg pipeline.Config, profileA, profileB *workload.Profile) (*Pair, error) {
	wlA, err := workload.SharedBuildAt(profileA, workload.CodeBase)
	if err != nil {
		return nil, fmt.Errorf("smt thread A: %w", err)
	}
	wlB, err := workload.SharedBuildAt(profileB, ThreadBBase)
	if err != nil {
		return nil, fmt.Errorf("smt thread B: %w", err)
	}
	shared, err := uopcache.New(cfg.UopCache)
	if err != nil {
		return nil, err
	}
	a, err := pipeline.NewWithCache(cfg, wlA, shared)
	if err != nil {
		return nil, err
	}
	b, err := pipeline.NewWithCache(cfg, wlB, shared)
	if err != nil {
		return nil, err
	}
	return &Pair{A: a, B: b, Shared: shared}, nil
}

// Release returns both threads' cores for reuse (pipeline.Sim.Release).
// The pair must not be used afterwards.
func (p *Pair) Release() {
	p.A.Release()
	p.B.Release()
}

// Run interleaves the two threads cycle by cycle until each has dispatched
// at least instsPerThread correct-path instructions. A thread that reaches
// its target keeps running (SMT partners do not halt) but the loop exits
// once both are done; the cycle bound guards against livelock bugs.
func (p *Pair) Run(instsPerThread uint64) error {
	targetA := p.A.Insts() + instsPerThread
	targetB := p.B.Insts() + instsPerThread
	bound := int64(instsPerThread)*400 + 2_000_000
	for c := int64(0); p.A.Insts() < targetA || p.B.Insts() < targetB; c++ {
		if c > bound {
			return fmt.Errorf("smt: exceeded cycle bound (A=%d/%d B=%d/%d insts)",
				p.A.Insts(), targetA, p.B.Insts(), targetB)
		}
		p.A.Step()
		p.B.Step()
	}
	return nil
}

// RunMeasured runs warmup then measure instructions per thread and returns
// per-thread metrics over the measured interval.
func (p *Pair) RunMeasured(warmup, measure uint64) (a, b pipeline.Metrics, err error) {
	return p.RunSampled(warmup, measure, pipeline.Sampling{})
}

// RunSampled is the interval-sampled counterpart of RunMeasured: both
// threads fast-forward architecturally between measurement windows (each
// thread consuming its own walker), and each window is cycle-simulated
// with the usual round-robin interleave so the shared uop cache keeps
// seeing both threads' fills. Lengths are per thread, mirroring
// RunMeasured. It is pipeline.MeasureThreads over the pair, so each
// thread's Window is its measured window.
func (p *Pair) RunSampled(warmup, measure uint64, sp pipeline.Sampling) (a, b pipeline.Metrics, err error) {
	var m [2]pipeline.Metrics
	err = pipeline.MeasureThreads([]*pipeline.Sim{p.A, p.B}, p.Run, warmup, measure, sp, m[:])
	return m[0], m[1], err
}
