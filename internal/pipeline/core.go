package pipeline

import (
	"sync"

	"uopsim/internal/backend"
	"uopsim/internal/bpred"
	"uopsim/internal/decode"
	"uopsim/internal/fetch"
	"uopsim/internal/loopcache"
	"uopsim/internal/mem"
	"uopsim/internal/power"
	"uopsim/internal/stats"
	"uopsim/internal/uopcache"
	"uopsim/internal/uopq"
	"uopsim/internal/workload"
)

// core is a simulator's fixed-size state: the cache hierarchy, the branch
// predictor's tables, the private uop cache, the back end, the queues and
// pipes, the walker whose stream is the simulator's oracle, and the
// backings of the fetch-side scratch slices. A Table I core is about
// 1.6 MB, nearly all of what building a simulator allocates, so Release
// hands it to corePool and the next constructor resets it in place.
//
// The uop cache's geometry is what design points sweep, so its Reset keeps
// its line and slot arrays whenever their capacity suffices rather than
// only for an equal geometry; an idle core holds the largest line and slot
// arrays it has served (C/8 lines of at most 7 slots for a C-uop cache;
// DESIGN.md gives the sizes). SMT threads share a cache the caller owns
// (NewWithCache), which leaves oc untouched. The walker's Reset likewise
// keeps its per-slot arrays across workloads, so an idle core holds the
// largest walker state it has served (at most 312 KiB, about bm_cc's)
// instead of reallocating it whenever the workload changes.
//
// The core owns its simulator's metrics registry. retire resets it, which
// unbinds every instrument but keeps the paths, so the next Sim's
// registerMetrics re-binds the same ~100 paths in place instead of
// building them again. Nothing a caller attached to a Sim (observer,
// OnConsume, instruments registered on its registry) reaches the next
// one: what it registered stays unbound, and an unbound path is invisible
// to snapshots and lookups.
//
// The core also keeps the registry reads and the window of a measured
// run (MeasureThreads), reused in place, so an idle core holds the last
// run's samples and buckets three times over (94 samples, 6.8 KiB each
// on bm_cc).
type core struct {
	pred   bpred.Predictor
	pwb    fetch.Builder
	hier   mem.Hierarchy
	oc     uopcache.Cache // the private uop cache; see newSim
	lc     loopcache.LoopCache
	be     backend.Backend
	uq     uopq.Queue
	dec    power.DecoderModel
	ocPipe decode.Pipe[fGroup]
	dcPipe decode.Pipe[fItem]
	lcPipe decode.Pipe[fGroup]
	walker workload.Walker
	reg    *stats.Registry

	start, end, win stats.Snapshot // see MeasureThreads

	// Backings the Sim's scratch slices grew; retire hands them back.
	pwQ         []fetch.PW
	pwConds     []fetch.CondAt
	lcRemaining []fItem
	itemFree    [][]fItem
	loopIDs     []uint32
}

// corePool holds the cores of released simulators. sync.Pool keeps about
// one idle core per concurrently running simulation and lets the GC
// reclaim the rest, so it needs no size limit.
var corePool sync.Pool

// takeCore returns a released core, or an empty one when none is pooled.
func takeCore() *core {
	if c, ok := corePool.Get().(*core); ok {
		return c
	}
	return new(core)
}

// init assembles s on core c. Every component is Reset to the state its
// constructor builds, clearing the storage c already owns (an empty core
// allocates it), and every other field of s starts from zero, so a Sim on
// a recycled core is indistinguishable from one on a new core.
func (s *Sim) init(c *core, cfg Config, wl *workload.Workload, ocCache *uopcache.Cache) {
	c.hier.Reset(cfg.Mem)
	c.pred.Reset()
	c.pwb.Reset(cfg.Fetch, &c.pred)
	c.lc.Reset(cfg.Loop)
	c.be.Reset(cfg.Backend, &c.hier)
	c.uq.Reset(cfg.UopQueueSize)
	c.dec.Reset()
	c.ocPipe.Reset(cfg.OCLatency, 1, 8)
	c.dcPipe.Reset(cfg.ICFetchLatency+cfg.DecodeLatency, cfg.DecodeWidth, 64)
	c.lcPipe.Reset(1, 1, 4)
	c.walker.Reset(wl)
	c.win.Reset() // a new Sim has measured nothing yet
	// PW ring slots need no clearing: bpuStep builds every field of a slot
	// before fetch reads it, and keeping them keeps their Conds backings.
	pwQ := c.pwQ
	if n := max(cfg.PWQueueSize, 1); len(pwQ) != n {
		pwQ = make([]fetch.PW, n)
	}
	if c.reg == nil {
		c.reg = stats.NewRegistry()
	}
	*s = Sim{
		cfg:    cfg,
		prog:   wl.Program,
		wl:     wl,
		core:   c,
		walker: &c.walker,
		pred:   &c.pred,
		pwb:    &c.pwb,
		hier:   &c.hier,
		oc:     ocCache,
		lc:     &c.lc,
		be:     &c.be,
		uq:     &c.uq,
		dec:    &c.dec,
		ocPipe: &c.ocPipe,
		dcPipe: &c.dcPipe,
		lcPipe: &c.lcPipe,
		reg:    c.reg,

		pwQ:         pwQ,
		pwCur:       fetch.PW{Conds: c.pwConds[:0]},
		lcRemaining: c.lcRemaining[:0],
		itemFree:    c.itemFree,
		loopIDs:     c.loopIDs[:0],
	}
	s.ocb = uopcache.NewBuilder(cfg.Limits, s.oc, func(e *uopcache.Entry) {
		s.oc.Fill(e)
		if s.obs != nil {
			s.obs.Event(Event{Cycle: s.cycle, Kind: EvFill, Addr: e.Start, A: int32(e.NumUops)})
		}
	})
	s.registerMetrics()

	s.orHead = s.walker.Next()
	entry := s.prog.Entry
	s.fetchAddr, s.bpuPC, s.curAddr = entry, entry, entry
	s.nextOraclePC = entry
	s.lastICLine = ^uint64(0)
}

// Release ends the simulator's life and hands its core to the next
// New or NewWithCache, which resets it in place instead of
// allocating a new one. Call it once the results have been read
// (StatsSnapshot, Metrics). The Sim must not be used afterwards: running
// or releasing it again panics, and what its accessors returned
// (Predictor, Hierarchy, Registry, and a private UopCache and its
// UopCacheStats) may be serving another simulator. A uop cache passed to
// NewWithCache stays the caller's. A Sim that is never released is
// garbage collected as usual.
func (s *Sim) Release() { corePool.Put(s.retire()) }

// retire ends s's life and returns its core, carrying the scratch
// backings s grew so the next Sim starts with them.
func (s *Sim) retire() *core {
	c := s.live()
	s.ocPipe.Flush(s.putGroup)
	s.lcPipe.Flush(s.putGroup)
	c.pwQ = s.pwQ
	c.pwConds = s.pwCur.Conds
	c.lcRemaining = s.lcRemaining
	c.itemFree = s.itemFree
	c.loopIDs = s.loopIDs
	c.reg.Reset()
	*s = Sim{}
	return c
}

// live returns s's core, panicking when s has been released.
func (s *Sim) live() *core {
	if s.core == nil {
		panic("pipeline: Sim used after Release")
	}
	return s.core
}
