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
	"uopsim/internal/uopcache"
	"uopsim/internal/uopq"
	"uopsim/internal/workload"
)

// core is a simulator's fixed-size state: the cache hierarchy, the branch
// predictor's tables, the back end, the queues and pipes, the walker whose
// stream is the simulator's oracle, and the backings of the fetch-side
// scratch slices. A Table I core is about 1.6 MB, nearly all of what
// building a simulator allocates, so Release hands it to corePool and the
// next constructor resets it in place.
//
// The uop cache is not part of it: it is small, its geometry is what
// design points sweep, and SMT threads share one. Nor is anything a
// caller attached to a Sim (observer, OnConsume, instruments registered
// on its registry): every Sim gets a fresh registry holding exactly the
// core's instruments.
type core struct {
	pred   bpred.Predictor
	pwb    fetch.Builder
	hier   mem.Hierarchy
	lc     loopcache.LoopCache
	be     backend.Backend
	uq     uopq.Queue
	dec    power.DecoderModel
	ocPipe decode.Pipe[fGroup]
	dcPipe decode.Pipe[fItem]
	lcPipe decode.Pipe[fGroup]
	walker workload.Walker

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
	// PW ring slots need no clearing: bpuStep builds every field of a slot
	// before fetch reads it, and keeping them keeps their Conds backings.
	pwQ := c.pwQ
	if n := max(cfg.PWQueueSize, 1); len(pwQ) != n {
		pwQ = make([]fetch.PW, n)
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
// (Predictor, Hierarchy, Registry) may be serving another simulator. The
// uop cache is not recycled. A Sim that is never released is garbage
// collected as usual.
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
