// Package pipeline wires every substrate into the whole-core, cycle-level
// simulator of Figure 1: a decoupled branch prediction unit emitting
// prediction windows, three uop supply paths (loop cache, uop cache,
// I-cache + x86 decoder), the micro-op queue, and the out-of-order back end
// — with wrong-path fetch past unresolved mispredictions, decode-time
// redirects for undiscovered direct jumps, and uop cache fills (including
// wrong-path pollution) through the accumulation buffer.
package pipeline

import (
	"fmt"

	"uopsim/internal/backend"
	"uopsim/internal/bpred"
	"uopsim/internal/decode"
	"uopsim/internal/fetch"
	"uopsim/internal/isa"
	"uopsim/internal/loopcache"
	"uopsim/internal/mem"
	"uopsim/internal/power"
	"uopsim/internal/program"
	"uopsim/internal/stats"
	"uopsim/internal/uopcache"
	"uopsim/internal/uopq"
	"uopsim/internal/workload"
)

// SimVersion names the simulated-behaviour generation of this simulator.
// It is part of every design-point fingerprint (internal/runcache), making
// a version bump the run-cache invalidation rule: bump it in the same
// change that regenerates testdata/golden_metrics.json — i.e. whenever a
// commit intentionally alters simulated behaviour — and every previously
// persisted blob stops being addressed. Pure optimizations that keep the
// golden metrics bit-identical must NOT bump it; that is what lets cached
// runs survive performance work.
const SimVersion = "uopsim-1"

// Config assembles the whole-core configuration (Table I defaults via
// DefaultConfig).
type Config struct {
	// DispatchWidth is uops/cycle from the uop queue to the back end (6).
	DispatchWidth int
	// UopQueueSize is the micro-op queue capacity (120).
	UopQueueSize int
	// DecodeWidth is decoded instructions per cycle (4).
	DecodeWidth int
	// DecodeLatency is the decode pipeline depth in cycles (3).
	DecodeLatency int
	// ICFetchLatency is the I-cache read + pick stage depth ahead of decode.
	ICFetchLatency int
	// ICFetchBytes is the fetch bandwidth (32 bytes/cycle).
	ICFetchBytes int
	// OCLatency is the uop cache read pipeline depth.
	OCLatency int
	// OCSwitchPenalty is the bubble when the fetch path falls from the uop
	// cache to the I-cache mid-window.
	OCSwitchPenalty int
	// PWQueueSize bounds how far the BPU runs ahead of fetch.
	PWQueueSize int

	// Fetch configures prediction window construction.
	Fetch fetch.Config
	// UopCache configures the uop cache structure and fill policy.
	UopCache uopcache.Config
	// Limits configures entry construction (CLASP = MaxICLines 2).
	Limits uopcache.BuildLimits
	// Loop configures the loop cache.
	Loop loopcache.Config
	// Mem configures the cache hierarchy.
	Mem mem.Config
	// Backend configures the out-of-order engine.
	Backend backend.Config
	// AccumBufEntries is the accumulation buffer capacity in entries.
	AccumBufEntries int
}

// DefaultConfig returns the Table I machine with a baseline uop cache.
func DefaultConfig() Config {
	return Config{
		DispatchWidth:   6,
		UopQueueSize:    120,
		DecodeWidth:     4,
		DecodeLatency:   3,
		ICFetchLatency:  2,
		ICFetchBytes:    32,
		OCLatency:       2,
		OCSwitchPenalty: 1,
		PWQueueSize:     16,
		Fetch:           fetch.DefaultConfig(),
		UopCache:        uopcache.DefaultConfig(),
		Limits:          uopcache.DefaultLimits(),
		Loop:            loopcache.DefaultConfig(),
		Mem:             mem.DefaultConfig(),
		Backend:         backend.DefaultConfig(),
		AccumBufEntries: 2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.UopCache.Validate(); err != nil {
		return err
	}
	if c.DispatchWidth < 1 || c.DecodeWidth < 1 || c.UopQueueSize < 8 {
		return fmt.Errorf("pipeline: width/queue configuration invalid")
	}
	if c.Limits.MaxICLines > 1 && c.UopCache.MaxICLines != c.Limits.MaxICLines {
		return fmt.Errorf("pipeline: CLASP span mismatch between Limits (%d) and UopCache (%d)",
			c.Limits.MaxICLines, c.UopCache.MaxICLines)
	}
	return nil
}

// fItem is one fetched instruction flowing through a front-end pipe.
type fItem struct {
	seq        uint64
	inst       *isa.Inst
	rec        workload.Rec
	correct    bool
	fetchCycle int64
	src        uopq.Source

	// predictedNext is the fetch address the front end follows after this
	// instruction.
	predictedNext uint64
	// misp marks a correct-path branch detected mispredicted at fetch
	// (redirect fires when it resolves in the back end).
	misp bool
	// decRedirect marks a BTB-unknown direct unconditional transfer
	// (redirect fires when it exits decode).
	decRedirect bool

	// Builder context (decoder path only).
	pwID       uint64
	pwInstance uint64
	pwEndTaken bool
}

type fGroup struct {
	items []fItem
	uops  int
}

type pendingRedirect struct {
	fire       int64
	target     uint64
	fetchCycle int64
	isDecode   bool
}

// Sim is one simulation instance: a workload bound to a configured core.
// Its components live in a recyclable core (see Release); the pointers
// below address them directly so the cycle loop never goes through it.
type Sim struct {
	cfg  Config
	prog *program.Program
	wl   *workload.Workload
	core *core // nil once released

	// walker is the core's walker: the architectural (oracle) stream the
	// front end's correct path must follow. orHead is its next record.
	walker *workload.Walker
	orHead workload.Rec

	pred *bpred.Predictor
	pwb  *fetch.Builder
	hier *mem.Hierarchy
	oc   *uopcache.Cache
	ocb  *uopcache.Builder
	lc   *loopcache.LoopCache
	be   *backend.Backend
	uq   *uopq.Queue
	dec  *power.DecoderModel

	ocPipe *decode.Pipe[fGroup]
	dcPipe *decode.Pipe[fItem]
	lcPipe *decode.Pipe[fGroup]

	cycle int64

	// Fetch-side state. The PW queue is a fixed ring (head/count over pwQ)
	// that bpuStep builds windows into in place, reusing each slot's Conds
	// backing. The current window lives in pwCur, a copy with its own Conds
	// backing (setCur): a slot popped by fetch may be rebuilt by bpuStep in
	// the same cycle while pwCur is still being fetched.
	seq          uint64
	nextPopSeq   uint64
	pwQ          []fetch.PW // ring buffer, capacity PWQueueSize
	pwHead       int
	pwCount      int
	pwCur        fetch.PW  // backing store for pw; never aliases a pwQ slot
	pw           *fetch.PW // nil or &pwCur
	pwFromOC     bool      // current PW has had at least one OC hit (switch penalty)
	pwMode       fetchMode
	curAddr      uint64
	fetchAddr    uint64
	bpuPC        uint64
	bpuStall     int64
	fetchStall   int64
	lastICLine   uint64
	lcRemaining  []fItem // loop-cache emission backlog for the current PW
	lcHead       int     // consume cursor into lcRemaining
	wrongPath    bool
	nextOraclePC uint64

	// itemFree recycles fGroup item slices: a group's slice returns here
	// when the group drains, or when a redirect flushes it from its pipe
	// (flushFrontEnd), so no slice is ever dropped for the GC.
	itemFree [][]fItem

	// loopIDs is captureLoopAt's scratch for a loop body; the loop cache
	// copies what it installs.
	loopIDs []uint32

	redirect        pendingRedirect
	redirectPending bool

	// OnConsume, when set, observes every correct-path instruction in
	// program order as the front end consumes it (testing hook: the
	// observed sequence must equal the architectural walker's stream).
	OnConsume func(workload.Rec)

	m   counters
	reg *stats.Registry
	obs Observer

	// sampling, when non-nil, backs the sampling.* gauges a RunSampled
	// call registered (see noteSampling).
	sampling *samplingInfo
}

// setMode switches the current window's supply path, announcing the switch
// to an attached observer.
func (s *Sim) setMode(c int64, m fetchMode) {
	if s.obs != nil && m != s.pwMode {
		s.obs.Event(Event{Cycle: c, Kind: EvPathSwitch, A: int32(s.pwMode), B: int32(m)})
	}
	s.pwMode = m
}

type fetchMode uint8

const (
	modeOC fetchMode = iota
	modeIC
	modeLC
)

// New builds a simulator for the workload with a private uop cache.
func New(cfg Config, wl *workload.Workload) (*Sim, error) {
	return newSim(cfg, wl, nil, nil)
}

// NewWithCache builds a simulator around an externally owned uop cache. Two
// hardware threads of an SMT core pass the same cache so their entries
// compete for the shared capacity (§V-B1's motivation for PWAC). Callers
// must ensure the threads' code regions do not alias (workload.BuildAt).
func NewWithCache(cfg Config, wl *workload.Workload, ocCache *uopcache.Cache) (*Sim, error) {
	return newSim(cfg, wl, ocCache, nil)
}

// newSim is the one construction path behind New and NewWithCache. It
// validates cfg before allocating anything, builds a private uop cache
// unless ocCache is given, and assembles the simulator on core c — or,
// when c is nil, on a core a released simulator left in the pool (a new
// one if the pool is empty).
func newSim(cfg Config, wl *workload.Workload, ocCache *uopcache.Cache, c *core) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ocCache == nil {
		var err error
		if ocCache, err = uopcache.New(cfg.UopCache); err != nil {
			return nil, err
		}
	}
	if c == nil {
		c = takeCore()
	}
	s := &Sim{}
	s.init(c, cfg, wl, ocCache)
	return s, nil
}

// registerMetrics mounts every component's instruments into the Sim's
// registry. All registration happens here, once, at construction; the hot
// path keeps touching the same plain-value instruments directly.
func (s *Sim) registerMetrics() {
	s.reg = stats.NewRegistry()
	s.reg.RegisterGauge("pipeline.cycle", func() float64 { return float64(s.cycle) })
	s.m.register(s.reg)
	s.oc.Stats.Register(s.reg.Scope("oc"))
	s.pred.RegisterMetrics(s.reg.Scope("bpu"))
	s.pwb.RegisterMetrics(s.reg.Scope("bpu.pw"))
	s.lc.RegisterMetrics(s.reg.Scope("lc"))
	s.hier.RegisterMetrics(s.reg.Scope("mem"))
	s.uq.RegisterMetrics(s.reg.Scope("uopq"))
	s.be.RegisterMetrics(s.reg.Scope("backend"))
	s.dec.RegisterMetrics(s.reg.Scope("power.decoder"))
	pipes := s.reg.Scope("decode.pipe")
	s.ocPipe.RegisterMetrics(pipes.Scope("oc"))
	s.dcPipe.RegisterMetrics(pipes.Scope("dc"))
	s.lcPipe.RegisterMetrics(pipes.Scope("lc"))
}

// Registry exposes the Sim's metrics registry (custom instruments, e.g. the
// occupancy observer, register here; exporters snapshot it).
func (s *Sim) Registry() *stats.Registry { return s.reg }

// StatsSnapshot reads every registered instrument.
func (s *Sim) StatsSnapshot() stats.Snapshot {
	s.live()
	return s.reg.Snapshot()
}

// Cycle returns the current cycle.
func (s *Sim) Cycle() int64 { return s.cycle }

// Step advances the machine by one cycle (SMT wrappers interleave threads at
// this granularity; single-thread callers normally use Run).
func (s *Sim) Step() {
	s.live()
	s.step()
}

// Insts returns the number of correct-path instructions dispatched so far.
func (s *Sim) Insts() uint64 { return s.m.insts.Value() }

// UopCacheStats exposes the uop cache observables.
func (s *Sim) UopCacheStats() *uopcache.Stats { return s.oc.Stats }

// Predictor exposes the branch predictor (tests, MPKI probes).
func (s *Sim) Predictor() *bpred.Predictor { return s.pred }

// Hierarchy exposes the cache hierarchy (tests).
func (s *Sim) Hierarchy() *mem.Hierarchy { return s.hier }

// UopCache exposes the uop cache (tests, SMC experiments).
func (s *Sim) UopCache() *uopcache.Cache { return s.oc }

// InvalidateCodeLine performs an SMC invalidating probe against all uop
// structures for the 64B code line at addr.
func (s *Sim) InvalidateCodeLine(addr uint64) int {
	line := addr &^ uint64(63)
	n := s.oc.InvalidateCodeLine(line)
	s.lc.InvalidateRange(line, line+64)
	s.hier.L1I.Invalidate(line)
	return n
}

// PW ring-buffer accessors. Indices are relative to the queue head; callers
// never index past pwCount (pwAt(pwCount) is the free slot bpuStep builds
// into), so a single wrap subtraction suffices.

func (s *Sim) pwAt(i int) *fetch.PW {
	j := s.pwHead + i
	if j >= len(s.pwQ) {
		j -= len(s.pwQ)
	}
	return &s.pwQ[j]
}

// setCur makes pw the current window. It copies pw into pwCur but keeps
// pwCur's own Conds backing, so the ring slot can be rebuilt right away.
func (s *Sim) setCur(pw *fetch.PW) {
	conds := append(s.pwCur.Conds[:0], pw.Conds...)
	s.pwCur = *pw
	s.pwCur.Conds = conds
	s.pw = &s.pwCur
}

func (s *Sim) pwPopN(n int) {
	s.pwHead += n
	if s.pwHead >= len(s.pwQ) {
		s.pwHead -= len(s.pwQ)
	}
	s.pwCount -= n
}

func (s *Sim) pwClear() {
	s.pwHead, s.pwCount = 0, 0
}

// getItems/putItems recycle fGroup item slices. A group's items are fully
// copied into the uop queue when the group drains, so the slice can be reused
// the moment popGroup returns.

//uopvet:hotpath
func (s *Sim) getItems() []fItem {
	if n := len(s.itemFree); n > 0 {
		it := s.itemFree[n-1]
		s.itemFree = s.itemFree[:n-1]
		return it
	}
	return make([]fItem, 0, 8)
}

//uopvet:hotpath
func (s *Sim) putItems(items []fItem) {
	if cap(items) == 0 {
		return
	}
	s.itemFree = append(s.itemFree, items[:0])
}

// putGroup recycles the items of a group a redirect flushed from its pipe.
func (s *Sim) putGroup(g fGroup) { s.putItems(g.items) }
