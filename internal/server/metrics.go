package server

import (
	"sync"
	"time"

	"uopsim/internal/experiments"
	"uopsim/internal/stats"
	"uopsim/internal/surrogate"
	"uopsim/internal/warehouse"
)

// metrics owns the daemon's stats.Registry. Simulator registries are
// per-Sim and single-goroutine by design; the service's instruments are
// shared across handler goroutines, so every counter mutation and every
// snapshot goes through one mutex (requests are milliseconds-scale — one
// lock is nowhere near contention). Gauges read pool atomics and the
// engine's own locked counters, so they are safe wherever Snapshot runs.
type metrics struct {
	mu  sync.Mutex
	reg *stats.Registry

	admitted      stats.Counter //uopvet:guardedby mu
	fastHits      stats.Counter //uopvet:guardedby mu
	rejected      stats.Counter //uopvet:guardedby mu
	rejectedDrain stats.Counter //uopvet:guardedby mu
	completed     stats.Counter //uopvet:guardedby mu
	failed        stats.Counter //uopvet:guardedby mu
	expired       stats.Counter //uopvet:guardedby mu
	timeouts      stats.Counter //uopvet:guardedby mu
	simSampled    stats.Counter //uopvet:guardedby mu
	simFull       stats.Counter //uopvet:guardedby mu
	latency       *stats.Hist   //uopvet:guardedby mu
	latMean       stats.Mean    //uopvet:guardedby mu

	estRequests    stats.Counter //uopvet:guardedby mu
	estServed      stats.Counter //uopvet:guardedby mu
	estFallthrough stats.Counter //uopvet:guardedby mu
	estLatency     *stats.Hist   //uopvet:guardedby mu
}

// The fields above, in registration order: admitted (requests accepted
// into the queue), fastHits (memo hits answered before admission),
// rejected (429: admission queue full), rejectedDrain
// (503: submitted while draining), completed (simulations resolved),
// failed (resolutions that errored), expired (deadline passed before a
// worker picked it up), timeouts (handler stopped waiting, 504),
// simSampled/simFull (completions split by simulation mode), latency
// (resolution ms) with latMean (running mean for Retry-After hints), and
// the estimate tier: estRequests (past validation), estServed (answered
// by the surrogate), estFallthrough (fell through to simulation),
// estLatency (µs — the fast path is sub-ms).

// counterID names a metrics counter for inc, so callers never hold a
// pointer to a guarded field outside the lock.
type counterID uint8

const (
	cAdmitted counterID = iota
	cFastHits
	cRejected
	cRejectedDrain
	cExpired
	cTimeouts
	cEstRequests
)

func newMetrics(eng *experiments.Engine, p *pool, ws *warehouse.Store, sur *surrogate.Model) *metrics {
	m := &metrics{
		reg:     stats.NewRegistry(),
		latency: stats.NewHistogram(1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000),
		// Microsecond buckets: the fast tier targets p99 < 1ms (1000µs);
		// the top buckets catch fall-through simulations.
		estLatency: stats.NewHistogram(10, 25, 50, 100, 250, 500, 1000, 2500, 10000, 100000, 1000000, 10000000),
	}
	sc := m.reg.Scope("server")
	sc.RegisterCounter("admitted", &m.admitted)
	sc.RegisterCounter("fast_hits", &m.fastHits)
	sc.RegisterCounter("rejected", &m.rejected)
	sc.RegisterCounter("rejected_draining", &m.rejectedDrain)
	sc.RegisterCounter("completed", &m.completed)
	sc.RegisterCounter("failed", &m.failed)
	sc.RegisterCounter("expired", &m.expired)
	sc.RegisterCounter("timeouts", &m.timeouts)
	sim := sc.Scope("simulations")
	sim.RegisterCounter("sampled", &m.simSampled)
	sim.RegisterCounter("full", &m.simFull)
	sc.RegisterHist("latency_ms", m.latency)
	sc.RegisterMean("latency_mean_ms", &m.latMean)
	sc.RegisterGauge("workers", func() float64 { return float64(p.workers) })
	sc.RegisterGauge("queue_capacity", func() float64 { return float64(cap(p.tasks)) })
	sc.RegisterGauge("queue_depth", func() float64 { return float64(len(p.tasks)) })
	sc.RegisterGauge("inflight", func() float64 { return float64(p.inflight.Load()) })
	est := sc.Scope("estimate")
	est.RegisterCounter("requests", &m.estRequests)
	est.RegisterCounter("served", &m.estServed)
	est.RegisterCounter("fallthrough", &m.estFallthrough)
	est.RegisterHist("latency_us", m.estLatency)
	eng.RegisterStats(m.reg.Scope("runcache"))
	if ws != nil {
		ws.RegisterStats(m.reg.Scope("warehouse"))
	}
	if sur != nil {
		sur.RegisterStats(m.reg.Scope("surrogate"))
	}
	return m
}

// inc bumps one counter under the lock.
func (m *metrics) inc(id counterID) {
	m.mu.Lock()
	switch id {
	case cAdmitted:
		m.admitted.Inc()
	case cFastHits:
		m.fastHits.Inc()
	case cRejected:
		m.rejected.Inc()
	case cRejectedDrain:
		m.rejectedDrain.Inc()
	case cExpired:
		m.expired.Inc()
	case cTimeouts:
		m.timeouts.Inc()
	case cEstRequests:
		m.estRequests.Inc()
	}
	m.mu.Unlock()
}

// observe records one finished resolution: outcome counter plus latency,
// with successes split by simulation mode ("sampled" or "full"), so
// sampled+full always equals completed.
func (m *metrics) observe(d time.Duration, mode string, err error) {
	ms := d.Milliseconds()
	m.mu.Lock()
	if err != nil {
		m.failed.Inc()
	} else {
		m.completed.Inc()
		if mode == "sampled" {
			m.simSampled.Inc()
		} else {
			m.simFull.Inc()
		}
	}
	m.latency.Observe(int(ms))
	m.latMean.Observe(float64(ms))
	m.mu.Unlock()
}

// observeEstimate records one answered /v1/estimate: which tier served it
// and the end-to-end latency in microseconds (only answered requests — a
// fall-through that 429s or times out counts in the pool's counters, not
// here).
func (m *metrics) observeEstimate(d time.Duration, served bool) {
	us := d.Microseconds()
	m.mu.Lock()
	if served {
		m.estServed.Inc()
	} else {
		m.estFallthrough.Inc()
	}
	m.estLatency.Observe(int(us))
	m.mu.Unlock()
}

// modes reads the per-mode completion counters (sampled, full).
func (m *metrics) modes() (sampled, full uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.simSampled.Value(), m.simFull.Value()
}

// meanLatency is the running mean resolution time (0 before any finish).
func (m *metrics) meanLatency() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Duration(m.latMean.Value() * float64(time.Millisecond))
}

// snapshot reads the registry (registrations are done at construction, so
// the lock only serializes against counter increments).
func (m *metrics) snapshot() stats.Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.Snapshot()
}
