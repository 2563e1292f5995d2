package server

import (
	"time"

	"uopsim/internal/experiments"
	"uopsim/internal/stats"
	"uopsim/internal/surrogate"
	"uopsim/internal/warehouse"
)

// metrics owns the daemon's stats.Registry. Its instruments are stats'
// concurrency-safe ones, so handler goroutines bump them directly and any
// goroutine may snapshot; gauges read pool atomics and the engine's own
// locked counters.
type metrics struct {
	reg *stats.Registry

	admitted      stats.AtomicCounter // requests accepted into the queue
	fastHits      stats.AtomicCounter // memo hits answered before admission
	rejected      stats.AtomicCounter // 429: admission queue full
	rejectedDrain stats.AtomicCounter // 503: submitted while draining
	failed        stats.AtomicCounter // resolutions that errored
	expired       stats.AtomicCounter // deadline passed before a worker picked it up
	timeouts      stats.AtomicCounter // handler stopped waiting, 504
	simSampled    stats.AtomicCounter // resolved simulations by mode; their
	simFull       stats.AtomicCounter // sum is the completed count
	latency       *stats.SyncHistogram

	// peerFetchErrors counts peer blob fetches that failed other than by
	// a plain miss (see Config.Peers).
	peerFetchErrors stats.AtomicCounter

	// The estimate tier: requests past validation, answered by the
	// surrogate, fallen through to simulation, and latency in µs (the
	// fast path is sub-ms).
	estRequests    stats.AtomicCounter
	estServed      stats.AtomicCounter
	estFallthrough stats.AtomicCounter
	estLatency     *stats.SyncHistogram
}

// countFunc registers a derived count as a counter.
type countFunc func() uint64

func (f countFunc) Value() uint64 { return f() }

func newMetrics(eng *experiments.Engine, p *pool, ws *warehouse.Store, sur *surrogate.Model) *metrics {
	m := &metrics{
		reg: stats.NewRegistry(),
		// Resolution ms; its running mean scales the Retry-After hints.
		latency: stats.NewSyncHistogram(1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000),
		// Microsecond buckets: the fast tier targets p99 < 1ms (1000µs);
		// the top buckets catch fall-through simulations.
		estLatency: stats.NewSyncHistogram(10, 25, 50, 100, 250, 500, 1000, 2500, 10000, 100000, 1000000, 10000000),
	}
	sc := m.reg.Scope("server")
	sc.RegisterCounter("admitted", &m.admitted)
	sc.RegisterCounter("fast_hits", &m.fastHits)
	sc.RegisterCounter("rejected", &m.rejected)
	sc.RegisterCounter("rejected_draining", &m.rejectedDrain)
	sc.RegisterCounter("completed", countFunc(m.completed))
	sc.RegisterCounter("failed", &m.failed)
	sc.RegisterCounter("expired", &m.expired)
	sc.RegisterCounter("timeouts", &m.timeouts)
	sim := sc.Scope("simulations")
	sim.RegisterCounter("sampled", &m.simSampled)
	sim.RegisterCounter("full", &m.simFull)
	modes := m.reg.Family("simulations_total", "mode")
	modes.RegisterCounter("sampled", &m.simSampled)
	modes.RegisterCounter("full", &m.simFull)
	sc.RegisterHist("latency_ms", m.latency)
	sc.RegisterMean("latency_mean_ms", m.latency)
	sc.RegisterGauge("workers", func() float64 { return float64(p.workers) })
	sc.RegisterGauge("queue_capacity", func() float64 { return float64(cap(p.tasks)) })
	sc.RegisterGauge("queue_depth", func() float64 { return float64(len(p.tasks)) })
	sc.RegisterGauge("inflight", func() float64 { return float64(p.inflight.Load()) })
	sc.Scope("peer").RegisterCounter("fetch_errors", &m.peerFetchErrors)
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

// completed counts resolved simulations: the sum of the per-mode family.
func (m *metrics) completed() uint64 { return m.simSampled.Value() + m.simFull.Value() }

// observe records one finished resolution: outcome counter plus latency,
// with successes counted by simulation mode ("sampled" or "full").
func (m *metrics) observe(d time.Duration, mode string, err error) {
	switch {
	case err != nil:
		m.failed.Inc()
	case mode == "sampled":
		m.simSampled.Inc()
	default:
		m.simFull.Inc()
	}
	m.latency.Observe(int(d.Milliseconds()))
}

// observeEstimate records one answered /v1/estimate: which tier served it
// and the end-to-end latency in microseconds (only answered requests — a
// fall-through that 429s or times out counts in the pool's counters, not
// here).
func (m *metrics) observeEstimate(d time.Duration, served bool) {
	if served {
		m.estServed.Inc()
	} else {
		m.estFallthrough.Inc()
	}
	m.estLatency.Observe(int(d.Microseconds()))
}
