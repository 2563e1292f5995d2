package cluster

import (
	"time"

	"uopsim/internal/stats"
)

// gwMetrics owns the gateway's stats.Registry. Its instruments are stats'
// concurrency-safe ones and perNode is fixed at construction, so request
// handlers bump them with no lock and any goroutine may snapshot. Shard
// names are URLs, not legal path segments, so per-shard request and error
// counts are members of the node_requests_total and node_errors_total
// families, labelled node="<url>"; per-shard latency feeds /v1/stats only.
type gwMetrics struct {
	reg *stats.Registry

	requests   stats.AtomicCounter // API requests routed
	errors     stats.AtomicCounter // requests no shard could serve, or that a shard failed
	spills     stats.AtomicCounter // answers from a shard other than the point's ring owner
	sweepLines stats.AtomicCounter // scatter-gather lines merged
	retries    stats.AtomicCounter // per-point reroutes after a shard failure

	perNode map[string]*nodeCounters
}

// nodeCounters is one shard's traffic as seen from the gateway.
type nodeCounters struct {
	requests, errors stats.AtomicCounter
	lat              *stats.SyncHistogram // proxied-request latency, ms
}

func newGwMetrics(nodeNames []string, ring *Ring, mem *membership) *gwMetrics {
	m := &gwMetrics{
		reg:     stats.NewRegistry(),
		perNode: make(map[string]*nodeCounters, len(nodeNames)),
	}
	nodeReqs := m.reg.Family("node_requests_total", "node")
	nodeErrs := m.reg.Family("node_errors_total", "node")
	for _, name := range nodeNames {
		nc := &nodeCounters{
			lat: stats.NewSyncHistogram(1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000),
		}
		m.perNode[name] = nc
		nodeReqs.RegisterCounter(name, &nc.requests)
		nodeErrs.RegisterCounter(name, &nc.errors)
	}
	sc := m.reg.Scope("gateway")
	sc.RegisterCounter("requests", &m.requests)
	sc.RegisterCounter("errors", &m.errors)
	sc.RegisterCounter("spills", &m.spills)
	sc.RegisterCounter("sweep_lines", &m.sweepLines)
	sc.RegisterCounter("retries", &m.retries)
	sc.RegisterGauge("ring_nodes", func() float64 { return float64(ring.Len()) })
	sc.RegisterGauge("ring_vnodes", func() float64 { return float64(ring.VNodes()) })
	sc.RegisterGauge("ring_points", func() float64 { return float64(ring.Points()) })
	sc.RegisterGauge("nodes_alive", func() float64 { return float64(mem.aliveCount()) })
	sc.RegisterGauge("markdowns", func() float64 { return float64(mem.markdowns.Value()) })
	sc.RegisterGauge("rejoins", func() float64 { return float64(mem.rejoins.Value()) })
	sc.RegisterGauge("probe_rounds", func() float64 { return float64(mem.probes.Value()) })
	return m
}

// observeNode records one proxied request to a shard: outcome plus
// end-to-end latency (queueing on the shard included — that is what the
// gateway's caller experiences).
func (m *gwMetrics) observeNode(name string, d time.Duration, failed bool) {
	nc := m.perNode[name]
	nc.requests.Inc()
	if failed {
		nc.errors.Inc()
	}
	nc.lat.Observe(int(d.Milliseconds()))
}

// balance is the max/mean ratio of per-shard request counts (1.0 =
// perfectly even; 0 before any traffic).
func (m *gwMetrics) balance() float64 {
	var total, max uint64
	for _, nc := range m.perNode {
		n := nc.requests.Value()
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 || len(m.perNode) == 0 {
		return 0
	}
	mean := float64(total) / float64(len(m.perNode))
	return float64(max) / mean
}
