package cluster

import (
	"sync"
	"time"

	"uopsim/internal/server"
	"uopsim/internal/stats"
)

// shard is one uopsimd node the gateway fronts: its configured name (the
// base URL from -nodes) and the API client the gateway reuses for every
// request to it. Identity beyond the name — the node's self-reported id,
// uptime, stored point count — comes from /healthz probes and lives in
// the membership.
type shard struct {
	name   string
	client *server.Client
}

// shardHealth is one shard's membership view: probe-derived liveness plus
// the last /healthz payload.
type shardHealth struct {
	Alive bool
	// Strikes is the current consecutive-failure count (reset on success).
	Strikes int
	// Info is the last successful probe's payload (zero until one lands).
	Info server.HealthzInfo
}

// membership tracks which shards are serviceable. Liveness is driven by
// two signals feeding one counter: the background prober's periodic
// /healthz round, and request-path transport failures reported by the
// gateway. failAfter consecutive failures mark a shard down; any probe
// success resets the counter and rejoins it.
type membership struct {
	shards     []*shard
	probeEvery time.Duration
	failAfter  int

	quit chan struct{}
	wg   sync.WaitGroup

	// Cumulative markdowns, rejoins and probe rounds.
	markdowns, rejoins, probes stats.AtomicCounter

	mu     sync.Mutex
	health map[string]*shardHealth //uopvet:guardedby mu
}

// newMembership builds the tracker with every shard optimistically alive
// (the first probe round corrects that before the gateway serves).
func newMembership(shards []*shard, probeEvery time.Duration, failAfter int) *membership {
	m := &membership{
		shards:     shards,
		probeEvery: probeEvery,
		failAfter:  failAfter,
		quit:       make(chan struct{}),
		health:     make(map[string]*shardHealth, len(shards)),
	}
	for _, s := range shards {
		m.health[s.name] = &shardHealth{Alive: true}
	}
	return m
}

// start runs one synchronous probe round — so a shard dead at boot is down
// before the first request routes — then launches the background prober.
func (m *membership) start() {
	m.probeAll()
	m.wg.Add(1)
	go m.probeLoop()
}

// stop terminates the prober and waits for it.
func (m *membership) stop() {
	close(m.quit)
	m.wg.Wait()
}

func (m *membership) probeLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.probeAll()
		case <-m.quit:
			return
		}
	}
}

// probeAll probes every shard once, in configured order.
func (m *membership) probeAll() {
	for _, s := range m.shards {
		info, err := s.client.Health()
		if err != nil {
			m.reportFailure(s.name)
			continue
		}
		m.reportSuccess(s.name, *info)
	}
	m.probes.Inc()
}

// reportSuccess resets the shard's strike count and rejoins it if it was
// down.
func (m *membership) reportSuccess(name string, info server.HealthzInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.health[name]
	if !ok {
		return
	}
	h.Strikes = 0
	h.Info = info
	if !h.Alive {
		h.Alive = true
		m.rejoins.Inc()
	}
}

// reportFailure adds one strike; failAfter consecutive strikes mark the
// shard down. Both the prober and the gateway's request path call this,
// so a burst of transport errors downs a shard faster than the probe
// cadence alone would.
func (m *membership) reportFailure(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.health[name]
	if !ok {
		return
	}
	h.Strikes++
	if h.Alive && h.Strikes >= m.failAfter {
		h.Alive = false
		m.markdowns.Inc()
	}
}

// alive reports whether name is currently serviceable.
func (m *membership) alive(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.health[name]
	return ok && h.Alive
}

// aliveCount counts serviceable shards.
func (m *membership) aliveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.shards {
		if m.health[s.name].Alive {
			n++
		}
	}
	return n
}

// healthOf returns a copy of one shard's membership view.
func (m *membership) healthOf(name string) (shardHealth, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.health[name]
	if !ok {
		return shardHealth{}, false
	}
	return *h, true
}
