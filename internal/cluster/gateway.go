package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"uopsim/internal/experiments"
	"uopsim/internal/runcache"
	"uopsim/internal/server"
)

// Config sizes the gateway. Nodes is the only required field.
type Config struct {
	// Nodes is the static shard list: uopsimd base URLs such as
	// "http://127.0.0.1:8091". Order does not matter — the ring sorts.
	Nodes []string
	// ProbeInterval is the background /healthz cadence (default 2s).
	ProbeInterval time.Duration
	// ProbeFails is the consecutive-failure count that marks a shard down
	// (default 2). Request-path transport errors count toward it too.
	ProbeFails int
	// MaxSweepPoints caps the points accepted per /v1/sweep call
	// (default 1024). Sub-batches forwarded to shards are always subsets,
	// so the shards' own caps are never the binding constraint.
	MaxSweepPoints int
	// HTTP overrides the pooled client used for shard requests. The probe
	// path always uses its own short-timeout client regardless.
	HTTP *http.Client
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeFails <= 0 {
		c.ProbeFails = 2
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 1024
	}
	if c.HTTP == nil {
		c.HTTP = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return c
}

// Gateway fronts a fleet of uopsimd shards behind the daemon's own API:
// /v1/simulate, /v1/estimate and /v1/sweep route each point to the shard
// owning its fingerprint (so cluster-wide, every unique point simulates
// exactly once), /v1/query fans out and merges, /v1/stats aggregates.
// While a shard is down its points spill to the next ring owner; when it
// rejoins, it pulls whatever it misses from its peers (server.Config.Peers),
// so the gateway holds no per-point state.
type Gateway struct {
	cfg    Config
	ring   *Ring
	mem    *membership
	met    *gwMetrics
	mux    *http.ServeMux
	shards map[string]*shard // immutable after New
	names  []string          // sorted shard names, for deterministic iteration
	start  time.Time
}

// New builds a gateway over cfg.Nodes. Call Start to begin probing, Stop
// on the way down.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: gateway needs at least one node")
	}
	g := &Gateway{
		cfg:    cfg,
		ring:   NewRing(cfg.Nodes, DefaultVNodes),
		shards: make(map[string]*shard, len(cfg.Nodes)),
		start:  time.Now(),
	}
	g.names = g.ring.Nodes()
	if len(g.names) != len(cfg.Nodes) {
		return nil, fmt.Errorf("cluster: -nodes lists %d URLs but only %d are distinct", len(cfg.Nodes), len(g.names))
	}
	// Probes get their own short-timeout client so a wedged shard cannot
	// stall the prober for the duration of a simulation.
	probeHTTP := &http.Client{Timeout: 5 * time.Second}
	mems := make([]*shard, 0, len(g.names))
	for _, name := range g.names {
		sh := &shard{name: name, client: &server.Client{BaseURL: name, HTTP: cfg.HTTP}}
		g.shards[name] = sh
		mems = append(mems, &shard{name: name, client: &server.Client{BaseURL: name, HTTP: probeHTTP}})
	}
	g.mem = newMembership(mems, cfg.ProbeInterval, cfg.ProbeFails)
	g.met = newGwMetrics(g.names, g.ring, g.mem)
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("/v1/simulate", server.Method(http.MethodPost, "POST a SimulateRequest to this endpoint", g.handleSimulate))
	g.mux.HandleFunc("/v1/estimate", server.Method(http.MethodPost, "POST an EstimateRequest to this endpoint", g.handleEstimate))
	g.mux.HandleFunc("/v1/sweep", server.Method(http.MethodPost, "POST a SweepRequest to this endpoint", g.handleSweep))
	g.mux.HandleFunc("/v1/query", server.Method(http.MethodPost, "POST a QueryRequest to this endpoint", g.handleQuery))
	g.mux.HandleFunc("/v1/stats", server.Method(http.MethodGet, "GET this endpoint", g.handleStats))
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/metrics", server.Metrics(g.met.reg, "uopgate"))
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Ring exposes the assignment ring (read-only).
func (g *Gateway) Ring() *Ring { return g.ring }

// Start runs one synchronous probe round (dead-at-boot shards are down
// before the first request routes) and launches the prober.
func (g *Gateway) Start() { g.mem.start() }

// Stop terminates the prober and waits for it.
func (g *Gateway) Stop() { g.mem.stop() }

// candidates lists fp's live ring owners in spill-over order. Down shards
// are skipped outright — that is the spill. Empty means no live shard can
// serve the point.
func (g *Gateway) candidates(fp runcache.Fingerprint) []string {
	owners := g.ring.Owners(string(fp), g.ring.Len())
	live := owners[:0]
	for _, name := range owners {
		if g.mem.alive(name) {
			live = append(live, name)
		}
	}
	return live
}

// served counts a spill when a shard other than fp's ring owner answered.
func (g *Gateway) served(fp runcache.Fingerprint, name string) {
	if name != g.ring.Owner(string(fp)) {
		g.met.spills.Inc()
	}
}

// passThrough reports whether a shard error should go back to the client
// as-is (the shard answered and meant it: validation errors, backpressure)
// rather than trigger a reroute. Transport failures have no StatusError;
// 503 is a draining/restarting shard — both reroute.
func passThrough(err error) (*server.StatusError, bool) {
	var se *server.StatusError
	if errors.As(err, &se) && se.Code != http.StatusServiceUnavailable {
		return se, true
	}
	return nil, false
}

// forwardStatusError re-emits a shard's non-2xx answer, keeping the
// backpressure contract intact (429 carries its Retry-After hint).
func (g *Gateway) forwardStatusError(w http.ResponseWriter, se *server.StatusError) {
	if se.Code == http.StatusTooManyRequests && se.RetryAfter > 0 {
		secs := int(se.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	server.WriteError(w, se.Code, "%s", se.Message)
}

func (g *Gateway) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req server.SimulateRequest
	g.routePoint(w, r, "/v1/simulate", "point", &req, &req.PointRequest)
}

func (g *Gateway) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req server.EstimateRequest
	g.routePoint(w, r, "/v1/estimate", "estimate", &req, &req.PointRequest)
}

// routePoint forwards a one-point request to path on the point's live
// ring owners in spill-over order, until one answers. req is the body to
// decode and forward (a pointer, so it is boxed once, not per candidate),
// pt the point inside it; noun names the point in the 502 message. A
// shard's 200 goes back byte for byte, read whole before any byte goes
// out, so a shard that dies mid-body fails over to the next candidate
// instead of leaving a truncated 200.
func (g *Gateway) routePoint(w http.ResponseWriter, r *http.Request, path, noun string, req any, pt *experiments.PointRequest) {
	g.met.requests.Inc()
	if !server.DecodeRequest(w, r, req) {
		return
	}
	*pt = pt.WithDefaults()
	if err := pt.Validate(); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fp, err := pt.Fingerprint()
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	body := server.GetBody()
	defer server.PutBody(body)
	cands := g.candidates(fp)
	for i, name := range cands {
		if i > 0 {
			g.met.retries.Inc()
		}
		t0 := time.Now()
		body.Reset()
		err := g.shards[name].client.Post(path, req, body)
		g.met.observeNode(name, time.Since(t0), err != nil)
		if err == nil {
			g.served(fp, name)
			server.WriteBody(w, http.StatusOK, body.Bytes())
			return
		}
		if se, ok := passThrough(err); ok {
			g.met.errors.Inc()
			g.forwardStatusError(w, se)
			return
		}
		g.mem.reportFailure(name)
	}
	g.met.errors.Inc()
	server.WriteError(w, http.StatusBadGateway, "no live shard could serve the %s (%d tried, %d/%d nodes alive)",
		noun, len(cands), g.mem.aliveCount(), g.ring.Len())
}

func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc()
	req, ok := server.DecodeSweep(w, r, g.cfg.MaxSweepPoints, "gateway")
	if !ok {
		return
	}
	pts := make([]experiments.PointRequest, len(req.Points))
	fps := make([]runcache.Fingerprint, len(req.Points))
	for i, p := range req.Points {
		pts[i] = p.WithDefaults()
		if err := pts[i].Validate(); err != nil {
			server.WriteError(w, http.StatusBadRequest, "points[%d]: %v", i, err)
			return
		}
		fp, err := pts[i].Fingerprint()
		if err != nil {
			server.WriteError(w, http.StatusInternalServerError, "points[%d]: %v", i, err)
			return
		}
		fps[i] = fp
	}

	// Scatter in rounds: group unanswered points by their best untried
	// candidate, run one /v1/sweep per shard concurrently, remap each
	// line's index back to the caller's array, requeue whatever a failed
	// shard left unanswered for the next round. The channel is buffered to
	// the batch so a slow client write never blocks a forwarding goroutine;
	// the orchestrator closes it when every point is answered or exhausted.
	lines := make(chan server.SweepLine, len(pts))
	go g.scatterSweep(pts, fps, req.TimeoutMS, lines)
	server.StreamSweep(w, lines)
}

// scatterSweep drives the rounds and closes lines when done.
func (g *Gateway) scatterSweep(pts []experiments.PointRequest, fps []runcache.Fingerprint, timeoutMS int64, lines chan<- server.SweepLine) {
	defer close(lines)
	pending := make([]int, len(pts))
	for i := range pts {
		pending[i] = i
	}
	tried := make([]map[string]bool, len(pts))
	for i := range tried {
		tried[i] = make(map[string]bool, 2)
	}
	// Each point tries each shard at most once, so len(names) rounds bound
	// the loop even with every shard flapping.
	for round := 0; round < len(g.names) && len(pending) > 0; round++ {
		groups := make(map[string][]int, len(g.names))
		var exhausted []int
		for _, idx := range pending {
			target := ""
			for _, name := range g.candidates(fps[idx]) {
				if !tried[idx][name] {
					target = name
					break
				}
			}
			if target == "" {
				exhausted = append(exhausted, idx)
				continue
			}
			tried[idx][target] = true
			groups[target] = append(groups[target], idx)
		}
		for _, idx := range exhausted {
			g.failLine(lines, pts, idx, fmt.Sprintf("no live shard could serve the point (%d/%d nodes alive)",
				g.mem.aliveCount(), g.ring.Len()))
		}
		var (
			ansMu    sync.Mutex
			answered = make(map[int]bool, len(pending))
			wg       sync.WaitGroup
		)
		// forward sends points idxs to shard name as one sub-sweep and
		// remaps each line's index back to the caller's array. A shard that
		// refuses the sub-batch (a point over its per-point cap) has
		// answered, not failed, and is struck for nothing: a refused batch
		// of several points is re-sent one point at a time, so only the bad
		// point fails, and a refused single point answers with the shard's
		// message under the caller's index. Any other error is returned
		// with whatever the shard left unanswered.
		var forward func(name string, idxs []int) error
		forward = func(name string, idxs []int) error {
			sub := server.SweepRequest{Points: make([]experiments.PointRequest, len(idxs)), TimeoutMS: timeoutMS}
			for j, idx := range idxs {
				sub.Points[j] = pts[idx]
			}
			err := g.shards[name].client.Sweep(sub, func(sl server.SweepLine) error {
				if sl.Index < 0 || sl.Index >= len(idxs) {
					return fmt.Errorf("shard %s returned out-of-range sweep index %d", name, sl.Index)
				}
				idx := idxs[sl.Index]
				sl.Index = idx
				ansMu.Lock()
				answered[idx] = true
				ansMu.Unlock()
				if sl.Error == "" {
					g.served(fps[idx], name)
				}
				g.met.sweepLines.Inc()
				// Lines stream, so they count with no latency.
				g.met.perNode[name].requests.Inc()
				lines <- sl
				return nil
			})
			se, ok := passThrough(err)
			switch {
			case !ok:
				return err
			case len(idxs) > 1:
				for _, idx := range idxs {
					if err := forward(name, []int{idx}); err != nil {
						return err
					}
				}
				return nil
			}
			idx := idxs[0]
			ansMu.Lock()
			answered[idx] = true
			ansMu.Unlock()
			g.failLine(lines, pts, idx, fmt.Sprintf("points[%d]: %s", idx, strings.TrimPrefix(se.Message, "points[0]: ")))
			return nil
		}
		for _, name := range g.names { // deterministic shard order
			idxs := groups[name]
			if len(idxs) == 0 {
				continue
			}
			wg.Add(1)
			go func(name string, idxs []int) {
				defer wg.Done()
				if err := forward(name, idxs); err != nil {
					// Transport failure or mid-stream death: the shard is
					// suspect; whatever it left unanswered goes back into
					// the next round.
					g.mem.reportFailure(name)
					g.met.retries.Inc()
				}
			}(name, idxs)
		}
		wg.Wait()
		next := pending[:0]
		ansMu.Lock()
		for _, idx := range pending {
			if !answered[idx] && !slices.Contains(exhausted, idx) {
				next = append(next, idx)
			}
		}
		ansMu.Unlock()
		pending = next
	}
	// Anything still pending exhausted the round bound (every shard tried
	// or down): emit error lines so the caller gets one line per point.
	for _, idx := range pending {
		g.failLine(lines, pts, idx, "every shard failed or was down before the point resolved")
	}
}

// failLine answers point idx of a sweep with an error line and counts it.
func (g *Gateway) failLine(lines chan<- server.SweepLine, pts []experiments.PointRequest, idx int, msg string) {
	g.met.errors.Inc()
	lines <- server.SweepLine{Index: idx, Workload: pts[idx].Workload, Scheme: pts[idx].Scheme, Error: msg}
}

// handleQuery fans the query out to every live shard and merges: rows
// sorted by fingerprint, duplicates (a spilled point lives on its
// spill-over neighbour and, once pulled, on its owner too) collapsed to
// one, the limit applied to the merged set. The barrier is inherent — a
// global sort needs every shard's rows.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc()
	var q server.QueryRequest
	if !server.DecodeRequest(w, r, &q) {
		return
	}
	type shardRows struct {
		rows []server.QueryRow
		err  error
		ok   bool // the shard was live and answered
	}
	results := make([]shardRows, len(g.names))
	g.eachLive(func(i int, name string) {
		t0 := time.Now()
		err := g.shards[name].client.Query(q, func(row server.QueryRow) error {
			results[i].rows = append(results[i].rows, row)
			return nil
		})
		g.met.observeNode(name, time.Since(t0), err != nil)
		results[i].err, results[i].ok = err, err == nil
		if err != nil {
			if _, ok := passThrough(err); !ok {
				g.mem.reportFailure(name)
			}
		}
	})
	var (
		merged     []server.QueryRow
		reached    int
		badRequest *server.StatusError
	)
	for _, res := range results {
		var se *server.StatusError
		if errors.As(res.err, &se) && se.Code == http.StatusBadRequest {
			badRequest = se // the query itself is malformed; every shard agrees
		}
		if res.ok {
			reached++
			merged = append(merged, res.rows...)
		}
	}
	if badRequest != nil {
		g.met.errors.Inc()
		g.forwardStatusError(w, badRequest)
		return
	}
	if reached == 0 {
		g.met.errors.Inc()
		server.WriteError(w, http.StatusBadGateway, "no shard could serve the query (%d/%d nodes alive)",
			g.mem.aliveCount(), g.ring.Len())
		return
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Fingerprint < merged[j].Fingerprint })
	deduped := merged[:0]
	for i, row := range merged {
		if i > 0 && row.Fingerprint == merged[i-1].Fingerprint {
			continue
		}
		deduped = append(deduped, row)
	}
	if q.Limit > 0 && len(deduped) > q.Limit {
		deduped = deduped[:q.Limit]
	}
	server.WriteRows(w, deduped)
}

// eachLive runs fn concurrently for every live shard, i indexing g.names,
// and returns once every call has.
func (g *Gateway) eachLive(fn func(i int, name string)) {
	var wg sync.WaitGroup
	for i, name := range g.names {
		if g.mem.alive(name) {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				fn(i, name)
			}(i, name)
		}
	}
	wg.Wait()
}

// NodeStatus is one shard's row in /v1/stats: gateway-side traffic
// counters plus the shard's own identity and engine counters (fetched
// live; nil for unreachable shards).
type NodeStatus struct {
	Name string `json:"name"`
	// Node is the shard's self-reported identity from its last probe.
	Node    string `json:"node,omitempty"`
	Alive   bool   `json:"alive"`
	Strikes int    `json:"strikes,omitempty"`
	// Points is the shard's stored design-point count at last probe.
	Points        int     `json:"points"`
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	Requests      uint64  `json:"requests"`
	Errors        uint64  `json:"errors"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP95MS  float64 `json:"latency_p95_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	// Engine is the shard's live resolution counters (nil if unreachable).
	Engine *runcache.Stats `json:"engine,omitempty"`
}

// RingInfo describes the assignment ring.
type RingInfo struct {
	Nodes  int `json:"nodes"`
	VNodes int `json:"vnodes"`
	Points int `json:"points"`
}

// GatewayCounters is the gateway's own traffic ledger.
type GatewayCounters struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Retries  uint64 `json:"retries"`
	// Spills counts answers from a shard other than the point's ring owner.
	Spills      uint64 `json:"spills"`
	SweepLines  uint64 `json:"sweep_lines"`
	Markdowns   uint64 `json:"markdowns"`
	Rejoins     uint64 `json:"rejoins"`
	ProbeRounds uint64 `json:"probe_rounds"`
}

// ClusterTotals sums the reachable shards' engine counters. With routing
// working, Simulated across the fleet equals the number of unique points
// submitted — the cluster-wide dedupe invariant uopload -gateway checks.
type ClusterTotals struct {
	ShardsReporting int            `json:"shards_reporting"`
	Engine          runcache.Stats `json:"engine"`
}

// StatsResponse is the gateway's /v1/stats body.
type StatsResponse struct {
	Ring       RingInfo        `json:"ring"`
	NodesAlive int             `json:"nodes_alive"`
	Gateway    GatewayCounters `json:"gateway"`
	// Balance is max/mean of per-shard gateway requests (1.0 = even).
	Balance       float64       `json:"balance"`
	Nodes         []NodeStatus  `json:"nodes"`
	Cluster       ClusterTotals `json:"cluster"`
	UptimeSeconds float64       `json:"uptime_seconds"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, g.statsResponse())
}

func (g *Gateway) statsResponse() StatsResponse {
	met, mem := g.met, g.mem
	resp := StatsResponse{
		Ring:       RingInfo{Nodes: g.ring.Len(), VNodes: g.ring.VNodes(), Points: g.ring.Points()},
		NodesAlive: mem.aliveCount(),
		Gateway: GatewayCounters{
			Requests:    met.requests.Value(),
			Errors:      met.errors.Value(),
			Retries:     met.retries.Value(),
			Spills:      met.spills.Value(),
			SweepLines:  met.sweepLines.Value(),
			Markdowns:   mem.markdowns.Value(),
			Rejoins:     mem.rejoins.Value(),
			ProbeRounds: mem.probes.Value(),
		},
		Balance:       met.balance(),
		Nodes:         make([]NodeStatus, 0, len(g.names)),
		UptimeSeconds: time.Since(g.start).Seconds(),
	}
	// Fetch every live shard's /v1/stats concurrently so the cluster
	// totals are one consistent-ish snapshot rather than a serial drift.
	engines := make([]*server.StatsResponse, len(g.names))
	g.eachLive(func(i int, name string) {
		engines[i], _ = g.shards[name].client.Stats()
	})
	for i, name := range g.names {
		nc := met.perNode[name]
		ns := NodeStatus{
			Name:         name,
			Requests:     nc.requests.Value(),
			Errors:       nc.errors.Value(),
			LatencyP50MS: nc.lat.Quantile(0.50),
			LatencyP95MS: nc.lat.Quantile(0.95),
			LatencyP99MS: nc.lat.Quantile(0.99),
		}
		if h, ok := g.mem.healthOf(name); ok {
			ns.Alive = h.Alive
			ns.Strikes = h.Strikes
			ns.Node = h.Info.Node
			ns.Points = h.Info.Points
			ns.UptimeSeconds = h.Info.UptimeSeconds
		}
		if st := engines[i]; st != nil {
			es := st.Engine
			ns.Engine = &es
			resp.Cluster.ShardsReporting++
			resp.Cluster.Engine.Submitted += es.Submitted
			resp.Cluster.Engine.Unique += es.Unique
			resp.Cluster.Engine.MemoHits += es.MemoHits
			resp.Cluster.Engine.Simulated += es.Simulated
			resp.Cluster.Engine.DiskHits += es.DiskHits
			resp.Cluster.Engine.PeerHits += es.PeerHits
			resp.Cluster.Engine.DiskWrites += es.DiskWrites
			resp.Cluster.Engine.BadBlobs += es.BadBlobs
			resp.Cluster.Engine.Verified += es.Verified
			resp.Cluster.Engine.VerifyFailed += es.VerifyFailed
		}
		resp.Nodes = append(resp.Nodes, ns)
	}
	return resp
}

// GatewayHealthz is the gateway's /healthz body.
type GatewayHealthz struct {
	Status        string  `json:"status"`
	NodesAlive    int     `json:"nodes_alive"`
	NodesTotal    int     `json:"nodes_total"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// handleHealthz answers 200 while at least one shard is serviceable — a
// degraded cluster still serves — and 503 when none is.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	alive := g.mem.aliveCount()
	body := GatewayHealthz{
		Status:        "ok",
		NodesAlive:    alive,
		NodesTotal:    g.ring.Len(),
		UptimeSeconds: time.Since(g.start).Seconds(),
	}
	if alive == 0 {
		body.Status = "no live shards"
		server.WriteJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	server.WriteJSON(w, http.StatusOK, body)
}
