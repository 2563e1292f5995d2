package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
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
	// VNodes is the virtual-node count per shard (default DefaultVNodes).
	VNodes int
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
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
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

// placement records that fp's result lives on a shard other than its ring
// owner (a spill, or pre-rebalance residue). The point request rides along
// so replication can rebuild the feature vector for the owner's index.
type placement struct {
	node string
	pt   experiments.PointRequest
}

// replJob copies one spilled blob from the shard holding it to its owner.
type replJob struct {
	fp       runcache.Fingerprint
	from, to string
	pt       experiments.PointRequest
}

// Gateway fronts a fleet of uopsimd shards behind the daemon's own API:
// /v1/simulate, /v1/estimate and /v1/sweep route each point to the shard
// owning its fingerprint (so cluster-wide, every unique point simulates
// exactly once), /v1/query fans out and merges, /v1/stats aggregates.
// While a shard is down its points spill to the next ring owner; when it
// rejoins, spilled results replicate back in the background and requests
// read through from the spill-over neighbor until they land.
type Gateway struct {
	cfg    Config
	ring   *Ring
	mem    *membership
	met    *gwMetrics
	mux    *http.ServeMux
	shards map[string]*shard // immutable after New
	names  []string          // sorted shard names, for deterministic iteration
	start  time.Time

	replJobs chan replJob
	quit     chan struct{}
	wg       sync.WaitGroup

	mu          sync.Mutex
	placed      map[runcache.Fingerprint]placement //uopvet:guardedby mu
	replPending map[runcache.Fingerprint]bool      //uopvet:guardedby mu
}

// New builds a gateway over cfg.Nodes. Call Start to begin probing and
// replicating, Stop on the way down.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: gateway needs at least one node")
	}
	g := &Gateway{
		cfg:         cfg,
		ring:        NewRing(cfg.Nodes, cfg.VNodes),
		shards:      make(map[string]*shard, len(cfg.Nodes)),
		start:       time.Now(),
		replJobs:    make(chan replJob, 1024),
		quit:        make(chan struct{}),
		placed:      make(map[runcache.Fingerprint]placement),
		replPending: make(map[runcache.Fingerprint]bool),
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
	g.mem = newMembership(mems, cfg.ProbeInterval, cfg.ProbeFails, g.onRejoin)
	g.met = newGwMetrics(g.names, g.ring, g.mem)
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("/v1/simulate", g.handleSimulate)
	g.mux.HandleFunc("/v1/estimate", g.handleEstimate)
	g.mux.HandleFunc("/v1/sweep", g.handleSweep)
	g.mux.HandleFunc("/v1/query", g.handleQuery)
	g.mux.HandleFunc("/v1/stats", g.handleStats)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Ring exposes the assignment ring (read-only).
func (g *Gateway) Ring() *Ring { return g.ring }

// Start runs one synchronous probe round (dead-at-boot shards are down
// before the first request routes) and launches the prober and the
// replication worker.
func (g *Gateway) Start() {
	g.mem.start()
	g.wg.Add(1)
	go g.replWorker()
}

// Stop terminates the prober and replication worker and waits for both.
func (g *Gateway) Stop() {
	g.mem.stop()
	close(g.quit)
	g.wg.Wait()
}

// candidates orders the shards to try for fp: the shard known to hold its
// result first (the read-through path after a spill), then live ring
// owners in spill-over order. Down shards are skipped outright — that is
// the spill. Empty means no live shard can serve the point.
func (g *Gateway) candidates(fp runcache.Fingerprint) []string {
	g.mu.Lock()
	pl, hasPlaced := g.placed[fp]
	g.mu.Unlock()
	owners := g.ring.Owners(string(fp), g.ring.Len())
	out := make([]string, 0, len(owners)+1)
	if hasPlaced && g.mem.alive(pl.node) {
		out = append(out, pl.node)
	}
	for _, name := range owners {
		if hasPlaced && name == pl.node {
			continue
		}
		if g.mem.alive(name) {
			out = append(out, name)
		}
	}
	return out
}

// recordServed books where fp's result now lives. Off-owner serves are
// spills (owner down) or peer reads (owner back up, result not yet
// replicated home); peer reads enqueue the replication.
func (g *Gateway) recordServed(fp runcache.Fingerprint, pt experiments.PointRequest, servedBy string) {
	owner := g.ring.Owner(string(fp))
	if servedBy == owner {
		g.mu.Lock()
		delete(g.placed, fp)
		g.mu.Unlock()
		return
	}
	g.mu.Lock()
	g.placed[fp] = placement{node: servedBy, pt: pt}
	g.mu.Unlock()
	if g.mem.alive(owner) {
		g.met.inc(cPeerReads)
		g.enqueueRepl(replJob{fp: fp, from: servedBy, to: owner, pt: pt})
	} else {
		g.met.inc(cSpills)
	}
}

// enqueueRepl schedules one blob copy, deduplicating in-flight jobs. A
// full queue drops the job — the next read-through or rejoin re-enqueues.
func (g *Gateway) enqueueRepl(j replJob) {
	g.mu.Lock()
	if g.replPending[j.fp] {
		g.mu.Unlock()
		return
	}
	g.replPending[j.fp] = true
	g.mu.Unlock()
	select {
	case g.replJobs <- j:
	default:
		g.mu.Lock()
		delete(g.replPending, j.fp)
		g.mu.Unlock()
	}
}

func (g *Gateway) replWorker() {
	defer g.wg.Done()
	for {
		select {
		case j := <-g.replJobs:
			g.replicate(j)
		case <-g.quit:
			return
		}
	}
}

// replicate copies one blob from the shard holding it to its ring owner:
// fetch, re-derive the feature vector (so the owner's warehouse indexes
// the record as if it had simulated the point itself), put. Success
// retires the placement; failure just clears the pending mark so a later
// read or rejoin can retry.
func (g *Gateway) replicate(j replJob) {
	blob, err := g.shards[j.from].client.FetchBlob(string(j.fp))
	if err == nil {
		var feats runcache.Features
		feats, err = j.pt.Features()
		if err == nil {
			err = g.shards[j.to].client.PutBlob(server.BlobPut{
				Fingerprint: string(j.fp),
				Features:    feats,
				Blob:        blob,
			})
		}
	}
	g.mu.Lock()
	delete(g.replPending, j.fp)
	if err == nil {
		if pl, ok := g.placed[j.fp]; ok && pl.node == j.from {
			delete(g.placed, j.fp)
		}
	}
	g.mu.Unlock()
	if err != nil {
		g.met.inc(cReplFailed)
		return
	}
	g.met.inc(cReplications)
}

// onRejoin is the membership's recovery hook: every placement whose ring
// owner is the recovered shard gets a replication job so its spilled
// result migrates home. Keys are collected and sorted before use so the
// job order is deterministic.
func (g *Gateway) onRejoin(name string) {
	g.mu.Lock()
	fps := make([]string, 0, len(g.placed))
	for fp := range g.placed {
		fps = append(fps, string(fp))
	}
	g.mu.Unlock()
	sort.Strings(fps)
	for _, f := range fps {
		if g.ring.Owner(f) != name {
			continue
		}
		fp := runcache.Fingerprint(f)
		g.mu.Lock()
		pl, ok := g.placed[fp]
		g.mu.Unlock()
		if !ok || pl.node == name {
			continue
		}
		g.enqueueRepl(replJob{fp: fp, from: pl.node, to: name, pt: pl.pt})
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
	if r.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, "POST a SimulateRequest to this endpoint")
		return
	}
	g.met.inc(cRequests)
	var req server.SimulateRequest
	if err := server.DecodeJSON(w, r, simulateBodyLimit, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pt := req.PointRequest.WithDefaults()
	if err := pt.Validate(); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fp, err := pt.Fingerprint()
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	cands := g.candidates(fp)
	for i, name := range cands {
		if i > 0 {
			g.met.inc(cRetries)
		}
		t0 := time.Now()
		resp, err := g.shards[name].client.Simulate(server.SimulateRequest{PointRequest: pt, TimeoutMS: req.TimeoutMS})
		g.met.observeNode(name, time.Since(t0), err != nil)
		if err == nil {
			g.recordServed(fp, pt, name)
			server.WriteJSON(w, http.StatusOK, resp)
			return
		}
		if se, ok := passThrough(err); ok {
			g.met.inc(cErrors)
			g.forwardStatusError(w, se)
			return
		}
		g.mem.reportFailure(name)
	}
	g.met.inc(cErrors)
	server.WriteError(w, http.StatusBadGateway, "no live shard could serve the point (%d tried, %d/%d nodes alive)",
		len(cands), g.mem.aliveCount(), g.ring.Len())
}

func (g *Gateway) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, "POST an EstimateRequest to this endpoint")
		return
	}
	g.met.inc(cRequests)
	var req server.EstimateRequest
	if err := server.DecodeJSON(w, r, simulateBodyLimit, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pt := req.PointRequest.WithDefaults()
	if err := pt.Validate(); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fp, err := pt.Fingerprint()
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	cands := g.candidates(fp)
	for i, name := range cands {
		if i > 0 {
			g.met.inc(cRetries)
		}
		t0 := time.Now()
		fwd := req
		fwd.PointRequest = pt
		resp, err := g.shards[name].client.Estimate(fwd)
		g.met.observeNode(name, time.Since(t0), err != nil)
		if err == nil {
			// Only a simulated answer persists a blob worth tracking; a
			// surrogate prediction leaves nothing to replicate.
			if resp.Source == "simulated" {
				g.recordServed(fp, pt, name)
			}
			server.WriteJSON(w, http.StatusOK, resp)
			return
		}
		if se, ok := passThrough(err); ok {
			g.met.inc(cErrors)
			g.forwardStatusError(w, se)
			return
		}
		g.mem.reportFailure(name)
	}
	g.met.inc(cErrors)
	server.WriteError(w, http.StatusBadGateway, "no live shard could serve the estimate (%d tried, %d/%d nodes alive)",
		len(cands), g.mem.aliveCount(), g.ring.Len())
}

// sweepBodyLimit mirrors the daemon's: scale with the point cap.
func (g *Gateway) sweepBodyLimit() int64 {
	return simulateBodyLimit + int64(g.cfg.MaxSweepPoints)*(16<<10)
}

func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, "POST a SweepRequest to this endpoint")
		return
	}
	g.met.inc(cRequests)
	var req server.SweepRequest
	if err := server.DecodeJSON(w, r, g.sweepBodyLimit(), &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Points) == 0 {
		server.WriteError(w, http.StatusBadRequest, "sweep needs at least one point")
		return
	}
	if len(req.Points) > g.cfg.MaxSweepPoints {
		server.WriteError(w, http.StatusBadRequest, "sweep of %d points exceeds this gateway's cap of %d", len(req.Points), g.cfg.MaxSweepPoints)
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

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Scatter in rounds: group unanswered points by their best untried
	// candidate, run one /v1/sweep per shard concurrently, remap each
	// line's index back to the caller's array, requeue whatever a failed
	// shard left unanswered for the next round. The channel is buffered to
	// the batch so a slow client write never blocks a forwarding goroutine;
	// the orchestrator closes it when every point is answered or exhausted.
	lines := make(chan server.SweepLine, len(pts))
	go g.scatterSweep(pts, fps, req.TimeoutMS, lines)

	enc := json.NewEncoder(w)
	for line := range lines {
		if err := enc.Encode(line); err != nil {
			// Client went away; keep draining so the scatterer can exit.
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
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
			g.met.inc(cErrors)
			lines <- server.SweepLine{
				Index:    idx,
				Workload: pts[idx].Workload,
				Scheme:   pts[idx].Scheme,
				Error: fmt.Sprintf("no live shard could serve the point (%d/%d nodes alive)",
					g.mem.aliveCount(), g.ring.Len()),
			}
		}
		var (
			ansMu    sync.Mutex
			answered = make(map[int]bool, len(pending))
			wg       sync.WaitGroup
		)
		for _, name := range g.names { // deterministic shard order
			idxs := groups[name]
			if len(idxs) == 0 {
				continue
			}
			wg.Add(1)
			go func(name string, idxs []int) {
				defer wg.Done()
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
						g.recordServed(fps[idx], pts[idx], name)
					}
					g.met.inc(cSweepLines)
					g.met.countNodeLine(name)
					lines <- sl
					return nil
				})
				if err != nil {
					// Transport failure or mid-stream death: the shard is
					// suspect; whatever it left unanswered goes back into
					// the next round.
					g.mem.reportFailure(name)
					g.met.inc(cRetries)
				}
			}(name, idxs)
		}
		wg.Wait()
		next := pending[:0]
		ansMu.Lock()
		for _, idx := range pending {
			if !answered[idx] && !contains(exhausted, idx) {
				next = append(next, idx)
			}
		}
		ansMu.Unlock()
		pending = next
	}
	// Anything still pending exhausted the round bound (every shard tried
	// or down): emit error lines so the caller gets one line per point.
	for _, idx := range pending {
		g.met.inc(cErrors)
		lines <- server.SweepLine{
			Index:    idx,
			Workload: pts[idx].Workload,
			Scheme:   pts[idx].Scheme,
			Error:    "every shard failed or was down before the point resolved",
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// handleQuery fans the query out to every live shard and merges: rows
// sorted by fingerprint, duplicates (a replicated blob lives on both the
// owner and its spill-over neighbor) collapsed to one, the limit applied
// to the merged set. The barrier is inherent — a global sort needs every
// shard's rows.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, "POST a QueryRequest to this endpoint")
		return
	}
	g.met.inc(cRequests)
	var q server.QueryRequest
	if err := server.DecodeJSON(w, r, simulateBodyLimit, &q); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	type shardRows struct {
		rows []server.QueryRow
		err  error
	}
	results := make([]shardRows, len(g.names))
	var wg sync.WaitGroup
	for i, name := range g.names {
		if !g.mem.alive(name) {
			results[i].err = fmt.Errorf("shard %s is down", name)
			continue
		}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			t0 := time.Now()
			err := g.shards[name].client.Query(q, func(row server.QueryRow) error {
				results[i].rows = append(results[i].rows, row)
				return nil
			})
			g.met.observeNode(name, time.Since(t0), err != nil)
			if err != nil {
				results[i].err = err
				if _, ok := passThrough(err); !ok {
					g.mem.reportFailure(name)
				}
			}
		}(i, name)
	}
	wg.Wait()
	var (
		merged     []server.QueryRow
		reached    int
		badRequest *server.StatusError
	)
	for i := range results {
		if results[i].err != nil {
			var se *server.StatusError
			if errors.As(results[i].err, &se) && se.Code == http.StatusBadRequest {
				badRequest = se // the query itself is malformed; every shard agrees
			}
			continue
		}
		reached++
		merged = append(merged, results[i].rows...)
	}
	if badRequest != nil {
		g.met.inc(cErrors)
		g.forwardStatusError(w, badRequest)
		return
	}
	if reached == 0 {
		g.met.inc(cErrors)
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
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, row := range deduped {
		if err := enc.Encode(row); err != nil {
			return // client went away
		}
	}
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
	Requests     uint64 `json:"requests"`
	Errors       uint64 `json:"errors"`
	Retries      uint64 `json:"retries"`
	Spills       uint64 `json:"spills"`
	PeerReads    uint64 `json:"peer_reads"`
	Replications uint64 `json:"replications"`
	ReplFailed   uint64 `json:"repl_failed"`
	SweepLines   uint64 `json:"sweep_lines"`
	Markdowns    uint64 `json:"markdowns"`
	Rejoins      uint64 `json:"rejoins"`
	ProbeRounds  uint64 `json:"probe_rounds"`
	// PlacedPoints counts fingerprints currently known to live off-owner.
	PlacedPoints int `json:"placed_points"`
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
	if r.Method != http.MethodGet {
		server.WriteError(w, http.StatusMethodNotAllowed, "GET this endpoint")
		return
	}
	server.WriteJSON(w, http.StatusOK, g.statsResponse())
}

func (g *Gateway) statsResponse() StatsResponse {
	resp := StatsResponse{
		Ring:          RingInfo{Nodes: g.ring.Len(), VNodes: g.ring.VNodes(), Points: g.ring.Points()},
		NodesAlive:    g.mem.aliveCount(),
		Balance:       g.met.balance(),
		Nodes:         make([]NodeStatus, 0, len(g.names)),
		UptimeSeconds: time.Since(g.start).Seconds(),
	}
	resp.Gateway.Requests, resp.Gateway.Errors, resp.Gateway.Spills, resp.Gateway.PeerReads,
		resp.Gateway.Replications, resp.Gateway.ReplFailed, resp.Gateway.SweepLines, resp.Gateway.Retries = g.met.totals()
	resp.Gateway.Markdowns, resp.Gateway.Rejoins, resp.Gateway.ProbeRounds = g.mem.counters()
	g.mu.Lock()
	resp.Gateway.PlacedPoints = len(g.placed)
	g.mu.Unlock()

	// Fetch every live shard's /v1/stats concurrently so the cluster
	// totals are one consistent-ish snapshot rather than a serial drift.
	engines := make([]*server.StatsResponse, len(g.names))
	var wg sync.WaitGroup
	for i, name := range g.names {
		if !g.mem.alive(name) {
			continue
		}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			st, err := g.shards[name].client.Stats()
			if err != nil {
				return
			}
			engines[i] = st
		}(i, name)
	}
	wg.Wait()
	for i, name := range g.names {
		nv := g.met.nodeSnapshot(name)
		ns := NodeStatus{
			Name:         name,
			Requests:     nv.requests,
			Errors:       nv.errors,
			LatencyP50MS: nv.p50ms,
			LatencyP95MS: nv.p95ms,
			LatencyP99MS: nv.p99ms,
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

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.met.writePrometheus(w)
}

// simulateBodyLimit matches the daemon's single-point body bound.
const simulateBodyLimit = 4 << 20
