// Package server turns the shared design-point engine into a long-lived
// simulation service: a stdlib-only HTTP daemon (cmd/uopsimd) that accepts
// design-point requests as JSON, fingerprints them with runcache.Key, and
// resolves them through one process-wide engine so concurrent identical
// requests collapse to a single simulation. Admission is explicit — a
// bounded worker pool behind a bounded queue; a full queue answers 429
// with a Retry-After hint instead of spawning goroutines — and shutdown is
// graceful (stop admitting, drain in-flight work). The package also
// carries the client and load generator cmd/uopload drives. See DESIGN.md
// §9 for the endpoint contracts.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"uopsim/internal/experiments"
	"uopsim/internal/runcache"
	"uopsim/internal/surrogate"
	"uopsim/internal/warehouse"
)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (default 4×Workers). A full
	// queue rejects single-point requests with 429.
	QueueDepth int
	// MaxDeadline caps every per-request deadline (default 2m). Requests
	// that do not ask for a timeout get the whole cap.
	MaxDeadline time.Duration
	// MaxInsts caps warmup+measure per point (default 2,000,000) so one
	// request cannot monopolize a worker indefinitely.
	MaxInsts uint64
	// MaxSweepPoints caps the points accepted per /v1/sweep call
	// (default 1024).
	MaxSweepPoints int
	// Engine resolves points. Nil builds an in-process-only engine; pass
	// one from experiments.NewWarehouseEngine to persist results.
	Engine *experiments.Engine
	// Warehouse, when set, serves /v1/query and adds warehouse gauges to
	// /v1/stats and /metrics. Pass the store backing Engine (see
	// experiments.NewWarehouseEngine) so queries see exactly what the
	// engine persists. Without one, /v1/query answers 501.
	Warehouse *warehouse.Store
	// EstimateConfidence gates /v1/estimate: surrogate predictions at or
	// above it are served from the fast tier, below it fall through to
	// real simulation (default experiments.DefaultEstimateConfidence).
	EstimateConfidence float64
	// NodeID names this daemon in /healthz so a cluster gateway's
	// membership probe and balance report can tell shards apart (default
	// "uopsimd"; cmd/uopsimd defaults it to the listen address).
	NodeID string
	// Peers lists other daemons' base URLs. With a persistent store, a
	// local miss asks each peer's /v1/blob in turn before simulating, so a
	// cluster shard that rejoins after a spill, a partition or a gateway
	// restart takes its neighbours' results instead of re-running them.
	Peers []string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxInsts == 0 {
		c.MaxInsts = 2_000_000
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 1024
	}
	if c.EstimateConfidence <= 0 {
		c.EstimateConfidence = experiments.DefaultEstimateConfidence
	}
	if c.NodeID == "" {
		c.NodeID = "uopsimd"
	}
	return c
}

// Server is the simulation service: an http.Handler plus the pool and
// engine behind it.
type Server struct {
	cfg   Config
	eng   *experiments.Engine
	ws    *warehouse.Store
	sur   *surrogate.Model
	pool  *pool
	met   *metrics
	mux   *http.ServeMux
	start time.Time

	// resolve is the simulation back end for points the memo cannot answer
	// before admission. Tests stub it to control timing and failures
	// without running the simulator.
	resolve func(experiments.PreparedPoint) (experiments.PointResult, runcache.Resolution, error)
}

// New builds a server. The returned server is serving-ready; wire it into
// an http.Server and call Drain after that server's Shutdown completes.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	eng := cfg.Engine
	if eng == nil {
		eng, _ = experiments.NewEngine("", 0) // "" cannot fail: no directory to open
	}
	s := &Server{cfg: cfg, eng: eng, ws: cfg.Warehouse, start: time.Now()}
	s.pool = newPool(cfg.Workers, cfg.QueueDepth)
	if s.ws != nil {
		// Train the fast tier on whatever the store already holds, then
		// hook the live set so every completed simulation grows it. An
		// unreadable store leaves the surrogate off (/v1/estimate answers
		// 501) rather than failing daemon startup.
		if m, _, err := experiments.NewStoreSurrogate(s.ws, surrogate.Options{}); err == nil {
			experiments.AttachSurrogate(s.ws, m)
			s.sur = m
		}
	}
	s.met = newMetrics(eng, s.pool, s.ws, s.sur)
	if len(cfg.Peers) > 0 {
		eng.SetPeerLoad(peerLoader(cfg.Peers, &s.met.peerFetchErrors))
	}
	s.resolve = func(pp experiments.PreparedPoint) (experiments.PointResult, runcache.Resolution, error) {
		return pp.Resolve(eng)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/simulate", Method(http.MethodPost, "POST a SimulateRequest to this endpoint", s.handleSimulate))
	s.mux.HandleFunc("/v1/sweep", Method(http.MethodPost, "POST a SweepRequest to this endpoint", s.handleSweep))
	s.mux.HandleFunc("/v1/estimate", Method(http.MethodPost, "POST an EstimateRequest to this endpoint", s.handleEstimate))
	s.mux.HandleFunc("/v1/query", Method(http.MethodPost, "POST a QueryRequest to this endpoint", s.handleQuery))
	s.mux.HandleFunc("/v1/blob", s.handleBlob)
	s.mux.HandleFunc("/v1/stats", Method(http.MethodGet, "GET this endpoint", s.handleStats))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", Metrics(s.met.reg, "uopsimd"))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Engine exposes the resolving engine (its Stats are the dedupe evidence).
func (s *Server) Engine() *experiments.Engine { return s.eng }

// Surrogate exposes the fast tier's model, nil when the daemon runs
// without a warehouse (nothing to train on, nothing to keep in sync).
func (s *Server) Surrogate() *surrogate.Model { return s.sur }

// Drain stops admitting simulations and blocks until in-flight and queued
// work completes. Call after http.Server.Shutdown has stopped new
// connections; with a warehouse attached every completed point is already
// fsynced to its segment, so draining is all the flushing there is.
func (s *Server) Drain() { s.pool.Drain() }

// SamplingRequest re-exports the wire form of the interval-sampling knobs
// for clients (cmd/uopload) that only import this package.
type SamplingRequest = experiments.SamplingRequest

// SimulateRequest is /v1/simulate's body: one point plus an optional
// per-request deadline.
type SimulateRequest struct {
	experiments.PointRequest
	// TimeoutMS bounds this request's wait (queueing + simulation).
	// Capped by the server's MaxDeadline; 0 means the whole cap.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SimulateResponse is /v1/simulate's 200 body.
type SimulateResponse struct {
	Workload    string `json:"workload"`
	Scheme      string `json:"scheme,omitempty"`
	Capacity    int    `json:"capacity,omitempty"`
	Fingerprint string `json:"fingerprint"`
	Resolution  string `json:"resolution"`
	// Mode is how the point was simulated: "sampled" (interval-sampled
	// with extrapolated metrics) or "full".
	Mode      string                  `json:"mode"`
	ElapsedMS float64                 `json:"elapsed_ms"`
	Result    experiments.PointResult `json:"result"`
}

// SweepRequest is /v1/sweep's body: a batch of points resolved under one
// deadline, streamed back as NDJSON in completion order.
type SweepRequest struct {
	Points    []experiments.PointRequest `json:"points"`
	TimeoutMS int64                      `json:"timeout_ms,omitempty"`
}

// SweepLine is one NDJSON line of a /v1/sweep response; Index ties the
// line back to its position in the request's points array.
type SweepLine struct {
	Index      int                      `json:"index"`
	Workload   string                   `json:"workload"`
	Scheme     string                   `json:"scheme,omitempty"`
	Resolution string                   `json:"resolution,omitempty"`
	Mode       string                   `json:"mode,omitempty"`
	ElapsedMS  float64                  `json:"elapsed_ms"`
	Error      string                   `json:"error,omitempty"`
	Result     *experiments.PointResult `json:"result,omitempty"`
}

// QueryRequest is /v1/query's body: feature predicates plus the metrics to
// project. The response streams one NDJSON experiments.QueryRow per
// matching point, in ascending fingerprint order.
type QueryRequest = experiments.StoreQuery

// QueryRow re-exports one /v1/query response line for clients.
type QueryRow = experiments.QueryRow

// PoolStats is the admission/pool half of /v1/stats.
type PoolStats struct {
	Workers          int    `json:"workers"`
	QueueCapacity    int    `json:"queue_capacity"`
	QueueDepth       int    `json:"queue_depth"`
	Inflight         int    `json:"inflight"`
	Admitted         uint64 `json:"admitted"`
	Rejected         uint64 `json:"rejected"`
	RejectedDraining uint64 `json:"rejected_draining"`
	Completed        uint64 `json:"completed"`
	Failed           uint64 `json:"failed"`
	Expired          uint64 `json:"expired"`
	Timeouts         uint64 `json:"timeouts"`

	// FastHits counts requests answered from a completed memo entry before
	// admission: they take no worker slot and are never refused with 429.
	FastHits uint64 `json:"fast_hits"`
}

// SimulationModes splits completed resolutions by simulation mode;
// Sampled+Full equals the pool's Completed counter.
type SimulationModes struct {
	Sampled uint64 `json:"sampled"`
	Full    uint64 `json:"full"`
}

// StatsResponse is /v1/stats: engine resolution counters (the dedupe
// evidence) plus pool counters and the sampled/full completion split.
type StatsResponse struct {
	Engine      runcache.Stats  `json:"engine"`
	Pool        PoolStats       `json:"pool"`
	Simulations SimulationModes `json:"simulations"`
	// Warehouse is present only when the daemon runs warehouse-backed.
	Warehouse *warehouse.Stats `json:"warehouse,omitempty"`
	// Estimate and Surrogate are present only when the fast tier is on
	// (warehouse-backed daemons): the /v1/estimate mode split and the
	// model's own counters (retrains, corpus size, exact hits, ...).
	Estimate      *EstimateStats   `json:"estimate,omitempty"`
	Surrogate     *surrogate.Stats `json:"surrogate,omitempty"`
	UptimeSeconds float64          `json:"uptime_seconds"`
}

// validatePoint layers the server's resource policy over point validity.
func (s *Server) validatePoint(pt experiments.PointRequest) error {
	if err := pt.Validate(); err != nil {
		return err
	}
	if total := pt.Warmup + pt.Measure; total > s.cfg.MaxInsts {
		return fmt.Errorf("warmup+measure = %d exceeds this server's per-point cap of %d instructions", total, s.cfg.MaxInsts)
	}
	return nil
}

// preparePoint validates one wire point (400 on failure) and prepares it
// (500 on failure: a valid point that cannot be fingerprinted is a bug).
func (s *Server) preparePoint(pt experiments.PointRequest) (experiments.PreparedPoint, int, error) {
	pt = pt.WithDefaults()
	if err := s.validatePoint(pt); err != nil {
		return experiments.PreparedPoint{}, http.StatusBadRequest, err
	}
	pp, err := pt.Prepare()
	if err != nil {
		return experiments.PreparedPoint{}, http.StatusInternalServerError, err
	}
	return pp, http.StatusOK, nil
}

// requestContext derives the working deadline: the client's timeout_ms
// capped by MaxDeadline, or the whole cap when the client named none.
func (s *Server) requestContext(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.MaxDeadline
	if timeoutMS > 0 {
		if td := time.Duration(timeoutMS) * time.Millisecond; td < d {
			d = td
		}
	}
	return context.WithTimeout(parent, d)
}

// retryAfter estimates, in whole seconds, when a queue slot should free:
// outstanding work divided across workers, scaled by the mean observed
// resolution latency. Clamped to [1s, 60s]; before any completion the
// estimate is a flat second.
func (s *Server) retryAfter() string {
	mean := time.Duration(s.met.latency.Mean() * float64(time.Millisecond))
	if mean <= 0 {
		mean = time.Second
	}
	outstanding := len(s.pool.tasks) + int(s.pool.inflight.Load())
	est := time.Duration(outstanding/s.pool.workers+1) * mean
	secs := int(math.Ceil(est.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.Itoa(secs)
}

// resolveOne answers one validated, prepared point: a completed memo
// entry at once (memoHit), everything else through admit under ctx.
func (s *Server) resolveOne(ctx context.Context, pp experiments.PreparedPoint, wait bool) (*SimulateResponse, int, error) {
	if resp, ok := s.memoHit(pp); ok {
		return resp, http.StatusOK, nil
	}
	return s.admit(ctx, pp, wait)
}

// resolveRequest is resolveOne for a single-point request: the request's
// deadline is derived only when the memo misses, so a memo hit builds no
// timer it would never use. On failure it answers the error itself (a 429
// with its Retry-After hint) and returns nil.
func (s *Server) resolveRequest(w http.ResponseWriter, r *http.Request, timeoutMS int64, pp experiments.PreparedPoint) *SimulateResponse {
	if resp, ok := s.memoHit(pp); ok {
		return resp
	}
	ctx, cancel := s.requestContext(r.Context(), timeoutMS)
	defer cancel()
	resp, code, err := s.admit(ctx, pp, false)
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", s.retryAfter())
		}
		WriteError(w, code, "%v", err)
	}
	return resp
}

// memoHit answers a point whose memo entry has completed. It runs before
// admission: it takes no worker slot and cannot be refused.
func (s *Server) memoHit(pp experiments.PreparedPoint) (*SimulateResponse, bool) {
	start := time.Now()
	res, ok := s.eng.Lookup(pp.Fingerprint)
	if !ok {
		return nil, false
	}
	s.met.fastHits.Inc()
	return simulateResponse(pp, runcache.ResolvedMemo, res, start), true
}

// admit resolves a point the memo could not answer — disk hits, joiners
// of an in-flight entry, simulations — through the pool, waiting under
// ctx. It returns the response, or an HTTP status code and error. wait
// selects the admission mode: fail-fast (simulate, 429) or blocking
// (sweep points trickle in as capacity frees).
func (s *Server) admit(ctx context.Context, pp experiments.PreparedPoint, wait bool) (*SimulateResponse, int, error) {
	start := time.Now()
	var (
		res  experiments.PointResult
		how  runcache.Resolution
		rerr error
	)
	mode := pp.Request.Mode()
	t, err := s.pool.submit(ctx, func() {
		t0 := time.Now()
		res, how, rerr = s.resolve(pp)
		s.met.observe(time.Since(t0), mode, rerr)
	}, wait)
	if err != nil {
		switch {
		case errors.Is(err, ErrSaturated):
			s.met.rejected.Inc()
			return nil, http.StatusTooManyRequests, err
		case errors.Is(err, ErrDraining):
			s.met.rejectedDrain.Inc()
			return nil, http.StatusServiceUnavailable, err
		default: // deadline expired while blocked on admission
			s.met.timeouts.Inc()
			return nil, http.StatusGatewayTimeout, fmt.Errorf("deadline expired awaiting admission: %w", err)
		}
	}
	s.met.admitted.Inc()
	select {
	case <-t.done:
	case <-ctx.Done():
		s.met.timeouts.Inc()
		return nil, http.StatusGatewayTimeout, fmt.Errorf(
			"deadline exceeded after %dms; a simulation that was already executing may still finish and warm the cache for a retry", time.Since(start).Milliseconds())
	}
	if !t.ran {
		s.met.expired.Inc()
		return nil, http.StatusGatewayTimeout, fmt.Errorf("deadline expired before a worker picked the request up")
	}
	if rerr != nil {
		return nil, http.StatusInternalServerError, rerr
	}
	return simulateResponse(pp, how, res, start), http.StatusOK, nil
}

// simulateResponse is /v1/simulate's answer for a resolved point.
func simulateResponse(pp experiments.PreparedPoint, how runcache.Resolution, res experiments.PointResult, start time.Time) *SimulateResponse {
	pt := pp.Request
	return &SimulateResponse{
		Workload:    pt.Workload,
		Scheme:      pt.Scheme,
		Capacity:    pt.Capacity,
		Fingerprint: string(pp.Fingerprint),
		Resolution:  how.String(),
		Mode:        pt.Mode(),
		ElapsedMS:   float64(time.Since(start)) / float64(time.Millisecond),
		Result:      res,
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	pp, code, err := s.preparePoint(req.PointRequest)
	if err != nil {
		WriteError(w, code, "%v", err)
		return
	}
	if resp := s.resolveRequest(w, r, req.TimeoutMS, pp); resp != nil {
		WriteJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, ok := DecodeSweep(w, r, s.cfg.MaxSweepPoints, "server")
	if !ok {
		return
	}
	pts := make([]experiments.PreparedPoint, len(req.Points))
	for i, p := range req.Points {
		pp, code, err := s.preparePoint(p)
		if err != nil {
			WriteError(w, code, "points[%d]: %v", i, err)
			return
		}
		pts[i] = pp
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()

	// One light waiter goroutine per point; simulation concurrency is
	// still bounded by the pool (blocking admission), and the point count
	// by MaxSweepPoints. The channel is buffered to the batch size so a
	// slow client write never blocks a finishing waiter.
	lines := make(chan SweepLine, len(pts))
	var wg sync.WaitGroup
	for i := range pts {
		wg.Add(1)
		go func(i int, pp experiments.PreparedPoint) {
			defer wg.Done()
			line := SweepLine{Index: i, Workload: pp.Request.Workload, Scheme: pp.Request.Scheme}
			resp, _, err := s.resolveOne(ctx, pp, true)
			if err != nil {
				line.Error = err.Error()
			} else {
				line.Resolution = resp.Resolution
				line.Mode = resp.Mode
				line.ElapsedMS = resp.ElapsedMS
				line.Result = &resp.Result
			}
			lines <- line
		}(i, pts[i])
	}
	go func() { wg.Wait(); close(lines) }()
	StreamSweep(w, lines)
}

// handleQuery serves stored results: no simulation, no pool admission —
// reads bypass the worker queue entirely, so a saturated simulation
// backlog never blocks rendering a figure from data already on disk.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.ws == nil {
		WriteError(w, http.StatusNotImplemented, "this daemon has no warehouse attached (start uopsimd with -warehouse)")
		return
	}
	var q QueryRequest
	if !DecodeRequest(w, r, &q) {
		return
	}
	rows, err := experiments.QueryStore(s.ws, q)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	WriteRows(w, rows)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.statsResponse())
}

func (s *Server) statsResponse() StatsResponse {
	m := s.met
	sampled, full := m.simSampled.Value(), m.simFull.Value()
	resp := StatsResponse{
		Engine: s.eng.Stats(),
		Pool: PoolStats{
			Workers:          s.pool.workers,
			QueueCapacity:    cap(s.pool.tasks),
			QueueDepth:       len(s.pool.tasks),
			Inflight:         int(s.pool.inflight.Load()),
			Admitted:         m.admitted.Value(),
			FastHits:         m.fastHits.Value(),
			Rejected:         m.rejected.Value(),
			RejectedDraining: m.rejectedDrain.Value(),
			Completed:        sampled + full,
			Failed:           m.failed.Value(),
			Expired:          m.expired.Value(),
			Timeouts:         m.timeouts.Value(),
		},
		Simulations:   SimulationModes{Sampled: sampled, Full: full},
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if s.ws != nil {
		st := s.ws.Stats()
		resp.Warehouse = &st
	}
	if s.sur != nil {
		resp.Estimate = &EstimateStats{
			Requests:    m.estRequests.Value(),
			Served:      m.estServed.Value(),
			Fallthrough: m.estFallthrough.Value(),
		}
		ss := s.sur.Stats()
		resp.Surrogate = &ss
	}
	return resp
}

// HealthzInfo is /healthz's 200 body: enough identity for a cluster
// gateway's membership probe to tell shards apart and for a balance
// report to weigh them. A draining daemon still answers 503 with a plain
// "draining" body — probes treat any non-200 as down, payload or not.
type HealthzInfo struct {
	Status string `json:"status"`
	// Node is the daemon's configured identity (Config.NodeID).
	Node          string  `json:"node"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Points is the stored design-point count: live warehouse records on a
	// warehouse-backed daemon, otherwise the engine's process-lifetime
	// unique-fingerprint count.
	Points int `json:"points"`
	// Warehouse reports whether Points counts durable records.
	Warehouse bool `json:"warehouse"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.pool.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	info := HealthzInfo{
		Status:        "ok",
		Node:          s.cfg.NodeID,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if s.ws != nil {
		info.Points = s.ws.Stats().Records
		info.Warehouse = true
	} else {
		info.Points = int(s.eng.Stats().Unique)
	}
	WriteJSON(w, http.StatusOK, info)
}
