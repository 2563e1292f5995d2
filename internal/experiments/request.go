package experiments

import (
	"fmt"
	"strings"

	"uopsim/internal/pipeline"
	"uopsim/internal/runcache"
	"uopsim/internal/workload"
)

// PointRequest is the wire form of one design point: the JSON body
// cmd/uopsimd's /v1/simulate endpoint accepts, /v1/sweep batches, and
// cmd/uopload replays. A point is a Table II workload plus either a named
// scheme at a capacity or a full explicit pipeline.Config override, and
// the run lengths. Zero values on optional fields select the experiment
// defaults (WithDefaults), so {"workload":"bm_cc"} is a complete request.
//
// The request deliberately encodes exactly the inputs pointFingerprint
// covers, so a point simulated by a uopexp sweep and the same point asked
// of the daemon share one fingerprint — and therefore one cache blob.
type PointRequest struct {
	// Workload names the Table II workload profile.
	Workload string `json:"workload"`
	// Scheme names a paper design point (baseline, CLASP, RAC, PWAC,
	// F-PWAC; case-insensitive). Ignored when Config is set.
	Scheme string `json:"scheme,omitempty"`
	// Capacity is the uop cache capacity in uops (scheme form only).
	Capacity int `json:"capacity,omitempty"`
	// MaxEntries bounds compacted entries per line (scheme form only).
	MaxEntries int `json:"max_entries,omitempty"`
	// Warmup and Measure are the run lengths in instructions.
	Warmup  uint64 `json:"warmup,omitempty"`
	Measure uint64 `json:"measure,omitempty"`
	// Config, when set, is the complete machine configuration and wins
	// over Scheme/Capacity/MaxEntries.
	Config *pipeline.Config `json:"config,omitempty"`
	// Sampling, when present, switches the point to interval-sampled
	// simulation; its absence requests the full run. A sampled point and
	// the full simulation of the same point have distinct fingerprints.
	Sampling *SamplingRequest `json:"sampling,omitempty"`
}

// SamplingRequest is the wire form of the interval-sampling knobs
// (pipeline.Sampling minus the Enabled bit — presence on the request is the
// enable). Zero fields resolve to the pipeline defaults against the
// request's measure length, so {} asks for default sampling.
type SamplingRequest struct {
	// Intervals is the number of measurement windows (K).
	Intervals int `json:"intervals,omitempty"`
	// IntervalInsts is the measured instructions per window (M).
	IntervalInsts uint64 `json:"interval_insts,omitempty"`
	// WarmupInsts is the cycle-simulated lead-in per window (W).
	WarmupInsts uint64 `json:"warmup_insts,omitempty"`
}

// sampling lifts the optional wire field into the pipeline form.
func (r PointRequest) sampling() pipeline.Sampling {
	if r.Sampling == nil {
		return pipeline.Sampling{}
	}
	return pipeline.Sampling{
		Enabled:       true,
		Intervals:     r.Sampling.Intervals,
		IntervalInsts: r.Sampling.IntervalInsts,
		WarmupInsts:   r.Sampling.WarmupInsts,
	}
}

// Mode names how the point will be simulated: "sampled" or "full". The
// daemon labels responses and per-mode counters with it.
func (r PointRequest) Mode() string {
	if r.Sampling != nil {
		return "sampled"
	}
	return "full"
}

// WithDefaults fills unset optional fields with the experiment defaults:
// baseline scheme, 2048-uop capacity, 2 entries per line, and the standard
// warmup/measure lengths.
func (r PointRequest) WithDefaults() PointRequest {
	if r.Scheme == "" {
		r.Scheme = "baseline"
	}
	if r.Capacity == 0 {
		r.Capacity = 2048
	}
	if r.MaxEntries < 2 {
		r.MaxEntries = 2
	}
	if r.Warmup == 0 {
		r.Warmup = pipeline.DefaultWarmupInsts
	}
	if r.Measure == 0 {
		r.Measure = pipeline.DefaultMeasureInsts
	}
	return r
}

// Validate reports whether the request names a runnable design point.
// Call it on the WithDefaults form; resource caps (run-length ceilings,
// batch sizes) are the server's policy, not part of point validity.
func (r PointRequest) Validate() error {
	if r.Workload == "" {
		return fmt.Errorf("experiments: request needs a workload (one of %s)",
			strings.Join(workload.Names(), ", "))
	}
	if _, err := workload.Lookup(r.Workload); err != nil {
		return err
	}
	if r.Measure == 0 {
		return fmt.Errorf("experiments: request needs a measure length")
	}
	if sp := r.sampling(); sp.Enabled {
		if err := sp.WithDefaults(r.Measure).Validate(r.Measure); err != nil {
			return err
		}
	}
	_, err := r.BuildConfig()
	return err
}

// scheme resolves the named scheme against the paper's design points at
// the request's entries-per-line bound.
func (r PointRequest) scheme() (Scheme, bool) {
	for _, sc := range Schemes(r.MaxEntries) {
		if strings.EqualFold(sc.Name, r.Scheme) {
			return sc, true
		}
	}
	return Scheme{}, false
}

// BuildConfig resolves the request's machine configuration: the explicit
// Config override when present, otherwise the named scheme configured at
// the requested capacity. Either form is validated.
func (r PointRequest) BuildConfig() (pipeline.Config, error) {
	if r.Config != nil {
		if err := r.Config.Validate(); err != nil {
			return pipeline.Config{}, err
		}
		return *r.Config, nil
	}
	sc, ok := r.scheme()
	if !ok {
		names := make([]string, 0, 5)
		for _, s := range Schemes(r.MaxEntries) {
			names = append(names, s.Name)
		}
		return pipeline.Config{}, fmt.Errorf("experiments: unknown scheme %q (valid: %s)",
			r.Scheme, strings.Join(names, ", "))
	}
	if r.Capacity <= 0 {
		return pipeline.Config{}, fmt.Errorf("experiments: capacity must be positive, got %d", r.Capacity)
	}
	cfg := sc.Configure(r.Capacity)
	if err := cfg.Validate(); err != nil {
		return pipeline.Config{}, err
	}
	return cfg, nil
}

// params carries the request's run lengths in the shape the fingerprint
// and simulation helpers expect.
func (r PointRequest) params() Params {
	return Params{WarmupInsts: r.Warmup, MeasureInsts: r.Measure, Sampling: r.sampling()}
}

// Fingerprint is the request's design-point identity: identical to the
// fingerprint a sweep submits for the same (workload, config, lengths).
func (r PointRequest) Fingerprint() (runcache.Fingerprint, error) {
	pp, err := r.Prepare()
	return pp.Fingerprint, err
}

// Resolve prepares the request and resolves it through eng (see
// PreparedPoint.Resolve).
func (r PointRequest) Resolve(eng *Engine) (PointResult, runcache.Resolution, error) {
	pp, err := r.Prepare()
	if err != nil {
		return PointResult{}, ResolvedCompute, err
	}
	return pp.Resolve(eng)
}

// PreparedPoint is a PointRequest with its workload profile, machine
// configuration and fingerprint resolved once. A server prepares each
// request it receives and hands the prepared form down, so the memo lookup
// and the engine share one fingerprint instead of each computing their own.
type PreparedPoint struct {
	// Request is the point as prepared, normally its WithDefaults form.
	Request PointRequest
	// Fingerprint is the point's design-point identity.
	Fingerprint runcache.Fingerprint

	prof *workload.Profile
	cfg  pipeline.Config
}

// Prepare resolves the request's profile, configuration and fingerprint.
// Call it on the WithDefaults form.
func (r PointRequest) Prepare() (PreparedPoint, error) {
	prof, err := workload.Lookup(r.Workload)
	if err != nil {
		return PreparedPoint{}, err
	}
	cfg, err := r.BuildConfig()
	if err != nil {
		return PreparedPoint{}, err
	}
	fp, err := pointFingerprint(r.params(), prof, cfg)
	if err != nil {
		return PreparedPoint{}, err
	}
	return PreparedPoint{Request: r, Fingerprint: fp, prof: prof, cfg: cfg}, nil
}

// Features builds the point's canonical feature vector from the prepared
// profile and configuration; it equals PointRequest.Features.
func (p PreparedPoint) Features() (runcache.Features, error) {
	return pointFeatures(p.Request.params(), p.prof, p.cfg)
}

// Resolve computes the point through eng — deduped against every other
// submitter and, with a warehouse attached, against disk — or directly
// when eng is nil, reporting how the result was obtained. The feature
// vector is built only when a simulated result is stored.
func (p PreparedPoint) Resolve(eng *Engine) (PointResult, runcache.Resolution, error) {
	compute := func() (PointResult, error) {
		return simulatePoint(p.Request.params(), p.Request.Workload, p.cfg)
	}
	if eng == nil {
		res, err := compute()
		return res, ResolvedCompute, err
	}
	return eng.DoLazy(p.Fingerprint, p.Features, compute)
}

// ResolvedCompute re-exports the direct-simulation resolution for callers
// that hold a PointRequest but no engine.
const ResolvedCompute = runcache.ResolvedCompute

// RequestForPoint converts one batch-API design point (the RunPoints
// shape) into its wire form, carrying the run lengths from p. Points whose
// Scheme a Schemes() entry reproduces travel in the compact named form; a
// custom Scheme struct is carried as an explicit Config override so the
// fingerprint — and thus the dedupe — is preserved exactly.
func RequestForPoint(pt Point, p Params) PointRequest {
	p = p.withDefaults()
	req := PointRequest{
		Workload:   pt.Workload,
		Scheme:     pt.Scheme.Name,
		Capacity:   pt.Capacity,
		MaxEntries: pt.Scheme.MaxEntriesPerLine,
		Warmup:     p.WarmupInsts,
		Measure:    p.MeasureInsts,
	}
	if sp := p.Sampling.WithDefaults(p.MeasureInsts); sp.Enabled {
		// Carry the resolved knobs so the wire form is explicit; resolution
		// is idempotent, so the fingerprint matches the elided form.
		req.Sampling = &SamplingRequest{
			Intervals:     sp.Intervals,
			IntervalInsts: sp.IntervalInsts,
			WarmupInsts:   sp.WarmupInsts,
		}
	}
	if sc, ok := req.WithDefaults().scheme(); !ok || sc != pt.Scheme {
		cfg := pt.Scheme.Configure(pt.Capacity)
		req.Config = &cfg
	}
	return req
}
