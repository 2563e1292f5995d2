package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"uopsim/internal/experiments"
)

// EstimateRequest is /v1/estimate's body: one design point the caller
// wants an answer for quickly, with an optional per-request confidence
// floor and the usual deadline knob (which only matters if the request
// falls through to real simulation).
type EstimateRequest struct {
	experiments.PointRequest
	// MinConfidence overrides the server's serving threshold for this
	// request: predictions below it fall through to simulation. Zero uses
	// the server's -estimate-confidence setting; a value above 1 forces a
	// simulation (no surrogate prediction reaches 1 except exact hits).
	MinConfidence float64 `json:"min_confidence,omitempty"`
	// TimeoutMS bounds the fall-through simulation (queueing + running),
	// capped by the server's MaxDeadline. Ignored on the fast path.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// EstimateResponse is /v1/estimate's 200 body. Source says which tier
// answered: "surrogate" (interpolated from the warehouse-trained model,
// sub-millisecond) or "simulated" (the prediction was not confident
// enough, so the point went through the worker pool like a /v1/simulate).
type EstimateResponse struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme,omitempty"`
	Capacity int    `json:"capacity,omitempty"`
	Source   string `json:"source"`
	// Confidence is the surrogate's self-assessed confidence in [0,1] —
	// for simulated answers, the (too low) confidence that caused the
	// fall-through, or 0 when the model had no prediction at all.
	Confidence float64 `json:"confidence"`
	// Neighbors and Exact describe the surrogate prediction: how many
	// training points it blended, and whether the point was stored
	// verbatim (confidence 1, metrics bit-identical to the simulation).
	Neighbors int  `json:"neighbors,omitempty"`
	Exact     bool `json:"exact,omitempty"`
	// Resolution and Mode are set on simulated answers only, with the
	// same meaning as /v1/simulate's fields.
	Resolution string  `json:"resolution,omitempty"`
	Mode       string  `json:"mode,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	// Metrics is the derived-metric vector (upc, ipc, oc_hit_rate, ...),
	// the same names /v1/query projects, whichever tier produced it.
	Metrics map[string]float64 `json:"metrics"`
}

// EstimateStats is the /v1/estimate half of /v1/stats: the mode split
// between fast-tier answers and fall-throughs to real simulation.
type EstimateStats struct {
	Requests    uint64 `json:"requests"`
	Served      uint64 `json:"served"`
	Fallthrough uint64 `json:"fallthrough"`
}

// handleEstimate serves the fast tier: predict from the surrogate model,
// serve immediately when the prediction clears the confidence gate, and
// otherwise fall through to the same pool-admitted simulation path
// /v1/simulate uses. Every fall-through that completes lands in the
// warehouse, whose hook feeds the model — so the identical estimate
// asked again is an exact fast-path hit.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST an EstimateRequest to this endpoint")
		return
	}
	if s.sur == nil {
		WriteError(w, http.StatusNotImplemented, "this daemon has no surrogate model (start uopsimd with -warehouse)")
		return
	}
	var req EstimateRequest
	if err := DecodeJSON(w, r, simulateBodyLimit, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pt := req.PointRequest.WithDefaults()
	if err := s.validatePoint(pt); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	feat, err := pt.Features()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.inc(cEstRequests)
	threshold := s.cfg.EstimateConfidence
	if req.MinConfidence > 0 {
		threshold = req.MinConfidence
	}
	start := time.Now()
	pred, ok := s.sur.Predict(feat)
	if ok && pred.Confidence >= threshold {
		elapsed := time.Since(start)
		s.met.observeEstimate(elapsed, true)
		WriteJSON(w, http.StatusOK, &EstimateResponse{
			Workload:   pt.Workload,
			Scheme:     pt.Scheme,
			Capacity:   pt.Capacity,
			Source:     "surrogate",
			Confidence: pred.Confidence,
			Neighbors:  pred.Neighbors,
			Exact:      pred.Exact,
			ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
			Metrics:    pred.Metrics,
		})
		return
	}

	// Not confident enough: resolve for real, under the same admission
	// policy as /v1/simulate (fail-fast 429 when the queue is full).
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	resp, code, err := s.resolveOne(ctx, pt, false)
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", s.retryAfter())
		}
		WriteError(w, code, "%v", err)
		return
	}
	elapsed := time.Since(start)
	s.met.observeEstimate(elapsed, false)
	WriteJSON(w, http.StatusOK, &EstimateResponse{
		Workload:   pt.Workload,
		Scheme:     pt.Scheme,
		Capacity:   pt.Capacity,
		Source:     "simulated",
		Confidence: pred.Confidence, // zero when the model had nothing
		Neighbors:  pred.Neighbors,
		Resolution: resp.Resolution,
		Mode:       resp.Mode,
		ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
		Metrics:    experiments.DerivedMetricValues(resp.Result),
	})
}

// Estimate asks the fast tier for one point. Non-2xx answers come back as
// *StatusError; a daemon without a warehouse answers 501.
func (c *Client) Estimate(req EstimateRequest) (*EstimateResponse, error) {
	resp, err := c.postJSON("/v1/estimate", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	var out EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("server: decoding estimate response: %w", err)
	}
	return &out, nil
}
