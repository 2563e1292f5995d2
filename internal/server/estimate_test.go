package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"uopsim/internal/experiments"
)

// TestEstimateNotImplementedWithoutWarehouse: no warehouse means no
// training data and no model, so the fast tier answers 501 like /v1/query.
func TestEstimateNotImplementedWithoutWarehouse(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/estimate", `{"workload":"bm_ds"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", resp.StatusCode)
	}
}

// TestEstimateFallthroughThenFastPath is the fast tier's whole contract in
// one pass: a cold point falls through to real simulation, the result
// lands in the warehouse and trains the model, and the identical estimate
// asked again is served from the surrogate — exact, confidence 1, metrics
// bit-identical to the simulation.
func TestEstimateFallthroughThenFastPath(t *testing.T) {
	_, _, url := newWarehouseServer(t, Config{Workers: 2})
	client := NewClient(url)
	pt := experiments.PointRequest{
		Workload: "bm_ds", Scheme: "baseline", Capacity: 2048,
		Warmup: 2_000, Measure: 10_000,
	}

	// Cold: the model is empty, so any confidence gate forces simulation.
	first, err := client.Estimate(EstimateRequest{PointRequest: pt})
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != "simulated" || first.Resolution != "simulated" {
		t.Fatalf("cold estimate should simulate: %+v", first)
	}
	if first.Metrics["upc"] == 0 {
		t.Fatalf("simulated estimate carries no metrics: %+v", first.Metrics)
	}

	// Warm: the fall-through fed the warehouse, the warehouse hook fed the
	// model, so the identical request is an exact fast-path hit.
	second, err := client.Estimate(EstimateRequest{PointRequest: pt})
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != "surrogate" || !second.Exact || second.Confidence != 1 {
		t.Fatalf("warm estimate should be an exact surrogate hit: %+v", second)
	}
	for _, m := range []string{"upc", "ipc", "oc_hit_rate", "oc_fetch_ratio"} {
		if second.Metrics[m] != first.Metrics[m] {
			t.Fatalf("exact hit %s = %v, want the simulation's %v", m, second.Metrics[m], first.Metrics[m])
		}
	}

	// A per-request gate above 1 forces simulation even on a trained
	// point; the engine dedupes it, so no fresh simulation runs.
	forced, err := client.Estimate(EstimateRequest{PointRequest: pt, MinConfidence: 2})
	if err != nil {
		t.Fatal(err)
	}
	if forced.Source != "simulated" {
		t.Fatalf("min_confidence=2 must force a simulation: %+v", forced)
	}
	if forced.Resolution == "simulated" {
		t.Fatalf("forced re-check should be deduped (memo/disk), got %q", forced.Resolution)
	}
	if forced.Confidence != 1 {
		t.Fatalf("forced response should report the gated-out confidence 1, got %v", forced.Confidence)
	}

	// The stats split matches what just happened: 3 requests, 1 served
	// fast, 2 fall-throughs; the surrogate section is present and fitted.
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Estimate == nil || st.Surrogate == nil {
		t.Fatalf("warehouse-backed stats must carry estimate+surrogate sections: %+v", st)
	}
	if st.Estimate.Requests != 3 || st.Estimate.Served != 1 || st.Estimate.Fallthrough != 2 {
		t.Fatalf("estimate split = %+v, want requests=3 served=1 fallthrough=2", st.Estimate)
	}
	if st.Surrogate.LivePoints == 0 || st.Surrogate.Inserts == 0 {
		t.Fatalf("surrogate never learned from the fall-through: %+v", st.Surrogate)
	}
}

// TestEstimateMetricsExposition: the Prometheus endpoint carries the
// estimate counters and the surrogate gauges.
func TestEstimateMetricsExposition(t *testing.T) {
	_, _, url := newWarehouseServer(t, Config{Workers: 2})
	client := NewClient(url)
	pt := experiments.PointRequest{
		Workload: "bm_ds", Scheme: "baseline", Capacity: 1024,
		Warmup: 2_000, Measure: 10_000,
	}
	if _, err := client.Estimate(EstimateRequest{PointRequest: pt}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"uopsimd_server_estimate_requests 1",
		"uopsimd_server_estimate_fallthrough 1",
		"uopsimd_server_estimate_served 0",
		"uopsimd_server_estimate_latency_us",
		"uopsimd_surrogate_live_points 1",
		"uopsimd_surrogate_inserts 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, body)
		}
	}
}

// TestEstimateValidation: the endpoint applies the same point validation
// as /v1/simulate.
func TestEstimateValidation(t *testing.T) {
	_, _, url := newWarehouseServer(t, Config{Workers: 1})
	resp := postJSON(t, url+"/v1/estimate", `{"workload":"no_such_workload"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestRunEstimateLoadgen drives the estimate load mode end to end: a
// repeat-heavy mix where the first draw of each point falls through and
// every repeat is served by the surrogate, with the accuracy spot-check
// exercising /v1/simulate for ground truth. The run is paced, so it
// cannot finish before its last request's slot.
func TestRunEstimateLoadgen(t *testing.T) {
	_, _, url := newWarehouseServer(t, Config{Workers: 2, QueueDepth: 32})
	rep, err := RunEstimate(NewClient(url), LoadConfig{
		Requests:    12,
		Unique:      2,
		Concurrency: 2, // ≤ unique so a repeat never races its cold draw
		RPS:         20,
		Workloads:   []string{"bm_ds"},
		Capacities:  []int{1024, 2048},
		Warmup:      2_000,
		Measure:     10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != rep.Requests {
		t.Fatalf("estimate run dropped requests: %+v", rep)
	}
	if min := time.Duration(rep.Requests-1) * time.Second / 20; rep.Elapsed < min {
		t.Fatalf("elapsed %s < %s: the estimate run ignored RPS", rep.Elapsed, min)
	}
	if rep.Sources["simulated"] < 1 || rep.Sources["surrogate"] < 1 {
		t.Fatalf("mix should split across tiers: %+v", rep.Sources)
	}
	if rep.Sources["simulated"]+rep.Sources["surrogate"] != rep.OK {
		t.Fatalf("tier split does not add up: %+v", rep.Sources)
	}
	if rep.EstimateChecked == 0 {
		t.Fatalf("accuracy spot-check never ran: %+v", rep)
	}
	// Served answers are exact repeats or confident interpolations; either
	// way the spot-check error must be tiny.
	if rep.EstimateUPCWorstPct > 2 {
		t.Fatalf("fast-path answers too far from ground truth: %+v", rep)
	}
	out := rep.String()
	for _, want := range []string{"estimate surrogate=", "latency mode=surrogate", "latency mode=simulated", "estimate_accuracy checked="} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
