package server

import (
	"net/http"
	"reflect"
	"strings"
	"testing"

	"uopsim/internal/experiments"
	"uopsim/internal/runcache"
	"uopsim/internal/warehouse"
)

// newWarehouseServer builds a server whose engine persists into a warehouse
// in a temp dir, returning the store for direct inspection.
func newWarehouseServer(t *testing.T, cfg Config) (*Server, *warehouse.Store, string) {
	t.Helper()
	eng, ws, err := experiments.NewWarehouseEngine(t.TempDir(), warehouse.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	cfg.Engine = eng
	cfg.Warehouse = ws
	s, ts := newTestServer(t, cfg)
	return s, ws, ts.URL
}

// TestQueryNotImplementedWithoutWarehouse: an in-memory daemon answers 501
// so clients can tell "no warehouse" from "no matches".
func TestQueryNotImplementedWithoutWarehouse(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/query", `{}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", resp.StatusCode)
	}
}

// TestQueryEndToEnd: simulate through the HTTP API, then query the stored
// result back and check it matches what /v1/simulate returned.
func TestQueryEndToEnd(t *testing.T) {
	_, _, url := newWarehouseServer(t, Config{Workers: 2})
	client := NewClient(url)

	sim, err := client.Simulate(SimulateRequest{
		PointRequest: experiments.PointRequest{
			Workload: "bm_ds", Scheme: "baseline", Capacity: 2048,
			Warmup: 2_000, Measure: 10_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var rows []QueryRow
	err = client.Query(QueryRequest{
		Where:           map[string]string{"workload": "bm_ds"},
		Metrics:         []string{"upc", "cycles"},
		IncludeFeatures: true,
	}, func(row QueryRow) error {
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("query matched %d rows, want 1", len(rows))
	}
	row := rows[0]
	if string(row.Fingerprint) != sim.Fingerprint {
		t.Errorf("fingerprint %s != simulate's %s", row.Fingerprint, sim.Fingerprint)
	}
	if got := row.Metrics["upc"]; got != sim.Result.Metrics.UPC {
		t.Errorf("queried upc %v != simulated %v", got, sim.Result.Metrics.UPC)
	}
	if v, ok := row.Features.Get("scheme"); ok {
		t.Errorf("feature vector unexpectedly carries a scheme label %q (labels are driver-side)", v)
	}
	if v, ok := row.Features.Get("config.uopcache.capacityuops"); !ok || v != "2048" {
		t.Errorf("capacity feature = %q, %v", v, ok)
	}

	// No match → empty 200 stream, distinct from the 501 above.
	count := 0
	err = client.Query(QueryRequest{Where: map[string]string{"workload": "nutch"}},
		func(QueryRow) error { count++; return nil })
	if err != nil || count != 0 {
		t.Fatalf("no-match query: %d rows, %v", count, err)
	}

	// Unknown metric names surface as a 400, naming the valid set.
	err = client.Query(QueryRequest{Metrics: []string{"bogus"}}, func(QueryRow) error { return nil })
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusBadRequest || !strings.Contains(se.Message, "upc") {
		t.Fatalf("unknown metric error = %v", err)
	}
}

// TestStatsCarriesWarehouse: /v1/stats grows a warehouse section only when
// one is attached, and its counters reflect engine activity.
func TestStatsCarriesWarehouse(t *testing.T) {
	_, _, url := newWarehouseServer(t, Config{Workers: 2})
	client := NewClient(url)
	if _, err := client.Simulate(SimulateRequest{
		PointRequest: experiments.PointRequest{
			Workload: "bm_ds", Scheme: "baseline", Capacity: 2048,
			Warmup: 2_000, Measure: 10_000,
		},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Warehouse == nil {
		t.Fatal("stats response lacks the warehouse section")
	}
	if st.Warehouse.Records != 1 || st.Warehouse.Puts != 1 {
		t.Errorf("warehouse stats = %+v", st.Warehouse)
	}

	_, ts2 := newTestServer(t, Config{Workers: 1})
	st2, err := NewClient(ts2.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Warehouse != nil {
		t.Error("in-memory daemon reports a warehouse section")
	}
}

// TestStoredFeaturesMatchRequest: the feature vector is built lazily, only
// when a simulated point is stored, and it is the request's own
// PointRequest.Features — for a named scheme and for a sampled point.
func TestStoredFeaturesMatchRequest(t *testing.T) {
	_, ws, url := newWarehouseServer(t, Config{Workers: 2, MaxInsts: 500_000})
	client := NewClient(url)
	pts := []experiments.PointRequest{
		{Workload: "bm_ds", Scheme: "F-PWAC", Capacity: 1024, Warmup: 1_000, Measure: 4_000},
		{Workload: "redis", Warmup: 2_000, Measure: 60_000,
			Sampling: &SamplingRequest{Intervals: 3, IntervalInsts: 4_000, WarmupInsts: 1_000}},
	}
	for _, pt := range pts {
		resp, err := client.Simulate(SimulateRequest{PointRequest: pt})
		if err != nil {
			t.Fatal(err)
		}
		want, err := pt.WithDefaults().Features()
		if err != nil {
			t.Fatal(err)
		}
		var got runcache.Features
		found := false
		err = ws.Iter(func(rec warehouse.Record) error {
			if string(rec.Fingerprint) == resp.Fingerprint {
				got, found = rec.Features, true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("%s/%s: no stored record for %s", pt.Workload, pt.Scheme, resp.Fingerprint)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: stored features\n%v\nwant\n%v", pt.Workload, pt.Scheme, got, want)
		}
	}
}
