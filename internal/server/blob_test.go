package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"uopsim/internal/experiments"
	"uopsim/internal/warehouse"
)

// TestHealthzIdentity checks the enriched /healthz payload a cluster
// gateway's membership probe consumes: node identity, uptime, and the
// stored point count, growing as results land.
func TestHealthzIdentity(t *testing.T) {
	eng, ws, err := experiments.NewWarehouseEngine(t.TempDir(), warehouse.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	_, ts := newTestServer(t, Config{Workers: 2, Engine: eng, Warehouse: ws, NodeID: "shard-7"})
	client := NewClient(ts.URL)

	info, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != "ok" || info.Node != "shard-7" || !info.Warehouse {
		t.Fatalf("healthz identity wrong: %+v", info)
	}
	if info.Points != 0 {
		t.Fatalf("fresh daemon reports %d points", info.Points)
	}
	if info.UptimeSeconds < 0 {
		t.Fatalf("negative uptime: %v", info.UptimeSeconds)
	}

	pt := experiments.PointRequest{Workload: "bm_ds", Scheme: "baseline", Capacity: 1024, Warmup: 1_000, Measure: 4_000}
	if _, err := client.Simulate(SimulateRequest{PointRequest: pt}); err != nil {
		t.Fatal(err)
	}
	info, err = client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if info.Points != 1 {
		t.Fatalf("after one simulation healthz reports %d points, want 1", info.Points)
	}
}

// TestBlobRoundTrip drives the peer pull end to end between two daemons:
// A simulates a point, B (Peers: [A]) misses locally, fetches A's blob
// over GET /v1/blob, stores it and serves the point as a disk hit without
// simulating; B's warehouse then answers /v1/query for it, features and
// all. A corrupt blob on the peer is counted, never stored, and the point
// is simulated instead.
func TestBlobRoundTrip(t *testing.T) {
	mk := func(node string, peers ...string) (*Client, *Server, *warehouse.Store) {
		eng, ws, err := experiments.NewWarehouseEngine(t.TempDir(), warehouse.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ws.Close() })
		s, ts := newTestServer(t, Config{Workers: 2, Engine: eng, Warehouse: ws, NodeID: node, Peers: peers})
		return NewClient(ts.URL), s, ws
	}
	src, _, srcWS := mk("src")
	dst, dstSrv, _ := mk("dst", src.BaseURL)

	pt := experiments.PointRequest{Workload: "bm_ds", Scheme: "baseline", Capacity: 2048, Warmup: 1_000, Measure: 4_000}.WithDefaults()
	sim, err := src.Simulate(SimulateRequest{PointRequest: pt})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.Simulate(SimulateRequest{PointRequest: pt})
	if err != nil {
		t.Fatal(err)
	}
	if got.Resolution != "disk" {
		t.Fatalf("peer-held point resolved as %s, want disk", got.Resolution)
	}
	if st := dstSrv.Engine().Stats(); st.Simulated != 0 || st.PeerHits != 1 || st.DiskHits != 1 {
		t.Fatalf("destination engine after a peer pull: %+v, want 0 simulations and 1 peer hit", st)
	}
	if got.Result.Metrics.UPC != sim.Result.Metrics.UPC {
		t.Fatalf("pulled UPC %v != source %v", got.Result.Metrics.UPC, sim.Result.Metrics.UPC)
	}
	var rows []QueryRow
	err = dst.Query(QueryRequest{Where: map[string]string{"workload": "bm_ds"}, IncludeFeatures: true}, func(row QueryRow) error {
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || string(rows[0].Fingerprint) != sim.Fingerprint || len(rows[0].Features) == 0 {
		t.Fatalf("destination query rows = %+v, want the pulled point with its features", rows)
	}

	// The endpoint's contract edges: a miss is 404, and it takes no writes.
	if _, err := src.FetchBlob("no-such-fp"); err == nil {
		t.Fatal("fetching a missing blob succeeded")
	} else if se, ok := err.(*StatusError); !ok || se.Code != http.StatusNotFound {
		t.Fatalf("missing blob error = %v, want 404", err)
	}
	if resp := postJSON(t, src.BaseURL+"/v1/blob", `{}`); resp.StatusCode != http.StatusMethodNotAllowed {
		resp.Body.Close()
		t.Fatalf("POST /v1/blob = %d, want 405", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// A corrupt blob on the peer: counted as bad, not stored, simulated.
	pt2 := pt
	pt2.Capacity = 1024
	pp, err := pt2.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if err := srcWS.Put(pp.Fingerprint, nil, []byte(`{"not":"a result"}`)); err != nil {
		t.Fatal(err)
	}
	again, err := dst.Simulate(SimulateRequest{PointRequest: pt2})
	if err != nil {
		t.Fatal(err)
	}
	if again.Resolution != "simulated" {
		t.Fatalf("point behind a corrupt peer blob resolved as %s, want simulated", again.Resolution)
	}
	if st := dstSrv.Engine().Stats(); st.BadBlobs != 1 || st.Simulated != 1 || st.PeerHits != 1 {
		t.Fatalf("destination engine after a corrupt peer blob: %+v, want 1 bad blob, 1 simulation, still 1 peer hit", st)
	}
	stored, err := dst.FetchBlob(string(pp.Fingerprint))
	if err != nil {
		t.Fatal(err)
	}
	var res experiments.PointResult
	if err := json.Unmarshal(stored, &res); err != nil || res.Metrics.Cycles <= 0 {
		t.Fatalf("destination stored %q (%v), want its own simulated result", stored, err)
	}
}
