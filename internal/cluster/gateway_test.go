package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"uopsim/internal/experiments"
	"uopsim/internal/runcache"
	"uopsim/internal/server"
	"uopsim/internal/warehouse"
)

// flakyHandler wraps a shard (or a gateway) so tests can kill it: while
// down, every request's connection is severed (http.ErrAbortHandler),
// which the gateway sees as a transport failure — the same signal a
// SIGKILLed process produces. failSweeps severs only /v1/sweep calls,
// modeling a node dying the moment a scatter batch lands on it. swap
// replaces the process behind the address: a restart.
//
// truncate instead lets the shard answer a point route (/v1/simulate or
// /v1/estimate) in full, then sends the status and only half the body
// before severing the connection: a process dying mid-write. record keeps
// a copy of every point-route body the shard sent, for byte-identity
// checks.
type flakyHandler struct {
	serving sync.RWMutex // held shared while a request is served
	h       http.Handler // nil while restarting; guarded by serving

	mu         sync.Mutex
	down       bool
	failSweeps bool
	truncate   bool
	truncated  int
	record     bool
	sent       [][]byte
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	kill := f.down || (f.failSweeps && r.URL.Path == "/v1/sweep")
	point := r.URL.Path == "/v1/simulate" || r.URL.Path == "/v1/estimate"
	truncate, record := f.truncate && point, f.record && point
	f.mu.Unlock()
	f.serving.RLock()
	defer f.serving.RUnlock()
	if kill || f.h == nil {
		panic(http.ErrAbortHandler)
	}
	if !truncate && !record {
		f.h.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, r)
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	body := rec.Body.Bytes()
	if truncate {
		f.mu.Lock()
		f.truncated++
		f.mu.Unlock()
		w.WriteHeader(rec.Code)
		w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}
	f.mu.Lock()
	f.sent = append(f.sent, append([]byte(nil), body...))
	f.mu.Unlock()
	w.WriteHeader(rec.Code)
	w.Write(body)
}

func (f *flakyHandler) setDown(v bool) {
	f.mu.Lock()
	f.down = v
	f.mu.Unlock()
}

// swap installs h once every request in flight on the old handler has
// finished; nil severs every request until the next swap.
func (f *flakyHandler) swap(h http.Handler) {
	f.serving.Lock()
	f.h = h
	f.serving.Unlock()
}

func (f *flakyHandler) setFailSweeps(v bool) {
	f.mu.Lock()
	f.failSweeps = v
	f.mu.Unlock()
}

// testShard is one warehouse-backed uopsimd behind a kill switch. Its
// peers are the other shards, so a local miss pulls from them first.
type testShard struct {
	url, node, dir string
	peers          []string
	srv            *server.Server
	ws             *warehouse.Store
	fl             *flakyHandler
}

// boot serves a new server.Server over the shard's warehouse directory:
// the first start, or a restart with an empty memo over the same durable
// results. The old process is severed and closed first.
func (sh *testShard) boot(t *testing.T) {
	t.Helper()
	sh.fl.swap(nil)
	if sh.srv != nil {
		sh.srv.Drain()
		sh.ws.Close()
	}
	eng, ws, err := experiments.NewWarehouseEngine(sh.dir, warehouse.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh.ws = ws
	sh.srv = server.New(server.Config{Workers: 2, Engine: eng, Warehouse: ws, NodeID: sh.node, Peers: sh.peers})
	sh.fl.swap(sh.srv)
}

// testCluster is n shards and a gateway behind an httptest front whose
// handler restartGateway swaps.
type testCluster struct {
	gw     *Gateway
	url    string
	front  *flakyHandler
	nodes  []string
	shards []*testShard
}

// bootCluster boots n shards, each with the others as peers, and a
// started gateway over them. Listeners come first so every URL is known
// before any shard is configured. Probing is fast (25ms, one strike) so
// failover converges within a test's patience.
func bootCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	c := &testCluster{front: &flakyHandler{}}
	fronts := make([]*httptest.Server, n)
	for i := range fronts {
		sh := &testShard{node: fmt.Sprintf("shard-%d", i), dir: t.TempDir(), fl: &flakyHandler{}}
		fronts[i] = httptest.NewUnstartedServer(sh.fl)
		sh.url = "http://" + fronts[i].Listener.Addr().String()
		c.shards = append(c.shards, sh)
		c.nodes = append(c.nodes, sh.url)
	}
	for i, sh := range c.shards {
		for _, u := range c.nodes {
			if u != sh.url {
				sh.peers = append(sh.peers, u)
			}
		}
		sh.boot(t)
		t.Cleanup(func() { sh.srv.Drain(); sh.ws.Close() })
		fronts[i].Start()
		t.Cleanup(fronts[i].Close)
	}
	c.gw = startGateway(t, c.nodes)
	t.Cleanup(func() { c.gw.Stop() })
	c.front.swap(c.gw)
	gts := httptest.NewServer(c.front)
	t.Cleanup(gts.Close)
	c.url = gts.URL
	return c
}

func startGateway(t *testing.T, nodes []string) *Gateway {
	t.Helper()
	gw, err := New(Config{Nodes: nodes, ProbeInterval: 25 * time.Millisecond, ProbeFails: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	return gw
}

// restartGateway stops the gateway and serves a new one over the same
// shards: empty counters, no memory of anything the old one routed.
func (c *testCluster) restartGateway(t *testing.T) {
	t.Helper()
	c.front.swap(nil)
	c.gw.Stop()
	c.gw = startGateway(t, c.nodes)
	c.front.swap(c.gw)
}

// newTestCluster is bootCluster for tests that never restart anything.
func newTestCluster(t *testing.T, n int) (*Gateway, string, []*testShard) {
	t.Helper()
	c := bootCluster(t, n)
	return c.gw, c.url, c.shards
}

// testPoints builds k distinct valid design points (small runs — these
// simulate for real).
func testPoints(k int) []experiments.PointRequest {
	var pts []experiments.PointRequest
	for _, cap := range []int{1024, 2048} {
		for _, wl := range []string{"bm_cc", "redis", "jvm"} {
			for _, sc := range experiments.Schemes(2) {
				pts = append(pts, experiments.PointRequest{
					Workload: wl, Scheme: sc.Name, Capacity: cap,
					Warmup: 1_000, Measure: 4_000,
				}.WithDefaults())
				if len(pts) == k {
					return pts
				}
			}
		}
	}
	return pts
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// shardFor maps a point to the shard the ring says owns it.
func shardFor(t *testing.T, gw *Gateway, shards []*testShard, pt experiments.PointRequest) (owner, other *testShard) {
	t.Helper()
	fp, err := pt.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	name := gw.Ring().Owner(string(fp))
	for _, sh := range shards {
		if sh.url == name {
			owner = sh
		} else if other == nil {
			other = sh
		}
	}
	if owner == nil {
		t.Fatalf("no shard matches ring owner %s", name)
	}
	return owner, other
}

// TestGatewayClusterDedupe is the acceptance scenario: 50 requests over 10
// unique points through a 3-shard cluster must simulate exactly 10 times
// fleet-wide, with every unique point resolved by exactly one shard.
func TestGatewayClusterDedupe(t *testing.T) {
	gw, gwURL, shards := newTestCluster(t, 3)
	client := server.NewClient(gwURL)
	report, err := server.RunLoad(client, server.LoadConfig{
		Requests: 50, Unique: 10, Concurrency: 8,
		Warmup: 1_000, Measure: 4_000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 {
		t.Fatalf("load failed %d of %d requests", report.Failed, report.Requests)
	}
	var total uint64
	used := 0
	for _, sh := range shards {
		st := sh.srv.Engine().Stats()
		total += st.Simulated
		if st.Simulated > 0 {
			used++
		}
	}
	if total != 10 {
		t.Fatalf("cluster simulated %d points, want exactly the 10 unique", total)
	}
	if used < 2 {
		t.Fatalf("all unique points landed on %d shard(s); routing is not spreading", used)
	}
	// The gateway's own aggregate view must agree.
	st := gw.statsResponse()
	if st.Cluster.Engine.Simulated != 10 {
		t.Fatalf("gateway stats sum Simulated=%d, want 10", st.Cluster.Engine.Simulated)
	}
	if st.Cluster.ShardsReporting != 3 || st.NodesAlive != 3 {
		t.Fatalf("gateway sees %d reporting / %d alive, want 3/3", st.Cluster.ShardsReporting, st.NodesAlive)
	}
	if st.Balance <= 0 {
		t.Fatalf("balance ratio not computed: %+v", st)
	}
}

// TestGatewayRestartOwnerPullsSpilledPoint: a point spills to a neighbour
// while its owner is down; the gateway is then replaced by a new one that
// knows nothing of the spill; the owner comes back and answers from disk,
// pulling the neighbour's blob, without re-simulating.
func TestGatewayRestartOwnerPullsSpilledPoint(t *testing.T) {
	c := bootCluster(t, 3)
	client := server.NewClient(c.url)
	pt := testPoints(1)[0]
	owner, _ := shardFor(t, c.gw, c.shards, pt)

	owner.fl.setDown(true)
	waitFor(t, "owner markdown", func() bool { return !c.gw.mem.alive(owner.url) })
	resp, err := client.Simulate(server.SimulateRequest{PointRequest: pt})
	if err != nil {
		t.Fatalf("spill simulate failed: %v", err)
	}
	if resp.Resolution != "simulated" {
		t.Fatalf("spill resolution = %s, want simulated", resp.Resolution)
	}
	if spills := c.gw.met.spills.Value(); spills != 1 {
		t.Fatalf("gateway counted %d spills after one off-owner answer", spills)
	}

	c.restartGateway(t)
	owner.fl.setDown(false)
	waitFor(t, "owner rejoin", func() bool { return c.gw.mem.alive(owner.url) })
	again, err := client.Simulate(server.SimulateRequest{PointRequest: pt})
	if err != nil {
		t.Fatal(err)
	}
	if again.Resolution != "disk" {
		t.Fatalf("rejoined owner resolved the spilled point as %s, want disk", again.Resolution)
	}
	if st := owner.srv.Engine().Stats(); st.Simulated != 0 || st.PeerHits != 1 || st.DiskHits != 1 {
		t.Fatalf("owner engine after the pull: %+v, want 0 simulations and 1 peer hit", st)
	}
	var sim uint64
	for _, sh := range c.shards {
		sim += sh.srv.Engine().Stats().Simulated
	}
	if sim != 1 {
		t.Fatalf("cluster simulated the point %d times, want once", sim)
	}
}

// TestGatewaySweepSurvivesNodeDeath scatters a sweep while one shard dies
// the moment its sub-batch arrives: every point must still come back
// exactly once with zero error lines, absorbed by the survivors.
func TestGatewaySweepSurvivesNodeDeath(t *testing.T) {
	_, gwURL, shards := newTestCluster(t, 3)
	client := server.NewClient(gwURL)
	shards[1].fl.setFailSweeps(true)

	pts := testPoints(10)
	reqs := make([]experiments.PointRequest, 30)
	for i := range reqs {
		reqs[i] = pts[i%len(pts)]
	}
	seen := make([]bool, len(reqs))
	err := client.Sweep(server.SweepRequest{Points: reqs}, func(line server.SweepLine) error {
		if line.Index < 0 || line.Index >= len(seen) {
			return fmt.Errorf("out-of-range index %d", line.Index)
		}
		if seen[line.Index] {
			return fmt.Errorf("index %d answered twice", line.Index)
		}
		seen[line.Index] = true
		if line.Error != "" {
			return fmt.Errorf("index %d failed: %s", line.Index, line.Error)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("sweep never answered index %d", i)
		}
	}
	if sim := shards[1].srv.Engine().Stats().Simulated; sim != 0 {
		t.Fatalf("dead-to-sweeps shard simulated %d points", sim)
	}
}

// TestGatewayQueryMerge fans a query across the shards and checks the
// merge: every stored point exactly once, ascending fingerprint order.
func TestGatewayQueryMerge(t *testing.T) {
	_, gwURL, _ := newTestCluster(t, 3)
	client := server.NewClient(gwURL)
	pts := testPoints(6)
	for _, pt := range pts {
		if _, err := client.Simulate(server.SimulateRequest{PointRequest: pt}); err != nil {
			t.Fatal(err)
		}
	}
	var rows []server.QueryRow
	err := client.Query(server.QueryRequest{Metrics: []string{"upc"}}, func(row server.QueryRow) error {
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(pts) {
		t.Fatalf("merged query returned %d rows, want %d", len(rows), len(pts))
	}
	seen := map[runcache.Fingerprint]bool{}
	for i, row := range rows {
		if i > 0 && rows[i-1].Fingerprint >= row.Fingerprint {
			t.Fatalf("rows out of order at %d: %s !< %s", i, rows[i-1].Fingerprint, row.Fingerprint)
		}
		if seen[row.Fingerprint] {
			t.Fatalf("duplicate fingerprint %s in merged stream", row.Fingerprint)
		}
		seen[row.Fingerprint] = true
		if row.Metrics["upc"] == 0 {
			t.Fatalf("row %s carries no upc", row.Fingerprint)
		}
	}
}

// TestGatewayHealthz checks the degraded-but-serving contract: 200 while
// any shard lives, 503 when none does, and recovery back to 200.
func TestGatewayHealthz(t *testing.T) {
	gw, gwURL, shards := newTestCluster(t, 2)
	check := func(want int) {
		t.Helper()
		resp, err := http.Get(gwURL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("healthz = %d, want %d", resp.StatusCode, want)
		}
	}
	check(http.StatusOK)
	for _, sh := range shards {
		sh.fl.setDown(true)
	}
	waitFor(t, "all shards down", func() bool { return gw.mem.aliveCount() == 0 })
	check(http.StatusServiceUnavailable)
	shards[0].fl.setDown(false)
	waitFor(t, "one shard back", func() bool { return gw.mem.aliveCount() == 1 })
	check(http.StatusOK)
}

// TestGatewayRejectsDuplicateNodes guards the config contract.
func TestGatewayRejectsDuplicateNodes(t *testing.T) {
	if _, err := New(Config{Nodes: []string{"http://a:1", "http://a:1"}}); err == nil {
		t.Fatal("duplicate -nodes accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty -nodes accepted")
	}
}

// TestMembershipStrikes exercises the mark-down/rejoin counters directly:
// failures below the threshold keep a shard alive, the threshold downs it,
// one success rejoins it.
func TestMembershipStrikes(t *testing.T) {
	m := newMembership([]*shard{{name: "a"}, {name: "b"}}, time.Hour, 3)
	m.reportFailure("a")
	m.reportFailure("a")
	if !m.alive("a") {
		t.Fatal("two strikes of three downed the shard")
	}
	m.reportFailure("a")
	if m.alive("a") {
		t.Fatal("three strikes left the shard alive")
	}
	if m.aliveCount() != 1 {
		t.Fatalf("aliveCount = %d, want 1", m.aliveCount())
	}
	m.reportSuccess("a", server.HealthzInfo{Node: "shard-a", Points: 7})
	if !m.alive("a") {
		t.Fatal("success did not rejoin the shard")
	}
	h, ok := m.healthOf("a")
	if !ok || h.Info.Node != "shard-a" || h.Info.Points != 7 {
		t.Fatalf("healthOf lost the probe payload: %+v", h)
	}
	md, rj := m.markdowns.Value(), m.rejoins.Value()
	if md != 1 || rj != 1 {
		t.Fatalf("counters markdowns=%d rejoins=%d, want 1/1", md, rj)
	}
	// Unknown shards are ignored, not invented.
	m.reportFailure("zz")
	m.reportSuccess("zz", server.HealthzInfo{})
	if _, ok := m.healthOf("zz"); ok {
		t.Fatal("unknown shard materialized in membership")
	}
}

// TestGatewayStatsEndpoint smoke-checks the aggregate JSON and the
// Prometheus rendering over the wire.
func TestGatewayStatsEndpoint(t *testing.T) {
	_, gwURL, _ := newTestCluster(t, 3)
	client := server.NewClient(gwURL)
	if _, err := client.Simulate(server.SimulateRequest{PointRequest: testPoints(1)[0]}); err != nil {
		t.Fatal(err)
	}
	cs, err := server.GetJSON[StatsResponse](client, "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Ring.Nodes != 3 || cs.Ring.VNodes != DefaultVNodes {
		t.Fatalf("ring info wrong: %+v", cs.Ring)
	}
	if cs.Gateway.Requests == 0 {
		t.Fatal("gateway requests counter never moved")
	}
	if len(cs.Nodes) != 3 {
		t.Fatalf("stats lists %d nodes, want 3", len(cs.Nodes))
	}
	resp, err := http.Get(gwURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{"uopgate_gateway_requests", "uopgate_gateway_ring_nodes", "uopgate_node_requests_total{node="} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestGatewayForwardsShardBodyVerbatim: on each point route the gateway's
// answer is the owner's body byte for byte, with its Content-Length: on a
// miss, on a repeat, and on a 400 the shard raises itself (a point over
// its per-point cap, which the gateway does not check). The 400 passes
// through without striking or retrying the shard.
func TestGatewayForwardsShardBodyVerbatim(t *testing.T) {
	for _, route := range []struct {
		path string
		body func(experiments.PointRequest) any
		// tier reads which tier answered from a 200 body; tiers are the
		// answers to a miss and to its repeat.
		tier  func([]byte) (string, error)
		tiers [2]string
	}{
		{
			path: "/v1/simulate",
			body: func(pt experiments.PointRequest) any { return server.SimulateRequest{PointRequest: pt} },
			tier: func(b []byte) (string, error) {
				var ans server.SimulateResponse
				err := json.Unmarshal(b, &ans)
				return ans.Resolution, err
			},
			tiers: [2]string{"simulated", "memo"},
		},
		{
			path: "/v1/estimate",
			body: func(pt experiments.PointRequest) any { return server.EstimateRequest{PointRequest: pt} },
			tier: func(b []byte) (string, error) {
				var ans server.EstimateResponse
				err := json.Unmarshal(b, &ans)
				return ans.Source, err
			},
			tiers: [2]string{"simulated", "surrogate"},
		},
	} {
		t.Run(strings.TrimPrefix(route.path, "/v1/"), func(t *testing.T) {
			gw, gwURL, shards := newTestCluster(t, 3)
			for _, sh := range shards {
				sh.fl.mu.Lock()
				sh.fl.record = true
				sh.fl.mu.Unlock()
			}
			// ask sends pt through the gateway and returns the status, the
			// body, and the last body pt's owner sent, checking that the
			// two bodies match and the gateway declared the length.
			ask := func(pt experiments.PointRequest) (int, []byte, int) {
				t.Helper()
				owner, _ := shardFor(t, gw, shards, pt)
				body, err := json.Marshal(route.body(pt))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post(gwURL+route.path, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.ContentLength != int64(len(got)) {
					t.Fatalf("gateway declared Content-Length %d for a %d-byte body", resp.ContentLength, len(got))
				}
				owner.fl.mu.Lock()
				sent := owner.fl.sent
				owner.fl.mu.Unlock()
				if len(sent) == 0 || !bytes.Equal(got, sent[len(sent)-1]) {
					t.Fatalf("gateway body differs from the owner's last one:\n%s\nvs %d sent", got, len(sent))
				}
				return resp.StatusCode, got, len(sent)
			}
			pt := testPoints(1)[0]
			for i, want := range route.tiers {
				code, got, sent := ask(pt)
				if code != http.StatusOK {
					t.Fatalf("request %d: HTTP %d: %s", i, code, got)
				}
				if sent != i+1 {
					t.Fatalf("owner sent %d bodies after %d requests", sent, i+1)
				}
				if tier, err := route.tier(got); err != nil || tier != want {
					t.Fatalf("request %d: answered by %q (%v), want %q", i, tier, err, want)
				}
			}

			over := pt
			over.Measure = 3_000_000
			code, got, _ := ask(over)
			if code != http.StatusBadRequest || !strings.Contains(string(got), "per-point cap") {
				t.Fatalf("over-cap point: HTTP %d: %s, want the shard's 400", code, got)
			}
			if md, rt := gw.mem.markdowns.Value(), gw.met.retries.Value(); md != 0 || rt != 0 {
				t.Fatalf("a shard's 400 caused %d markdowns and %d retries, want none", md, rt)
			}
		})
	}
}

// TestGatewayRetriesShardDyingMidBody: on each point route, an owner that
// sends 200 and half its body before the connection drops is a failed
// shard, not an answer; the gateway retries the next ring owner and
// returns a whole body.
func TestGatewayRetriesShardDyingMidBody(t *testing.T) {
	for _, tc := range []struct {
		path string
		ask  func(*server.Client, experiments.PointRequest, runcache.Fingerprint) error
	}{
		{"/v1/simulate", func(c *server.Client, pt experiments.PointRequest, fp runcache.Fingerprint) error {
			resp, err := c.Simulate(server.SimulateRequest{PointRequest: pt})
			if err != nil {
				return err
			}
			if resp.Fingerprint != string(fp) || resp.Result.Metrics.Cycles <= 0 {
				return fmt.Errorf("answer %s with %d cycles, want a whole answer for %s", resp.Fingerprint, resp.Result.Metrics.Cycles, fp)
			}
			return nil
		}},
		{"/v1/estimate", func(c *server.Client, pt experiments.PointRequest, _ runcache.Fingerprint) error {
			resp, err := c.Estimate(server.EstimateRequest{PointRequest: pt})
			if err != nil {
				return err
			}
			if resp.Source != "simulated" || resp.Metrics["upc"] <= 0 {
				return fmt.Errorf("answer from %q with upc %v, want a whole simulated answer", resp.Source, resp.Metrics["upc"])
			}
			return nil
		}},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			gw, gwURL, shards := newTestCluster(t, 3)
			pt := testPoints(1)[0]
			owner, _ := shardFor(t, gw, shards, pt)
			owner.fl.mu.Lock()
			owner.fl.truncate = true
			owner.fl.mu.Unlock()

			fp, err := pt.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.ask(server.NewClient(gwURL), pt, fp); err != nil {
				t.Fatalf("%s through a shard dying mid-body: %v", tc.path, err)
			}
			owner.fl.mu.Lock()
			truncated := owner.fl.truncated
			owner.fl.mu.Unlock()
			if truncated != 1 {
				t.Fatalf("owner cut %d answers short, want 1", truncated)
			}
			if errs, retries := gw.met.errors.Value(), gw.met.retries.Value(); retries < 1 || errs != 0 {
				t.Fatalf("gateway counted %d retries and %d errors, want a retry and no error", retries, errs)
			}
			// The owner stored its result before the connection dropped, so
			// the next owner pulls it instead of simulating again.
			var sim, pulled uint64
			for _, sh := range shards {
				st := sh.srv.Engine().Stats()
				sim += st.Simulated
				pulled += st.PeerHits
			}
			if sim != 1 || pulled != 1 {
				t.Fatalf("cluster simulated %d times and pulled %d blobs, want 1 and 1", sim, pulled)
			}
		})
	}
}

// TestGatewaySweepPassesShardRefusalThrough: a shard that refuses a
// sub-batch with a 400 (a point over its per-point cap, which the gateway
// does not check) has answered, not failed. The point's line carries the
// shard's message, no shard is struck or retried, and the cluster keeps
// serving. When the refused sub-batch also holds valid points, those still
// resolve and only the bad point's line carries the refusal, under the
// caller's index.
func TestGatewaySweepPassesShardRefusalThrough(t *testing.T) {
	gw, gwURL, _ := newTestCluster(t, 3)
	client := server.NewClient(gwURL)
	over := experiments.PointRequest{Workload: "bm_cc", Measure: 3_000_000}
	var lines []server.SweepLine
	err := client.Sweep(server.SweepRequest{Points: []experiments.PointRequest{over}}, func(line server.SweepLine) error {
		lines = append(lines, line)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0].Index != 0 || !strings.Contains(lines[0].Error, "exceeds this server's per-point cap") {
		t.Fatalf("sweep answered %+v, want one error line carrying the shard's message", lines)
	}
	if md, rt, alive := gw.mem.markdowns.Value(), gw.met.retries.Value(), gw.mem.aliveCount(); md != 0 || rt != 0 || alive != 3 {
		t.Fatalf("after a refused sweep: markdowns=%d retries=%d alive=%d, want 0, 0 and 3", md, rt, alive)
	}
	if _, err := client.Simulate(server.SimulateRequest{PointRequest: testPoints(1)[0]}); err != nil {
		t.Fatalf("simulate after a refused sweep: %v", err)
	}

	// One shard, so the ring sends all three points in one sub-batch.
	gw1, gw1URL, _ := newTestCluster(t, 1)
	client1 := server.NewClient(gw1URL)
	batch := append(testPoints(2), over)
	results := map[int]bool{}
	var errLines []server.SweepLine
	err = client1.Sweep(server.SweepRequest{Points: batch}, func(line server.SweepLine) error {
		if line.Error != "" {
			errLines = append(errLines, line)
		} else {
			results[line.Index] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || !results[0] || !results[1] {
		t.Errorf("valid points answered %v, want results for indexes 0 and 1", results)
	}
	if len(errLines) != 1 || errLines[0].Index != 2 ||
		!strings.HasPrefix(errLines[0].Error, "points[2]: ") || !strings.Contains(errLines[0].Error, "exceeds this server's per-point cap") {
		t.Fatalf("error lines %+v, want one for index 2 naming points[2] and the shard's cap", errLines)
	}
	if md, rt, alive := gw1.mem.markdowns.Value(), gw1.met.retries.Value(), gw1.mem.aliveCount(); md != 0 || rt != 0 || alive != 1 {
		t.Fatalf("after a partly refused sweep: markdowns=%d retries=%d alive=%d, want 0, 0 and 1", md, rt, alive)
	}
}

// TestMethodNotAllowed asks every method-guarded endpoint of a daemon and
// of a gateway with a method it does not serve: each answers 405 with an
// errorBody that carries its own hint.
func TestMethodNotAllowed(t *testing.T) {
	c := bootCluster(t, 1)
	const (
		simulate = "POST a SimulateRequest to this endpoint"
		sweep    = "POST a SweepRequest to this endpoint"
		estimate = "POST an EstimateRequest to this endpoint"
		query    = "POST a QueryRequest to this endpoint"
		stats    = "GET this endpoint"
	)
	for _, tc := range []struct {
		front, url, path, method, hint string
	}{
		{"uopsimd", c.shards[0].url, "/v1/simulate", http.MethodPost, simulate},
		{"uopsimd", c.shards[0].url, "/v1/sweep", http.MethodPost, sweep},
		{"uopsimd", c.shards[0].url, "/v1/estimate", http.MethodPost, estimate},
		{"uopsimd", c.shards[0].url, "/v1/query", http.MethodPost, query},
		{"uopsimd", c.shards[0].url, "/v1/blob", http.MethodGet, "GET a fingerprint from this endpoint"},
		{"uopsimd", c.shards[0].url, "/v1/stats", http.MethodGet, stats},
		{"uopgate", c.url, "/v1/simulate", http.MethodPost, simulate},
		{"uopgate", c.url, "/v1/estimate", http.MethodPost, estimate},
		{"uopgate", c.url, "/v1/sweep", http.MethodPost, sweep},
		{"uopgate", c.url, "/v1/query", http.MethodPost, query},
		{"uopgate", c.url, "/v1/stats", http.MethodGet, stats},
	} {
		wrong := []string{http.MethodGet, http.MethodPut}
		if tc.method == http.MethodGet {
			wrong = []string{http.MethodPost, http.MethodDelete}
		}
		for _, method := range wrong {
			t.Run(tc.front+" "+method+" "+tc.path, func(t *testing.T) {
				req, err := http.NewRequest(method, tc.url+tc.path, nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var eb struct {
					Error string `json:"error"`
				}
				dec := json.NewDecoder(resp.Body)
				dec.DisallowUnknownFields()
				if err := dec.Decode(&eb); err != nil {
					t.Fatalf("HTTP %d with no error body: %v", resp.StatusCode, err)
				}
				if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Content-Type") != "application/json" || eb.Error != tc.hint {
					t.Fatalf("HTTP %d (%s) %q, want 405 application/json %q", resp.StatusCode, resp.Header.Get("Content-Type"), eb.Error, tc.hint)
				}
			})
		}
	}
}
