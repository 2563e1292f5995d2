package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"uopsim/internal/experiments"
)

// expositionKeys reduces a Prometheus text body to its sorted inventory:
// every "# TYPE" line, and every series key (name plus labels) with the
// value stripped. A key that appears twice is kept twice, so a duplicated
// series shows up as a diff.
func expositionKeys(body string) []string {
	var keys []string
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			keys = append(keys, line)
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			keys = append(keys, line[:i])
		}
	}
	sort.Strings(keys)
	return keys
}

// jsonFields lists every field path of a JSON document, sorted: nested
// objects join with ".", array elements collapse to "[]".
func jsonFields(t *testing.T, raw []byte) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				set[p] = true
				walk(p, child)
			}
		case []any:
			for _, child := range v {
				walk(prefix+"[]", child)
			}
		}
	}
	walk("", doc)
	fields := make([]string, 0, len(set))
	for f := range set {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	return fields
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, raw)
	}
	return string(raw)
}

// daemonExposition is the /metrics inventory of a warehouse-backed daemon
// after the script in TestMetricsInventory.
var daemonExposition = []string{
	"# TYPE uopsimd_runcache_bad_blobs gauge",
	"# TYPE uopsimd_runcache_dedupe_factor gauge",
	"# TYPE uopsimd_runcache_disk_hits gauge",
	"# TYPE uopsimd_runcache_disk_writes gauge",
	"# TYPE uopsimd_runcache_memo_hits gauge",
	"# TYPE uopsimd_runcache_peer_hits gauge",
	"# TYPE uopsimd_runcache_simulated gauge",
	"# TYPE uopsimd_runcache_submitted gauge",
	"# TYPE uopsimd_runcache_unique gauge",
	"# TYPE uopsimd_runcache_verified gauge",
	"# TYPE uopsimd_runcache_verify_failed gauge",
	"# TYPE uopsimd_server_admitted counter",
	"# TYPE uopsimd_server_completed counter",
	"# TYPE uopsimd_server_estimate_fallthrough counter",
	"# TYPE uopsimd_server_estimate_latency_us histogram",
	"# TYPE uopsimd_server_estimate_requests counter",
	"# TYPE uopsimd_server_estimate_served counter",
	"# TYPE uopsimd_server_expired counter",
	"# TYPE uopsimd_server_failed counter",
	"# TYPE uopsimd_server_fast_hits counter",
	"# TYPE uopsimd_server_inflight gauge",
	"# TYPE uopsimd_server_latency_mean_ms summary",
	"# TYPE uopsimd_server_latency_ms histogram",
	"# TYPE uopsimd_server_peer_fetch_errors counter",
	"# TYPE uopsimd_server_queue_capacity gauge",
	"# TYPE uopsimd_server_queue_depth gauge",
	"# TYPE uopsimd_server_rejected counter",
	"# TYPE uopsimd_server_rejected_draining counter",
	"# TYPE uopsimd_server_simulations_full counter",
	"# TYPE uopsimd_server_simulations_sampled counter",
	"# TYPE uopsimd_server_timeouts counter",
	"# TYPE uopsimd_server_workers gauge",
	"# TYPE uopsimd_simulations_total counter",
	"# TYPE uopsimd_surrogate_dimensions gauge",
	"# TYPE uopsimd_surrogate_exact_hits gauge",
	"# TYPE uopsimd_surrogate_fitted_points gauge",
	"# TYPE uopsimd_surrogate_inserts gauge",
	"# TYPE uopsimd_surrogate_interpolated gauge",
	"# TYPE uopsimd_surrogate_live_points gauge",
	"# TYPE uopsimd_surrogate_no_prediction gauge",
	"# TYPE uopsimd_surrogate_partitions gauge",
	"# TYPE uopsimd_surrogate_pending_edits gauge",
	"# TYPE uopsimd_surrogate_predictions gauge",
	"# TYPE uopsimd_surrogate_removes gauge",
	"# TYPE uopsimd_surrogate_retrains gauge",
	"# TYPE uopsimd_surrogate_skipped_points gauge",
	"# TYPE uopsimd_warehouse_compact_errors gauge",
	"# TYPE uopsimd_warehouse_compactions gauge",
	"# TYPE uopsimd_warehouse_corrupt_frames gauge",
	"# TYPE uopsimd_warehouse_dead_bytes gauge",
	"# TYPE uopsimd_warehouse_deletes gauge",
	"# TYPE uopsimd_warehouse_evictions gauge",
	"# TYPE uopsimd_warehouse_live_bytes gauge",
	"# TYPE uopsimd_warehouse_loads gauge",
	"# TYPE uopsimd_warehouse_misses gauge",
	"# TYPE uopsimd_warehouse_puts gauge",
	"# TYPE uopsimd_warehouse_quarantined gauge",
	"# TYPE uopsimd_warehouse_records gauge",
	"# TYPE uopsimd_warehouse_segments gauge",
	"# TYPE uopsimd_warehouse_supersedes gauge",
	"# TYPE uopsimd_warehouse_torn_tails gauge",
	"uopsimd_runcache_bad_blobs",
	"uopsimd_runcache_dedupe_factor",
	"uopsimd_runcache_disk_hits",
	"uopsimd_runcache_disk_writes",
	"uopsimd_runcache_memo_hits",
	"uopsimd_runcache_peer_hits",
	"uopsimd_runcache_simulated",
	"uopsimd_runcache_submitted",
	"uopsimd_runcache_unique",
	"uopsimd_runcache_verified",
	"uopsimd_runcache_verify_failed",
	"uopsimd_server_admitted",
	"uopsimd_server_completed",
	"uopsimd_server_estimate_fallthrough",
	"uopsimd_server_estimate_latency_us_bucket{le=\"+Inf\"}",
	"uopsimd_server_estimate_latency_us_bucket{le=\"10\"}",
	"uopsimd_server_estimate_latency_us_bucket{le=\"100\"}",
	"uopsimd_server_estimate_latency_us_bucket{le=\"1000\"}",
	"uopsimd_server_estimate_latency_us_bucket{le=\"10000\"}",
	"uopsimd_server_estimate_latency_us_bucket{le=\"100000\"}",
	"uopsimd_server_estimate_latency_us_bucket{le=\"1000000\"}",
	"uopsimd_server_estimate_latency_us_bucket{le=\"10000000\"}",
	"uopsimd_server_estimate_latency_us_bucket{le=\"25\"}",
	"uopsimd_server_estimate_latency_us_bucket{le=\"250\"}",
	"uopsimd_server_estimate_latency_us_bucket{le=\"2500\"}",
	"uopsimd_server_estimate_latency_us_bucket{le=\"50\"}",
	"uopsimd_server_estimate_latency_us_bucket{le=\"500\"}",
	"uopsimd_server_estimate_latency_us_count",
	"uopsimd_server_estimate_requests",
	"uopsimd_server_estimate_served",
	"uopsimd_server_expired",
	"uopsimd_server_failed",
	"uopsimd_server_fast_hits",
	"uopsimd_server_inflight",
	"uopsimd_server_latency_mean_ms_count",
	"uopsimd_server_latency_mean_ms_sum",
	"uopsimd_server_latency_ms_bucket{le=\"+Inf\"}",
	"uopsimd_server_latency_ms_bucket{le=\"1\"}",
	"uopsimd_server_latency_ms_bucket{le=\"10\"}",
	"uopsimd_server_latency_ms_bucket{le=\"100\"}",
	"uopsimd_server_latency_ms_bucket{le=\"1000\"}",
	"uopsimd_server_latency_ms_bucket{le=\"10000\"}",
	"uopsimd_server_latency_ms_bucket{le=\"2\"}",
	"uopsimd_server_latency_ms_bucket{le=\"25\"}",
	"uopsimd_server_latency_ms_bucket{le=\"250\"}",
	"uopsimd_server_latency_ms_bucket{le=\"2500\"}",
	"uopsimd_server_latency_ms_bucket{le=\"30000\"}",
	"uopsimd_server_latency_ms_bucket{le=\"5\"}",
	"uopsimd_server_latency_ms_bucket{le=\"50\"}",
	"uopsimd_server_latency_ms_bucket{le=\"500\"}",
	"uopsimd_server_latency_ms_bucket{le=\"5000\"}",
	"uopsimd_server_latency_ms_bucket{le=\"60000\"}",
	"uopsimd_server_latency_ms_count",
	"uopsimd_server_peer_fetch_errors",
	"uopsimd_server_queue_capacity",
	"uopsimd_server_queue_depth",
	"uopsimd_server_rejected",
	"uopsimd_server_rejected_draining",
	"uopsimd_server_simulations_full",
	"uopsimd_server_simulations_sampled",
	"uopsimd_server_timeouts",
	"uopsimd_server_workers",
	"uopsimd_simulations_total{mode=\"full\"}",
	"uopsimd_simulations_total{mode=\"sampled\"}",
	"uopsimd_surrogate_dimensions",
	"uopsimd_surrogate_exact_hits",
	"uopsimd_surrogate_fitted_points",
	"uopsimd_surrogate_inserts",
	"uopsimd_surrogate_interpolated",
	"uopsimd_surrogate_live_points",
	"uopsimd_surrogate_no_prediction",
	"uopsimd_surrogate_partitions",
	"uopsimd_surrogate_pending_edits",
	"uopsimd_surrogate_predictions",
	"uopsimd_surrogate_removes",
	"uopsimd_surrogate_retrains",
	"uopsimd_surrogate_skipped_points",
	"uopsimd_warehouse_compact_errors",
	"uopsimd_warehouse_compactions",
	"uopsimd_warehouse_corrupt_frames",
	"uopsimd_warehouse_dead_bytes",
	"uopsimd_warehouse_deletes",
	"uopsimd_warehouse_evictions",
	"uopsimd_warehouse_live_bytes",
	"uopsimd_warehouse_loads",
	"uopsimd_warehouse_misses",
	"uopsimd_warehouse_puts",
	"uopsimd_warehouse_quarantined",
	"uopsimd_warehouse_records",
	"uopsimd_warehouse_segments",
	"uopsimd_warehouse_supersedes",
	"uopsimd_warehouse_torn_tails",
}

// daemonStatsFields is the /v1/stats field set after the same script.
var daemonStatsFields = []string{
	"engine",
	"engine.bad_blobs",
	"engine.disk_hits",
	"engine.disk_writes",
	"engine.memo_hits",
	"engine.peer_hits",
	"engine.simulated",
	"engine.submitted",
	"engine.unique",
	"engine.verified",
	"engine.verify_failed",
	"estimate",
	"estimate.fallthrough",
	"estimate.requests",
	"estimate.served",
	"pool",
	"pool.admitted",
	"pool.completed",
	"pool.expired",
	"pool.failed",
	"pool.fast_hits",
	"pool.inflight",
	"pool.queue_capacity",
	"pool.queue_depth",
	"pool.rejected",
	"pool.rejected_draining",
	"pool.timeouts",
	"pool.workers",
	"simulations",
	"simulations.full",
	"simulations.sampled",
	"surrogate",
	"surrogate.dimensions",
	"surrogate.exact_hits",
	"surrogate.fitted_points",
	"surrogate.inserts",
	"surrogate.interpolated",
	"surrogate.live_points",
	"surrogate.no_prediction",
	"surrogate.partitions",
	"surrogate.pending_edits",
	"surrogate.predictions",
	"surrogate.removes",
	"surrogate.retrains",
	"surrogate.skipped_points",
	"uptime_seconds",
	"warehouse",
	"warehouse.compact_errors",
	"warehouse.compactions",
	"warehouse.corrupt_frames",
	"warehouse.dead_bytes",
	"warehouse.deletes",
	"warehouse.evictions",
	"warehouse.live_bytes",
	"warehouse.loads",
	"warehouse.misses",
	"warehouse.puts",
	"warehouse.quarantined",
	"warehouse.records",
	"warehouse.segments",
	"warehouse.supersedes",
	"warehouse.torn_tails",
}

// TestMetricsInventory pins the daemon's observable surface: after a fixed
// request script (full, memo hit, sampled, estimate fall-through, estimate
// served), /metrics carries exactly the same TYPE lines and series keys,
// and /v1/stats exactly the same fields, as before the metrics moved onto
// stats' concurrency-safe instruments. No series may be renamed, dropped,
// duplicated or change type.
func TestMetricsInventory(t *testing.T) {
	_, _, url := newWarehouseServer(t, Config{Workers: 2, MaxInsts: 500_000})
	client := NewClient(url)
	pt := experiments.PointRequest{Workload: "bm_cc", Warmup: 2_000, Measure: 10_000}
	for i := 0; i < 2; i++ {
		if _, err := client.Simulate(SimulateRequest{PointRequest: pt}); err != nil {
			t.Fatal(err)
		}
	}
	sampled := pt
	sampled.Sampling = &SamplingRequest{Intervals: 2, IntervalInsts: 2_000, WarmupInsts: 500}
	if _, err := client.Simulate(SimulateRequest{PointRequest: sampled}); err != nil {
		t.Fatal(err)
	}
	est := experiments.PointRequest{Workload: "bm_ds", Scheme: "baseline", Capacity: 2048, Warmup: 2_000, Measure: 10_000}
	for i := 0; i < 2; i++ {
		if _, err := client.Estimate(EstimateRequest{PointRequest: est}); err != nil {
			t.Fatal(err)
		}
	}

	if got := expositionKeys(httpGet(t, url+"/metrics")); !reflect.DeepEqual(got, daemonExposition) {
		t.Errorf("/metrics inventory changed:\n%s", inventoryDiff(daemonExposition, got))
	}
	if got := jsonFields(t, []byte(httpGet(t, url+"/v1/stats"))); !reflect.DeepEqual(got, daemonStatsFields) {
		t.Errorf("/v1/stats fields changed:\n%s", inventoryDiff(daemonStatsFields, got))
	}
}

// inventoryDiff lists what is missing from got and what is new in it.
func inventoryDiff(want, got []string) string {
	count := map[string]int{}
	for _, k := range want {
		count[k]++
	}
	for _, k := range got {
		count[k]--
	}
	var b strings.Builder
	for _, k := range append(append([]string(nil), want...), got...) {
		switch n := count[k]; {
		case n > 0:
			fmt.Fprintf(&b, "- %s (x%d)\n", k, n)
		case n < 0:
			fmt.Fprintf(&b, "+ %s (x%d)\n", k, -n)
		}
		count[k] = 0
	}
	return b.String()
}

// TestStatsModeSplitUnderLoad polls /v1/stats while cold and warm
// /v1/simulate requests complete concurrently: every single poll must
// show sampled+full == completed, not only the quiescent one.
func TestStatsModeSplitUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
	client := NewClient(ts.URL)
	var pts []experiments.PointRequest
	for _, wl := range []string{"bm_cc", "redis", "jvm"} {
		for _, cap := range []int{1024, 2048} {
			pts = append(pts, experiments.PointRequest{Workload: wl, Capacity: cap, Warmup: 500, Measure: 2_000})
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*len(pts); i++ {
				pt := pts[(i+w)%len(pts)]
				if i%2 == 0 {
					pt.Sampling = &SamplingRequest{Intervals: 2, IntervalInsts: 500, WarmupInsts: 100}
				}
				if _, err := client.Simulate(SimulateRequest{PointRequest: pt}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	polls := 0
	for finished := false; !finished; polls++ {
		select {
		case <-done:
			finished = true
		default:
		}
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Simulations.Sampled+st.Simulations.Full != st.Pool.Completed {
			t.Fatalf("poll %d: sampled %d + full %d != completed %d",
				polls, st.Simulations.Sampled, st.Simulations.Full, st.Pool.Completed)
		}
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(2 * len(pts)); st.Engine.Simulated != want || st.Pool.Completed < want {
		t.Fatalf("after quiescence simulated=%d completed=%d, want %d simulations (one per point and mode)",
			st.Engine.Simulated, st.Pool.Completed, want)
	}
}
