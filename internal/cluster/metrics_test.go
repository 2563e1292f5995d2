package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	"uopsim/internal/server"
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
func jsonFields(t *testing.T, raw string) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
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

// gatewayExposition is the /metrics inventory of a 3-shard gateway after
// the script in TestGatewayMetricsInventory, with each shard URL replaced
// by node-<i> in sorted-name order (httptest ports vary run to run).
var gatewayExposition = []string{
	"# TYPE uopgate_gateway_errors counter",
	"# TYPE uopgate_gateway_markdowns gauge",
	"# TYPE uopgate_gateway_nodes_alive gauge",
	"# TYPE uopgate_gateway_probe_rounds gauge",
	"# TYPE uopgate_gateway_rejoins gauge",
	"# TYPE uopgate_gateway_requests counter",
	"# TYPE uopgate_gateway_retries counter",
	"# TYPE uopgate_gateway_ring_nodes gauge",
	"# TYPE uopgate_gateway_ring_points gauge",
	"# TYPE uopgate_gateway_ring_vnodes gauge",
	"# TYPE uopgate_gateway_spills counter",
	"# TYPE uopgate_gateway_sweep_lines counter",
	"# TYPE uopgate_node_errors_total counter",
	"# TYPE uopgate_node_requests_total counter",
	"uopgate_gateway_errors",
	"uopgate_gateway_markdowns",
	"uopgate_gateway_nodes_alive",
	"uopgate_gateway_probe_rounds",
	"uopgate_gateway_rejoins",
	"uopgate_gateway_requests",
	"uopgate_gateway_retries",
	"uopgate_gateway_ring_nodes",
	"uopgate_gateway_ring_points",
	"uopgate_gateway_ring_vnodes",
	"uopgate_gateway_spills",
	"uopgate_gateway_sweep_lines",
	"uopgate_node_errors_total{node=\"node-0\"}",
	"uopgate_node_errors_total{node=\"node-1\"}",
	"uopgate_node_errors_total{node=\"node-2\"}",
	"uopgate_node_requests_total{node=\"node-0\"}",
	"uopgate_node_requests_total{node=\"node-1\"}",
	"uopgate_node_requests_total{node=\"node-2\"}",
}

// gatewayStatsFields is the /v1/stats field set after the same script.
var gatewayStatsFields = []string{
	"balance",
	"cluster",
	"cluster.engine",
	"cluster.engine.bad_blobs",
	"cluster.engine.disk_hits",
	"cluster.engine.disk_writes",
	"cluster.engine.memo_hits",
	"cluster.engine.peer_hits",
	"cluster.engine.simulated",
	"cluster.engine.submitted",
	"cluster.engine.unique",
	"cluster.engine.verified",
	"cluster.engine.verify_failed",
	"cluster.shards_reporting",
	"gateway",
	"gateway.errors",
	"gateway.markdowns",
	"gateway.probe_rounds",
	"gateway.rejoins",
	"gateway.requests",
	"gateway.retries",
	"gateway.spills",
	"gateway.sweep_lines",
	"nodes",
	"nodes[].alive",
	"nodes[].engine",
	"nodes[].engine.bad_blobs",
	"nodes[].engine.disk_hits",
	"nodes[].engine.disk_writes",
	"nodes[].engine.memo_hits",
	"nodes[].engine.peer_hits",
	"nodes[].engine.simulated",
	"nodes[].engine.submitted",
	"nodes[].engine.unique",
	"nodes[].engine.verified",
	"nodes[].engine.verify_failed",
	"nodes[].errors",
	"nodes[].latency_p50_ms",
	"nodes[].latency_p95_ms",
	"nodes[].latency_p99_ms",
	"nodes[].name",
	"nodes[].node",
	"nodes[].points",
	"nodes[].requests",
	"nodes[].uptime_seconds",
	"nodes_alive",
	"ring",
	"ring.nodes",
	"ring.points",
	"ring.vnodes",
	"uptime_seconds",
}

// TestGatewayMetricsInventory pins the gateway's observable surface: after
// a fixed script (two simulates, a sweep, a query), /metrics carries
// exactly the same TYPE lines and series keys, and /v1/stats exactly the
// same fields, as before the per-node counters became a labelled family.
// No series may be renamed, dropped, duplicated or change type.
func TestGatewayMetricsInventory(t *testing.T) {
	gw, gwURL, _ := newTestCluster(t, 3)
	client := server.NewClient(gwURL)
	pts := testPoints(3)
	for _, pt := range pts[:2] {
		if _, err := client.Simulate(server.SimulateRequest{PointRequest: pt}); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Sweep(server.SweepRequest{Points: pts}, func(server.SweepLine) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := client.Query(server.QueryRequest{}, func(server.QueryRow) error { return nil }); err != nil {
		t.Fatal(err)
	}

	body := httpGet(t, gwURL+"/metrics")
	for i, name := range gw.names {
		body = strings.ReplaceAll(body, fmt.Sprintf("%q", name), fmt.Sprintf(`"node-%d"`, i))
	}
	if got := expositionKeys(body); !reflect.DeepEqual(got, gatewayExposition) {
		t.Errorf("/metrics inventory changed:\n%s", inventoryDiff(gatewayExposition, got))
	}
	if got := jsonFields(t, httpGet(t, gwURL+"/v1/stats")); !reflect.DeepEqual(got, gatewayStatsFields) {
		t.Errorf("/v1/stats fields changed:\n%s", inventoryDiff(gatewayStatsFields, got))
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
