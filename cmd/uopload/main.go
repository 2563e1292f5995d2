// Command uopload replays sweep-shaped request mixes against a running
// uopsimd: -n requests drawn (seeded shuffle) from -unique distinct design
// points, issued by -c concurrent clients, optionally paced to -rps. It
// reports latency percentiles, the per-resolution breakdown (simulated /
// memo / disk — the dedupe evidence), and the 429/retry tally, then
// fetches the daemon's /v1/stats engine counters. Exit status is nonzero
// if any request ultimately failed.
//
// With -mode estimate the mix goes to /v1/estimate (warehouse-backed
// daemons only): confident surrogate predictions answer sub-millisecond,
// the rest fall through to real simulation, and the report splits the two
// tiers (estimate surrogate=… simulated=…) with per-tier latency
// percentiles, then re-simulates a few surrogate-served points to report
// fast-tier accuracy against ground truth.
//
// With -mode query it instead reads results the daemon already stores: the
// request goes to /v1/query (warehouse-backed daemons only) with -where
// feature predicates and -metrics selectors, and rows come back as NDJSON
// on stdout in ascending fingerprint order — stable enough to diff.
//
// With -gateway the target is a uopgate cluster front end instead of a
// single daemon (same wire API, so every -mode works unchanged) and the
// report gains the cluster view: per-shard request balance, spill and
// membership counters, and the cluster-wide dedupe check — the summed
// Simulated across shards must equal the mix's unique point count, the
// proof that fingerprint routing collapsed every repeat fleet-wide.
//
// Usage:
//
//	uopload -url http://localhost:8077 -n 50 -unique 10 -c 8
//	uopload -url http://localhost:8077 -mode sweep -n 50 -unique 10
//	uopload -url http://localhost:8077 -mode estimate -n 200 -unique 10
//	uopload -url http://localhost:8077 -mode query -where workload=bm_cc -metrics upc,oc_fetch_ratio
//	uopload -url http://localhost:8090 -gateway -n 50 -unique 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"uopsim/internal/cluster"
	"uopsim/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uopload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		url        = flag.String("url", "http://localhost:8077", "uopsimd base URL")
		n          = flag.Int("n", 50, "total requests")
		unique     = flag.Int("unique", 10, "distinct design points in the mix")
		conc       = flag.Int("c", 8, "concurrent clients")
		rps        = flag.Int("rps", 0, "target request rate (0 = unpaced)")
		warmup     = flag.Uint64("warmup", 2_000, "warmup instructions per point")
		insts      = flag.Uint64("insts", 10_000, "measured instructions per point")
		workloads  = flag.String("workloads", "", "comma-separated workload mix (empty = default)")
		seed       = flag.Int64("seed", 1, "shuffle seed")
		retries    = flag.Int("retries", 3, "429 retries per request (negative disables)")
		retryDelay = flag.Duration("retry-delay", 0, "cap on per-retry sleep (0 = honor Retry-After)")
		mode       = flag.String("mode", "simulate", "simulate (per-request /v1/simulate), sweep (one /v1/sweep batch), estimate (fast tier via /v1/estimate), or query (read stored results from /v1/query)")
		minConf    = flag.Float64("min-confidence", 0, "estimate: per-request confidence floor (0 = server's gate)")
		estChecks  = flag.Int("estimate-checks", 0, "estimate: surrogate answers to re-simulate for the accuracy report (0 = default 3, negative disables)")
		where      = flag.String("where", "", "query: comma-separated key=value feature predicates (e.g. workload=bm_cc,config.uopcache.capacityuops=2048)")
		metrics    = flag.String("metrics", "", "query: comma-separated metrics to project per row (empty = upc)")
		qLimit     = flag.Int("query-limit", 0, "query: cap on returned rows (0 = unlimited)")
		qFeatures  = flag.Bool("query-features", false, "query: include each row's stored feature vector")
		timeout    = flag.Duration("timeout", 0, "per-request timeout forwarded as timeout_ms (0 = server cap)")
		gateway    = flag.Bool("gateway", false, "target is a uopgate cluster gateway: report per-shard balance and the cluster-wide dedupe check")
		sample     = flag.Bool("sample", false, "request interval-sampled simulation for every point")
		sampleK    = flag.Int("sample-intervals", 0, "sampling: measurement intervals per run (0 = server default)")
		sampleM    = flag.Uint64("sample-insts", 0, "sampling: measured instructions per interval (0 = server default)")
		sampleW    = flag.Uint64("sample-warmup", 0, "sampling: detailed-warmup instructions per interval (0 = server default)")
	)
	flag.Parse()

	cfg := server.LoadConfig{
		Requests:    *n,
		Unique:      *unique,
		Concurrency: *conc,
		RPS:         *rps,
		Warmup:      *warmup,
		Measure:     *insts,
		Seed:        *seed,
		Retries:     *retries,
		RetryDelay:  *retryDelay,
		TimeoutMS:   timeout.Milliseconds(),

		MinConfidence:  *minConf,
		EstimateChecks: *estChecks,
	}
	if *workloads != "" {
		cfg.Workloads = strings.Split(*workloads, ",")
	}
	if *sample || *sampleK > 0 || *sampleM > 0 || *sampleW > 0 {
		cfg.Sampling = &server.SamplingRequest{
			Intervals:     *sampleK,
			IntervalInsts: *sampleM,
			WarmupInsts:   *sampleW,
		}
	}

	client := server.NewClient(*url)
	if err := client.Healthz(); err != nil {
		return fmt.Errorf("daemon not healthy at %s: %w", *url, err)
	}

	if *mode == "query" {
		return runQuery(client, *where, *metrics, *qLimit, *qFeatures)
	}

	var (
		report server.LoadReport
		err    error
	)
	switch *mode {
	case "simulate":
		report, err = server.RunLoad(client, cfg)
	case "sweep":
		report, err = server.RunSweep(client, cfg)
	case "estimate":
		report, err = server.RunEstimate(client, cfg)
	default:
		return fmt.Errorf("unknown -mode %q (simulate, sweep, estimate, or query)", *mode)
	}
	if err != nil {
		return err
	}
	fmt.Print(report)

	if *gateway {
		if cerr := reportCluster(client, cfg.PoolSize()); cerr != nil {
			fmt.Fprintf(os.Stderr, "uopload: cluster stats fetch failed: %v\n", cerr)
		}
	} else if stats, serr := client.Stats(); serr == nil {
		fmt.Printf("engine %s\n", stats.Engine)
		if stats.Estimate != nil {
			fmt.Printf("server estimate requests=%d served=%d fallthrough=%d\n",
				stats.Estimate.Requests, stats.Estimate.Served, stats.Estimate.Fallthrough)
		}
	} else {
		fmt.Fprintf(os.Stderr, "uopload: stats fetch failed: %v\n", serr)
	}
	if report.Failed > 0 {
		return fmt.Errorf("%d of %d requests failed", report.Failed, report.Requests)
	}
	return nil
}

// reportCluster prints the gateway's cluster view in stable greppable
// lines: the dedupe check (summed Simulated across shards vs the mix's
// unique pool), the balance ratio and failover counters, then one line per
// shard. Dead or restarted shards make the summed counters undercount —
// the dedupe line still prints, the caller decides what to assert.
func reportCluster(client *server.Client, expectUnique int) error {
	cs, err := server.GetJSON[cluster.StatsResponse](client, "/v1/stats")
	if err != nil {
		return err
	}
	eng := cs.Cluster.Engine
	fmt.Printf("cluster nodes=%d alive=%d reporting=%d simulated=%d unique_expected=%d dedupe_ok=%v\n",
		cs.Ring.Nodes, cs.NodesAlive, cs.Cluster.ShardsReporting,
		eng.Simulated, expectUnique, eng.Simulated == uint64(expectUnique))
	fmt.Printf("balance ratio=%.2f spills=%d markdowns=%d rejoins=%d\n",
		cs.Balance, cs.Gateway.Spills, cs.Gateway.Markdowns, cs.Gateway.Rejoins)
	for _, ns := range cs.Nodes {
		var sim uint64
		if ns.Engine != nil {
			sim = ns.Engine.Simulated
		}
		fmt.Printf("shard name=%s node=%s alive=%v requests=%d errors=%d points=%d simulated=%d p50=%.1fms p95=%.1fms\n",
			ns.Name, ns.Node, ns.Alive, ns.Requests, ns.Errors, ns.Points, sim,
			ns.LatencyP50MS, ns.LatencyP95MS)
	}
	return nil
}

// runQuery streams /v1/query rows to stdout as NDJSON. Row order (ascending
// fingerprint) and encoding come from the daemon, so two queries of
// identical stores diff byte-identically.
func runQuery(client *server.Client, where, metrics string, limit int, features bool) error {
	req := server.QueryRequest{Limit: limit, IncludeFeatures: features}
	if where != "" {
		req.Where = make(map[string]string)
		for _, pred := range strings.Split(where, ",") {
			k, v, ok := strings.Cut(pred, "=")
			if !ok || k == "" {
				return fmt.Errorf("bad -where predicate %q (want key=value)", pred)
			}
			req.Where[k] = v
		}
	}
	if metrics != "" {
		req.Metrics = strings.Split(metrics, ",")
	}
	enc := json.NewEncoder(os.Stdout)
	rows := 0
	err := client.Query(req, func(row server.QueryRow) error {
		rows++
		return enc.Encode(row)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "uopload: %d rows\n", rows)
	return nil
}
