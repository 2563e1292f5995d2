// Command uopgate fronts a fleet of uopsimd shards with one address. It
// speaks the daemon's own API — POST /v1/simulate, /v1/estimate and
// /v1/sweep route each design point to the shard owning its fingerprint on
// a consistent-hash ring, so cluster-wide every unique point simulates
// exactly once; /v1/query fans out to every shard and merges the streams
// (sorted by fingerprint, spill duplicates collapsed); /v1/stats
// aggregates per-shard balance and the summed engine counters. Membership
// is the static -nodes list plus active /healthz probing: a shard that
// fails -probe-fails consecutive probes (or request-path sends) is marked
// down and its points spill to the next ring owner; when it answers again
// it rejoins. The gateway keeps no per-point state: a rejoined shard
// started with -peers pulls the results that spilled to its neighbours on
// its own, so restarting uopgate loses nothing.
//
// Usage:
//
//	uopgate -addr :8090 -nodes http://127.0.0.1:8091,http://127.0.0.1:8092,http://127.0.0.1:8093
//	curl -s localhost:8090/v1/simulate -d '{"workload":"bm_cc","scheme":"clasp"}'
//	curl -s localhost:8090/v1/stats | jq .balance
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"uopsim/internal/cluster"
	"uopsim/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uopgate:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8090", "listen address")
		nodes      = flag.String("nodes", "", "comma-separated uopsimd base URLs (required)")
		probeEvery = flag.Duration("probe-interval", 2*time.Second, "health probe cadence")
		probeFails = flag.Int("probe-fails", 2, "consecutive probe failures that mark a shard down")
		maxPoints  = flag.Int("max-points", 1024, "cap on points per /v1/sweep call")
	)
	flag.Parse()

	if *nodes == "" {
		return fmt.Errorf("-nodes is required (comma-separated uopsimd base URLs)")
	}
	gw, err := cluster.New(cluster.Config{
		Nodes:          server.ParseURLs(*nodes),
		ProbeInterval:  *probeEvery,
		ProbeFails:     *probeFails,
		MaxSweepPoints: *maxPoints,
	})
	if err != nil {
		return err
	}
	gw.Start()
	defer gw.Stop()

	// The gateway holds no state of its own: shutdown is just closing the
	// listener and stopping the prober (deferred).
	log.Printf("uopgate: listening on %s fronting %d shards (%d vnodes each)",
		*addr, gw.Ring().Len(), gw.Ring().VNodes())
	return server.ListenAndServe("uopgate", &http.Server{Addr: *addr, Handler: gw}, 10*time.Second, nil)
}
