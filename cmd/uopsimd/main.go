// Command uopsimd serves the uop-cache simulator over HTTP: POST design
// points to /v1/simulate (one JSON result) or /v1/sweep (NDJSON stream in
// completion order), scrape /metrics, and watch /healthz. Every request is
// fingerprinted and resolved through one process-wide engine, so
// concurrent identical requests collapse to a single simulation.
//
// With -warehouse the daemon persists results in an indexed segment store,
// so they survive restarts and are shared with uopexp sweeps pointed at the
// same directory, and additionally serves /v1/query: NDJSON rows
// of stored results filtered by feature predicates (workload, suite,
// config.* fields) with selectable metrics — figures can be rendered from
// data the daemon already holds, without simulating anything. A
// warehouse-backed daemon also trains a surrogate model on its stored
// points and serves /v1/estimate: confident predictions answer in
// microseconds, low-confidence ones fall through to a real simulation
// (tune the gate with -estimate-confidence).
//
// In a uopgate cluster, -peers lists the other shards: a warehouse miss
// asks each peer's GET /v1/blob before simulating, and a good blob is
// validated, stored locally and answered as a disk hit. A shard that
// rejoins after its points spilled to its neighbours — across its own
// restart, a partition, or a gateway restart — thereby re-simulates only
// points no live shard holds.
//
// Usage:
//
//	uopsimd -addr :8077 -workers 4 -warehouse /var/tmp/uopsim-wh
//	curl -s localhost:8077/v1/simulate -d '{"workload":"bm_cc","scheme":"clasp"}'
//	curl -s localhost:8077/v1/estimate -d '{"workload":"bm_cc","scheme":"clasp","capacity":2048}'
//	curl -s localhost:8077/v1/query -d '{"where":{"workload":"bm_cc"},"metrics":["upc","oc_fetch_ratio"]}'
//	uopsimd -addr :8091 -warehouse .wh1 -node shard-1 -peers 127.0.0.1:8092,127.0.0.1:8093
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on the -pprof side listener only
	"os"
	"time"

	"uopsim/internal/experiments"
	"uopsim/internal/server"
	"uopsim/internal/warehouse"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uopsimd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8077", "listen address")
		workers      = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "admission queue depth (0 = 4×workers); a full queue answers 429")
		cacheVerify  = flag.Int("cache-verify", 0, "re-simulate every Nth disk hit and compare (0 = trust blobs; requires -warehouse)")
		whDir        = flag.String("warehouse", "", "persist results in an indexed warehouse at this directory, shared with uopexp (empty = in-memory only; enables /v1/query)")
		whMaxBytes   = flag.Int64("warehouse-max-bytes", 0, "evict least-recently-used warehouse records past this byte budget (0 = unbounded)")
		deadline     = flag.Duration("deadline", 2*time.Minute, "cap on any request's deadline")
		maxInsts     = flag.Uint64("max-insts", 2_000_000, "cap on warmup+measure per point")
		maxPoints    = flag.Int("max-points", 1024, "cap on points per /v1/sweep call")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "shutdown budget for in-flight simulations")
		estConf      = flag.Float64("estimate-confidence", 0, "confidence gate for serving /v1/estimate from the surrogate fast tier (0 = default 0.7)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this side address, e.g. localhost:6060 (empty = off)")
		nodeID       = flag.String("node", "", "node identity reported in /healthz for cluster membership (empty = listen address)")
		peers        = flag.String("peers", "", "comma-separated peer uopsimd addresses asked for a stored result before simulating a warehouse miss (requires -warehouse)")
	)
	flag.Parse()

	if (*cacheVerify > 0 || *whMaxBytes != 0 || *peers != "") && *whDir == "" {
		return fmt.Errorf("-cache-verify, -warehouse-max-bytes and -peers require -warehouse")
	}
	var (
		eng *experiments.Engine
		ws  *warehouse.Store
	)
	if *whDir != "" {
		var err error
		eng, ws, err = experiments.NewWarehouseEngine(*whDir, warehouse.Options{MaxBytes: *whMaxBytes}, *cacheVerify)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := ws.Close(); cerr != nil {
				log.Printf("uopsimd: warehouse close: %v", cerr)
			}
		}()
	}
	if *nodeID == "" {
		*nodeID = *addr
	}
	srv := server.New(server.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		MaxDeadline:        *deadline,
		MaxInsts:           *maxInsts,
		MaxSweepPoints:     *maxPoints,
		Engine:             eng,
		Warehouse:          ws,
		EstimateConfidence: *estConf,
		NodeID:             *nodeID,
		Peers:              server.ParseURLs(*peers),
	})
	if sur := srv.Surrogate(); sur != nil {
		log.Printf("uopsimd: surrogate fast tier trained on %d stored points", sur.Len())
	}

	if *pprofAddr != "" {
		// The pprof handlers live on the default mux, which the API
		// listener never serves — profiling stays off the public port.
		go func() {
			log.Printf("uopsimd: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("uopsimd: pprof listener: %v", err)
			}
		}()
	}

	// On SIGTERM: stop accepting connections, then drain the pool so
	// admitted simulations finish and land in the cache.
	log.Printf("uopsimd: listening on %s (warehouse=%q)", *addr, *whDir)
	if err := server.ListenAndServe("uopsimd", &http.Server{Addr: *addr, Handler: srv}, *drainTimeout, srv.Drain); err != nil {
		return err
	}
	log.Printf("uopsimd: engine %s", srv.Engine().Stats())
	if ws != nil {
		log.Printf("uopsimd: warehouse %s", ws)
	}
	return nil
}
