package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"uopsim/internal/cluster"
	"uopsim/internal/experiments"
	"uopsim/internal/pipeline"
	"uopsim/internal/server"
	"uopsim/internal/warehouse"
	"uopsim/internal/workload"
)

// nShards is the cluster size under test.
const nShards = 3

// shardNode is one uopsimd shard, built the way cmd/uopsimd builds it.
type shardNode struct {
	url string
	dir string
	ln  net.Listener
	ws  *warehouse.Store
	srv *server.Server
	hs  *http.Server
}

// stack is the cluster under test: three shards and a gateway, each on its
// own 127.0.0.1 listener, serving from this process.
type stack struct {
	dir    string
	shards []*shardNode
	ring   *cluster.Ring
	gw     *cluster.Gateway
	gwURL  string
	gwHS   *http.Server
	serves sync.WaitGroup

	// warm and est are the warm and estimate sets with their
	// fingerprints; prefill holds the in-process result of every warm
	// point, by fingerprint.
	warm, est []point
	prefill   map[string]experiments.PointResult
	// buildMS is the summed time of the first workload.Shared per profile.
	buildMS float64
}

// bootStack sets the cluster up: build the workload programs, pick
// listeners, prefill each shard's warehouse with the warm points it owns,
// then boot the shards on those warehouses and the gateway in front. A
// shard boots on a filled warehouse the way a restarted uopsimd does, so
// its surrogate is fitted on every stored point. rec, when set, wraps each
// layer boundary in span recording.
func bootStack(profiles []string, rec *recorder) (st *stack, err error) {
	st = &stack{prefill: map[string]experiments.PointResult{}}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	for _, name := range profiles {
		t0 := time.Now()
		if _, err := workload.Shared(name); err != nil {
			return st, err
		}
		st.buildMS += msSince(t0)
	}
	if st.dir, err = os.MkdirTemp("", "uopbench-"); err != nil {
		return st, err
	}
	if st.warm, err = withFingerprints(warmSet(profiles)); err != nil {
		return st, err
	}
	if st.est, err = withFingerprints(estimateSet(profiles)); err != nil {
		return st, err
	}
	if err := st.listen(); err != nil {
		return st, err
	}
	if err := st.fill(); err != nil {
		return st, err
	}
	for _, sh := range st.shards {
		var eng *experiments.Engine
		if eng, sh.ws, err = experiments.NewWarehouseEngine(sh.dir, warehouse.Options{}, 0); err != nil {
			return st, err
		}
		sh.srv = server.New(server.Config{Engine: eng, Warehouse: sh.ws, NodeID: sh.ln.Addr().String()})
		sh.hs = &http.Server{Handler: rec.handler("shard", sh.srv)}
		st.serve(sh.hs, sh.ln)
	}
	gwCfg := cluster.Config{Nodes: st.urls()}
	if rec != nil {
		// The gateway's default shard transport, behind a span wrapper.
		gwCfg.HTTP = &http.Client{Transport: &hopTransport{rec: rec, base: &http.Transport{
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}}}
	}
	if st.gw, err = cluster.New(gwCfg); err != nil {
		return st, err
	}
	st.gw.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.gwURL = "http://" + ln.Addr().String()
	st.gwHS = &http.Server{Handler: rec.handler("gateway", st.gw)}
	st.serve(st.gwHS, ln)
	return st, st.alive()
}

// withFingerprints pairs points with their fingerprints.
func withFingerprints(reqs []experiments.PointRequest) ([]point, error) {
	pts := make([]point, len(reqs))
	for i, r := range reqs {
		fp, err := r.Fingerprint()
		if err != nil {
			return nil, fmt.Errorf("fingerprint %s: %w", pointKey(r), err)
		}
		pts[i] = point{req: r, key: pointKey(r), fp: string(fp)}
	}
	return pts, nil
}

// maxListenTries bounds the search for a listener set whose ring covers the
// estimate set (see covers); a draw fails about one time in ten.
const maxListenTries = 50

// listen opens the shard listeners. The ring hashes the shard URLs, so
// which shard owns which point depends on the ports; listeners are drawn
// again until every estimate point's owner stores at least one warm point
// of the same profile. The surrogate never interpolates across profiles,
// so without that neighbour an estimate would fall through to simulation.
func (st *stack) listen() error {
	for try := 0; try < maxListenTries; try++ {
		st.closeListeners()
		st.shards = nil
		for i := 0; i < nShards; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			st.shards = append(st.shards, &shardNode{
				url: "http://" + ln.Addr().String(),
				dir: filepath.Join(st.dir, fmt.Sprintf("shard%d", i)),
				ln:  ln,
			})
		}
		st.ring = cluster.NewRing(st.urls(), cluster.DefaultVNodes)
		if st.covers() {
			return nil
		}
	}
	return fmt.Errorf("no listener set in %d tries gives every estimate point a stored neighbour on its shard", maxListenTries)
}

func (st *stack) covers() bool {
	held := map[string]bool{}
	for _, p := range st.warm {
		held[st.ring.Owner(p.fp)+" "+p.req.Workload] = true
	}
	for _, p := range st.est {
		if !held[st.ring.Owner(p.fp)+" "+p.req.Workload] {
			return false
		}
	}
	return true
}

func (st *stack) urls() []string {
	out := make([]string, len(st.shards))
	for i, sh := range st.shards {
		out[i] = sh.url
	}
	return out
}

// fill simulates every warm point into its owner's warehouse through an
// engine built like the shard's own, two points at a time, and keeps the
// results as the reference the warm answers are checked against.
func (st *stack) fill() error {
	warm := st.warm
	engines := map[string]*experiments.Engine{}
	var stores []*warehouse.Store
	defer func() {
		for _, ws := range stores {
			ws.Close()
		}
	}()
	for _, sh := range st.shards {
		eng, ws, err := experiments.NewWarehouseEngine(sh.dir, warehouse.Options{}, 0)
		if err != nil {
			return err
		}
		engines[sh.url] = eng
		stores = append(stores, ws)
	}
	results := make([]experiments.PointResult, len(warm))
	errs := make([]error, len(warm))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(warm); i += clients {
				results[i], _, errs[i] = warm[i].req.Resolve(engines[st.ring.Owner(warm[i].fp)])
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("prefill: %w", err)
	}
	for i, p := range warm {
		st.prefill[p.fp] = results[i]
	}
	var closeErr error
	for _, ws := range stores {
		closeErr = errors.Join(closeErr, ws.Close())
	}
	stores = nil
	return closeErr
}

func (st *stack) serve(hs *http.Server, ln net.Listener) {
	st.serves.Add(1)
	go func() {
		defer st.serves.Done()
		hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
}

// alive confirms through the gateway's /healthz that every shard is up.
func (st *stack) alive() error {
	var h cluster.GatewayHealthz
	if err := getJSON(st.gwURL+"/healthz", &h); err != nil {
		return fmt.Errorf("gateway health: %w", err)
	}
	if h.NodesAlive != nShards {
		return fmt.Errorf("gateway sees %d of %d shards alive", h.NodesAlive, nShards)
	}
	return nil
}

// close shuts the cluster down in dependency order and removes its files.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.gwHS != nil {
		st.gwHS.Shutdown(ctx)
	}
	if st.gw != nil {
		st.gw.Stop()
	}
	for _, sh := range st.shards {
		if sh.hs != nil {
			sh.hs.Shutdown(ctx)
		}
		if sh.srv != nil {
			sh.srv.Drain()
		}
		if sh.ws != nil {
			sh.ws.Close()
		}
	}
	st.closeListeners()
	st.serves.Wait()
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// closeListeners closes the listeners no server took over.
func (st *stack) closeListeners() {
	for _, sh := range st.shards {
		if sh.hs == nil {
			sh.ln.Close()
		}
	}
}

// checkGolden checks the capacity-2048 prefill results against the
// committed golden metrics, bit for bit.
func (st *stack) checkGolden(root string) error {
	raw, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return err
	}
	var gf struct {
		Warmup  uint64 `json:"warmup_insts"`
		Measure uint64 `json:"measure_insts"`
		Points  []struct {
			Workload string           `json:"workload"`
			Scheme   string           `json:"scheme"`
			Capacity int              `json:"capacity"`
			Metrics  pipeline.Metrics `json:"metrics"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &gf); err != nil {
		return fmt.Errorf("%s: %w", goldenPath, err)
	}
	if gf.Warmup != goldenWarmup || gf.Measure != goldenMeasure {
		return fmt.Errorf("%s is at %d+%d instructions, the warm set at %d+%d", goldenPath, gf.Warmup, gf.Measure, goldenWarmup, goldenMeasure)
	}
	checked := 0
	for _, g := range gf.Points {
		fp, err := golden(g.Workload, g.Scheme, g.Capacity, 2).Fingerprint()
		if err != nil {
			return err
		}
		res, ok := st.prefill[string(fp)]
		if !ok {
			continue // a profile outside this run
		}
		if res.Metrics != g.Metrics {
			return fmt.Errorf("warm point %s/%s/%d differs from %s", g.Workload, g.Scheme, g.Capacity, goldenPath)
		}
		checked++
	}
	if want := len(st.prefill) / len(warmCapacities); checked != want {
		return fmt.Errorf("checked %d warm points against %s, want %d", checked, goldenPath, want)
	}
	return nil
}

// getJSON fetches url and decodes its 200 body into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
