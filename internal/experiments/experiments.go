// Package experiments contains one driver per table and figure of the
// paper's evaluation (see DESIGN.md §4). Each driver runs the simulator
// across the Table II workloads under the relevant configurations and
// renders the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"uopsim/internal/pipeline"
	"uopsim/internal/stats"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// Params controls experiment scale; zero values select defaults.
type Params struct {
	// WarmupInsts and MeasureInsts size each simulation run.
	WarmupInsts, MeasureInsts uint64
	// Sampling, when Enabled, runs every design point interval-sampled
	// (pipeline.RunSampled): only a few warmup+measure windows per run are
	// cycle-simulated and full-run metrics are extrapolated, trading a
	// documented metric error bound (see EXPERIMENTS.md) for a several-fold
	// wall-clock reduction. Zero-valued knobs resolve per run against the
	// actual measured length (per-thread for SMT points), and sampled
	// points are fingerprinted disjointly from full ones, so the two modes
	// never share a cache blob.
	Sampling pipeline.Sampling
	// Workloads restricts the workload set (nil = all 13).
	Workloads []string
	// Parallel runs up to this many simulations concurrently (0 = all CPUs).
	Parallel int
	// SnapshotSink, when set, receives every completed Run of the
	// sweep-based drivers (the tables and figures, through RunPoints): once
	// per successful run, in point order, from the goroutine that called the
	// driver after its batch is done, so implementations need no locking.
	// The Ablations and SMT drivers and EstimateValidate do not feed it.
	SnapshotSink func(Run)
	// Engine, when set, routes every design point — the sweep-based tables
	// and figures, the ablation variants, and the SMT pairs — through the
	// shared design-point engine: duplicate submissions are fingerprinted,
	// simulated once, and fanned out to every asking driver, and with a
	// warehouse attached results persist across invocations. Nil simulates
	// every point directly, the reference the engine is tested against.
	// Rendered output is bit-identical either way.
	Engine *Engine
}

func (p Params) withDefaults() Params {
	if p.WarmupInsts == 0 {
		p.WarmupInsts = pipeline.DefaultWarmupInsts
	}
	if p.MeasureInsts == 0 {
		p.MeasureInsts = pipeline.DefaultMeasureInsts
	}
	if len(p.Workloads) == 0 {
		p.Workloads = workload.Names()
	}
	return p
}

// Scheme identifies one uop cache design point from §V.
type Scheme struct {
	// Name is the label used in figures.
	Name string
	// CLASP enables cache-line-boundary-agnostic entries (§V-A).
	CLASP bool
	// MaxEntriesPerLine enables compaction when > 1 (§V-B).
	MaxEntriesPerLine int
	// Alloc selects the compaction allocation policy.
	Alloc uopcache.Alloc
}

// Schemes returns the paper's five design points in evaluation order. Per
// §VI-A, all compaction results have CLASP enabled.
func Schemes(maxEntries int) []Scheme {
	if maxEntries < 2 {
		maxEntries = 2
	}
	return []Scheme{
		{Name: "baseline"},
		{Name: "CLASP", CLASP: true},
		{Name: "RAC", CLASP: true, MaxEntriesPerLine: maxEntries, Alloc: uopcache.AllocRAC},
		{Name: "PWAC", CLASP: true, MaxEntriesPerLine: maxEntries, Alloc: uopcache.AllocPWAC},
		{Name: "F-PWAC", CLASP: true, MaxEntriesPerLine: maxEntries, Alloc: uopcache.AllocFPWAC},
	}
}

// Configure returns the pipeline configuration for a scheme at the given uop
// cache capacity.
func (s Scheme) Configure(capacityUops int) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.UopCache.CapacityUops = capacityUops
	if s.CLASP {
		cfg.Limits.MaxICLines = 2
		cfg.UopCache.MaxICLines = 2
	}
	if s.MaxEntriesPerLine > 1 {
		cfg.UopCache.MaxEntriesPerLine = s.MaxEntriesPerLine
		cfg.UopCache.Alloc = s.Alloc
	}
	return cfg
}

// Run is one completed simulation. Snapshot is its measured window of the
// metrics registry (pipeline.Sim.Window), covering what Metrics does;
// figure drivers query it by path instead of reaching into component
// stats structs.
type Run struct {
	Workload string
	Suite    string
	Scheme   string
	Capacity int
	// MaxEntries is the uop cache's entries-per-line bound (1 without
	// compaction): figures run one scheme and capacity under 2 and 3.
	MaxEntries int
	Metrics    pipeline.Metrics
	Snapshot   stats.Snapshot
}

// runOne resolves one scheme x capacity point (through the shared engine
// when Params carries one) and labels it for the submitting driver. Every
// failure names the design point, so a partial sweep's aggregated error
// pinpoints what broke.
func runOne(p Params, name string, sc Scheme, capacity int) (Run, error) {
	cfg := sc.Configure(capacity)
	pr, err := point(p, name, cfg)
	if err != nil {
		return Run{}, fmt.Errorf("%s/%s/%d: %w", name, sc.Name, capacity, err)
	}
	return Run{
		Workload:   name,
		Suite:      pr.Suite,
		Scheme:     sc.Name,
		Capacity:   capacity,
		MaxEntries: cfg.UopCache.MaxEntriesPerLine,
		Metrics:    pr.Metrics,
		Snapshot:   pr.Snapshot,
	}, nil
}

// parallelism resolves Params.Parallel: 0 (or negative) means all CPUs,
// clamped to the job count so the sweep never spins up idle workers.
func parallelism(p Params, jobs int) int {
	par := p.Parallel
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par > jobs {
		par = jobs
	}
	return par
}

// parallelMap is the one executor behind every driver: it applies fn to
// every item, at most parallelism(p, len(items)) at a time, and returns the
// results aligned index for index with items. A failed item leaves R's zero
// value at its index while the others are kept, so callers can salvage
// partial batches. The error counts the failures and wraps the first one in
// item order, so its text does not depend on scheduling.
func parallelMap[T, R any](p Params, what string, items []T, fn func(T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))
	next := make(chan int)
	var wg sync.WaitGroup
	for range parallelism(p, len(items)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if r, err := fn(items[i]); err != nil {
					errs[i] = err
				} else {
					out[i] = r
				}
			}
		}()
	}
	for i := range items {
		next <- i
	}
	close(next)
	wg.Wait()
	failed, first := 0, error(nil)
	for _, err := range errs {
		if err != nil {
			if failed == 0 {
				first = err
			}
			failed++
		}
	}
	if failed == 0 {
		return out, nil
	}
	return out, fmt.Errorf("%s: %d of %d jobs failed (first: %w)", what, failed, len(items), first)
}

// sweep runs pts through RunPoints and keys the completed runs by
// workload/scheme/capacity for the figure drivers; failed points are
// absent from the map and reported through the error.
func sweep(p Params, pts []Point) (map[string]Run, error) {
	runs, err := RunPoints(p, pts)
	byKey := make(map[string]Run, len(runs))
	for _, r := range runs {
		if r.Workload != "" { // a failed point's zero Run
			byKey[key(r.Workload, r.Scheme, r.Capacity)] = r
		}
	}
	return byKey, err
}

// Point names one (workload, scheme, capacity) design point for RunPoints.
type Point struct {
	Workload string
	Scheme   Scheme
	Capacity int
}

// RunPoints runs one simulation per design point — deduped through
// p.Engine when one is attached — and returns the completed runs aligned
// index-for-index with pts. A failed point leaves a zero Run at its index
// and is reported through the aggregated error, so callers can salvage
// partial batches. Every completed run then goes to p.SnapshotSink, in
// point order. This is the sweep executor the tables and figures share,
// and its external face (the golden-file regeneration and
// BenchmarkSurrogate's corpus go through it).
func RunPoints(p Params, pts []Point) ([]Run, error) {
	p = p.withDefaults()
	runs, err := parallelMap(p, "sweep", pts, func(pt Point) (Run, error) {
		return runOne(p, pt.Workload, pt.Scheme, pt.Capacity)
	})
	if p.SnapshotSink != nil {
		for _, r := range runs {
			if r.Workload != "" { // a failed point's zero Run
				p.SnapshotSink(r)
			}
		}
	}
	return runs, err
}

func key(wl, scheme string, capacity int) string {
	return fmt.Sprintf("%s|%s|%d", wl, scheme, capacity)
}

// Registry maps experiment IDs to their drivers.
type Driver func(w io.Writer, p Params) error

// All returns the experiment registry in paper order.
func All() []struct {
	ID     string
	Title  string
	Driver Driver
} {
	return []struct {
		ID     string
		Title  string
		Driver Driver
	}{
		{"tableII", "Table II: workloads and branch MPKI", TableII},
		{"fig3", "Fig 3: normalized UPC and decoder power vs uop cache capacity", Fig3},
		{"fig4", "Fig 4: normalized OC fetch ratio, dispatch bandwidth, mispredict latency vs capacity", Fig4},
		{"fig5", "Fig 5: uop cache entry size distribution", Fig5},
		{"fig6", "Fig 6: entries terminated by a predicted taken branch", Fig6},
		{"fig9", "Fig 9: entries spanning I-cache line boundaries (CLASP)", Fig9},
		{"fig12", "Fig 12: uop cache entries per PW distribution", Fig12},
		{"fig15", "Fig 15: normalized decoder power per scheme", Fig15},
		{"fig16", "Fig 16: UPC improvement per scheme (2 entries/line)", Fig16},
		{"fig17", "Fig 17: fetch ratio, dispatch bandwidth, mispredict latency per scheme", Fig17},
		{"fig18", "Fig 18: compacted uop cache lines ratio", Fig18},
		{"fig19", "Fig 19: compaction allocation distribution", Fig19},
		{"fig20", "Fig 20: UPC improvement per scheme (3 entries/line)", Fig20},
		{"fig21", "Fig 21: OC fetch ratio (3 entries/line)", Fig21},
		{"fig22", "Fig 22: UPC improvement over a 4K-uop baseline", Fig22},
		{"ablations", "Ablations: design-choice sensitivity (loop cache, switch penalty, NT budget, OC latency, CLASP span, widths)", Ablations},
		{"smt", "SMT: shared uop cache, per-thread compaction policies (the paper's §V-B1 motivation for PWAC)", SMT},
	}
}

// ByID returns the driver for an experiment ID.
func ByID(id string) (Driver, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e.Driver, true
		}
	}
	return nil, false
}

// geoMeanImprovement computes the geometric-mean percentage improvement of
// xs over baselines.
func geoMeanImprovement(xs, baselines []float64) float64 {
	ratios := make([]float64, 0, len(xs))
	for i := range xs {
		if baselines[i] > 0 {
			ratios = append(ratios, xs[i]/baselines[i])
		}
	}
	return (stats.GeoMean(ratios) - 1) * 100
}

// sortedWorkloads returns the workload list in the paper's figure order.
func sortedWorkloads(p Params) []string {
	order := map[string]int{}
	for i, n := range workload.Names() {
		order[n] = i
	}
	ws := append([]string(nil), p.Workloads...)
	sort.Slice(ws, func(i, j int) bool { return order[ws[i]] < order[ws[j]] })
	return ws
}
