// Package uopsim is a cycle-level simulator of an x86 processor front end
// built to reproduce "Improving the Utilization of Micro-operation Caches in
// x86 Processors" (Kotra & Kalamatianos, MICRO 2020): a decoupled branch
// prediction unit, a micro-operation cache with the paper's CLASP and
// compaction (RAC / PWAC / F-PWAC) optimizations, an I-cache + decoder path,
// a loop cache, and an out-of-order back end, driven by synthetic workloads
// calibrated to the paper's Table II.
//
// Quick start:
//
//	cfg := uopsim.DefaultConfig()          // Table I machine, baseline uop cache
//	m, err := uopsim.Run(cfg, "bm_cc", 50_000, 200_000)
//	fmt.Println(m.UPC, m.OCFetchRatio)
//
// Design points from the paper are expressed as Schemes:
//
//	for _, sc := range uopsim.Schemes(2) { // baseline, CLASP, RAC, PWAC, F-PWAC
//	    m, _ := uopsim.Run(sc.Configure(2048), "bm_cc", 50_000, 200_000)
//	    fmt.Println(sc.Name, m.UPC)
//	}
//
// Every table and figure of the paper's evaluation can be regenerated with
// RunExperiment (or the cmd/uopexp binary). See DESIGN.md and EXPERIMENTS.md.
package uopsim

import (
	"fmt"
	"io"

	"uopsim/internal/experiments"
	"uopsim/internal/pipeline"
	"uopsim/internal/runcache"
	"uopsim/internal/stats"
	"uopsim/internal/surrogate"
	"uopsim/internal/uopcache"
	"uopsim/internal/warehouse"
	"uopsim/internal/workload"
)

// Config is the whole-core configuration (Table I defaults via
// DefaultConfig).
type Config = pipeline.Config

// Metrics are the paper-facing measurements of a run.
type Metrics = pipeline.Metrics

// Simulator is a configured core bound to one workload. Release hands a
// finished simulator's core (caches, predictor tables, back end) to the
// next NewSimulator, which resets it instead of allocating about 1.6 MB;
// Run and RunSampled release theirs. A released Simulator must not be used
// again, and one that is never released is simply garbage collected.
type Simulator = pipeline.Sim

// WorkloadSpec describes one synthetic workload (see internal/workload).
type WorkloadSpec = workload.Profile

// Scheme is one uop cache design point (baseline, CLASP, RAC, PWAC, F-PWAC).
type Scheme = experiments.Scheme

// Sampling configures interval-sampled simulation: only Intervals
// warmup+measure windows of the measured region are cycle-simulated (the
// rest fast-forwards architecturally, warming predictors and caches) and
// full-run Metrics are extrapolated from the windows. Attach one to
// ExperimentParams.Sampling or pass it to RunSampled. Zero knobs resolve
// against the measured length; see EXPERIMENTS.md for the measured error
// bounds.
type Sampling = pipeline.Sampling

// Default per-run lengths, shared by the command-line flag defaults and
// the zero-value resolution in ExperimentParams.
const (
	DefaultWarmupInsts  = pipeline.DefaultWarmupInsts
	DefaultMeasureInsts = pipeline.DefaultMeasureInsts
)

// ExperimentParams scales experiment runs.
type ExperimentParams = experiments.Params

// ExperimentRun is one completed simulation inside an experiment sweep; its
// Snapshot is the run's measured window of the metrics registry (see
// StatsSnapshot and Params.SnapshotSink).
type ExperimentRun = experiments.Run

// RunEngine is the shared design-point engine: attach one to
// ExperimentParams.Engine and every design point an experiment submits is
// fingerprinted, simulated at most once per process, and — with a
// warehouse — persisted as a JSON blob keyed by that fingerprint. The
// fingerprint covers the full pipeline configuration, the workload profile
// (including its generation seed), the run lengths, and the simulator and
// workload-generator version strings; bumping a version is the cache
// invalidation rule.
type RunEngine = experiments.Engine

// RunEngineStats are the engine's resolution counters (simulated vs memo
// vs disk) plus the measured dedupe factor.
type RunEngineStats = runcache.Stats

// DesignPoint names one (workload, scheme, capacity) simulation for
// RunDesignPoints.
type DesignPoint = experiments.Point

// NewRunEngine builds an in-process design-point engine: each unique point
// simulates once per process. NewWarehouseRunEngine adds persistence.
func NewRunEngine() *RunEngine {
	e, _ := experiments.NewEngine("", 0) // no directory: cannot fail
	return e
}

// ResultsWarehouse is the indexed design-point store: an append-only
// segment file log keyed by fingerprint, carrying each point's feature
// vector so stored results can be selected by workload or config field
// (Select, Iter) as well as loaded by identity. See DESIGN.md §11.
type ResultsWarehouse = warehouse.Store

// WarehouseOptions sizes a warehouse (segment rotation, byte budget,
// compaction trigger). The zero value selects the documented defaults.
type WarehouseOptions = warehouse.Options

// WarehouseQuery selects warehouse records by feature predicates.
type WarehouseQuery = warehouse.Query

// WarehouseStats are the warehouse's gauges and activity counters.
type WarehouseStats = warehouse.Stats

// NewWarehouseRunEngine builds a design-point engine persisted in an
// indexed warehouse at dir: later invocations load completed points back
// (corrupt blobs are re-simulated, never trusted), and verifyEvery > 0
// re-simulates every n-th disk-served point and fails it unless its blob
// matches the fresh result bit-for-bit. The returned store is the caller's
// to query and Close; it is the same store the engine writes, so a query
// sees every point the engine has resolved.
func NewWarehouseRunEngine(dir string, opts WarehouseOptions, verifyEvery int) (*RunEngine, *ResultsWarehouse, error) {
	return experiments.NewWarehouseEngine(dir, opts, verifyEvery)
}

// RunDesignPoints runs one simulation per point, in parallel, deduped
// through p.Engine when one is attached. The returned slice is aligned
// with pts; failed points hold zero Runs and are summarized in the error.
func RunDesignPoints(p ExperimentParams, pts []DesignPoint) ([]ExperimentRun, error) {
	return experiments.RunPoints(p, pts)
}

// Features is the canonical feature vector the warehouse stores with each
// design point (workload identity, run lengths, every config field).
type Features = runcache.Features

// Fingerprint is a design point's content-derived identity.
type Fingerprint = runcache.Fingerprint

// Surrogate is the warehouse-trained fast tier behind uopsimd's
// /v1/estimate: a k-nearest-neighbor local-interpolation model over stored
// feature vectors that predicts derived metrics with a per-prediction
// confidence. See DESIGN.md §12.
type Surrogate = surrogate.Model

// SurrogateOptions tunes a Surrogate (zero values = documented defaults).
type SurrogateOptions = surrogate.Options

// SurrogatePoint is one training point: a fingerprint, its feature vector,
// and its derived-metric values.
type SurrogatePoint = surrogate.Point

// SurrogatePrediction is one fast-tier answer with its confidence.
type SurrogatePrediction = surrogate.Prediction

// NewSurrogate builds an empty model; Fit or Insert train it.
func NewSurrogate(opts SurrogateOptions) *Surrogate { return surrogate.New(opts) }

// TrainSurrogate trains a fresh model on every decodable record in ws,
// returning the model and how many records were skipped.
func TrainSurrogate(ws *ResultsWarehouse, opts SurrogateOptions) (*Surrogate, int, error) {
	return experiments.NewStoreSurrogate(ws, opts)
}

// DesignPointFeatures is the feature vector the engine stores for one
// design point at p's run lengths — the query shape a Surrogate accepts.
func DesignPointFeatures(pt DesignPoint, p ExperimentParams) (Features, error) {
	return experiments.FeaturesForPoint(pt, p)
}

// DefaultEstimateConfidence is uopsimd's default /v1/estimate serving gate.
const DefaultEstimateConfidence = experiments.DefaultEstimateConfidence

// EstimateValidateOptions shapes the surrogate held-out accuracy harness
// behind `uopexp -estimate-validate`.
type EstimateValidateOptions = experiments.EstimateValidateOptions

// EstimateValidationReport is the harness's machine-readable result.
type EstimateValidationReport = experiments.EstimateReport

// EstimateValidate trains a surrogate on a train split of the
// workloads × schemes × capacities grid and scores the held-out split,
// reporting per-metric relative error overall and over the confident
// subset (what uopsimd would actually have served).
func EstimateValidate(w io.Writer, p ExperimentParams, o EstimateValidateOptions) (*EstimateValidationReport, error) {
	return experiments.EstimateValidate(w, p, o)
}

// StatsSnapshot is a stable-ordered dump of registered instruments. It
// exports to JSON (WriteJSON) and Prometheus text format (WritePrometheus)
// and answers point queries by dotted path (Counter, Value, Sample). An
// answer's snapshot (ExperimentRun.Snapshot, Simulator.Window) is the
// measured window: what the registry counted over the measured
// instructions, the same ones Metrics covers. Simulator.StatsSnapshot is
// the live registry, cumulative since the simulator was built.
type StatsSnapshot = stats.Snapshot

// Observer receives per-cycle pipeline events and buffer occupancy. Attach
// one with Simulator.SetObserver; a nil observer is free.
type Observer = pipeline.Observer

// RingObserver retains the last N pipeline events for post-hoc debugging.
type RingObserver = pipeline.RingObserver

// NewRingObserver builds an Observer retaining the last n events.
func NewRingObserver(n int) *RingObserver { return pipeline.NewRingObserver(n) }

// MetricsFromSnapshots derives interval metrics from two registry snapshots
// taken before and after a measurement window: the metrics of the window
// between them. Counter samples carry exact integer counts, so this
// matches Simulator.RunMeasured bit-for-bit.
func MetricsFromSnapshots(a, b StatsSnapshot) Metrics {
	var w StatsSnapshot
	w.AddDelta(a, b)
	return pipeline.MetricsOf(w)
}

// Compaction allocation policies (§V-B of the paper).
const (
	AllocNone  = uopcache.AllocNone
	AllocRAC   = uopcache.AllocRAC
	AllocPWAC  = uopcache.AllocPWAC
	AllocFPWAC = uopcache.AllocFPWAC
)

// DefaultConfig returns the Table I machine with a baseline 2K-uop cache.
func DefaultConfig() Config { return pipeline.DefaultConfig() }

// WithCLASP enables Cache-Line-boundary-AgnoStic entry construction (§V-A):
// entries may span two sequential I-cache lines.
func WithCLASP(cfg Config) Config {
	cfg.Limits.MaxICLines = 2
	cfg.UopCache.MaxICLines = 2
	return cfg
}

// WithCompaction enables multi-entry uop cache lines with the given
// allocation policy (§V-B). The paper evaluates compaction on top of CLASP,
// which this helper also enables.
func WithCompaction(cfg Config, alloc uopcache.Alloc, maxEntriesPerLine int) Config {
	cfg = WithCLASP(cfg)
	if maxEntriesPerLine < 2 {
		maxEntriesPerLine = 2
	}
	cfg.UopCache.MaxEntriesPerLine = maxEntriesPerLine
	cfg.UopCache.Alloc = alloc
	return cfg
}

// Workloads returns the 13 Table II workload profiles.
func Workloads() []*WorkloadSpec { return workload.Profiles() }

// WorkloadNames lists the workload names in the paper's figure order.
func WorkloadNames() []string { return workload.Names() }

// Schemes returns the paper's five design points; maxEntries bounds
// compaction (2 in the main results, 3 in the §VI-B1 sensitivity study).
func Schemes(maxEntries int) []Scheme { return experiments.Schemes(maxEntries) }

// NewSimulator builds a simulator for the named Table II workload. The
// workload's immutable program is built once per process and shared across
// simulators (see workload.Shared); all mutable run state is per-simulator.
func NewSimulator(cfg Config, workloadName string) (*Simulator, error) {
	wl, err := workload.Shared(workloadName)
	if err != nil {
		return nil, err
	}
	return pipeline.New(cfg, wl)
}

// Run simulates the named workload for warmup+measure instructions and
// returns metrics over the measured interval.
func Run(cfg Config, workloadName string, warmup, measure uint64) (Metrics, error) {
	sim, err := NewSimulator(cfg, workloadName)
	if err != nil {
		return Metrics{}, err
	}
	defer sim.Release()
	return sim.RunMeasured(warmup, measure)
}

// RunSampled is Run under interval sampling: several-fold cheaper, with
// metrics extrapolated from the sampled windows (see Sampling). A disabled
// sp is exactly Run.
func RunSampled(cfg Config, workloadName string, warmup, measure uint64, sp Sampling) (Metrics, error) {
	sim, err := NewSimulator(cfg, workloadName)
	if err != nil {
		return Metrics{}, err
	}
	defer sim.Release()
	return sim.RunSampled(warmup, measure, sp)
}

// Experiments lists the available experiment IDs and titles in paper order.
func Experiments() []struct{ ID, Title string } {
	var out []struct{ ID, Title string }
	for _, e := range experiments.All() {
		out = append(out, struct{ ID, Title string }{e.ID, e.Title})
	}
	return out
}

// RunExperiment regenerates one paper table/figure, writing the rendered
// rows to w. Valid IDs come from Experiments.
func RunExperiment(id string, w io.Writer, p ExperimentParams) error {
	d, ok := experiments.ByID(id)
	if !ok {
		return fmt.Errorf("uopsim: unknown experiment %q", id)
	}
	return d(w, p)
}
