package experiments

import (
	"fmt"
	"strconv"

	"uopsim/internal/pipeline"
	"uopsim/internal/runcache"
	"uopsim/internal/stats"
	"uopsim/internal/warehouse"
	"uopsim/internal/workload"
)

// PointResult is the shareable payload of one design point: everything a
// simulation produces that does not depend on which driver asked for it.
// The scheme *label* is deliberately absent — two schemes that configure
// the same machine (e.g. "baseline" from Schemes(2) and Schemes(3)) share
// one payload, and the sweep re-attaches each driver's label when it
// builds the Run. This struct is also the on-disk cache blob format.
type PointResult struct {
	Suite    string           `json:"suite"`
	Metrics  pipeline.Metrics `json:"metrics"`
	Snapshot stats.Snapshot   `json:"snapshot"`
}

// Engine is the shared design-point engine: it dedupes submissions by
// fingerprint, simulates each unique point exactly once per process, and
// optionally persists results in a warehouse.
type Engine = runcache.Engine[PointResult]

// NewEngine builds an in-process design-point engine. Persistence goes
// through NewWarehouseEngine: dir must be empty, and verifyEvery is
// ignored because there is no store to verify against.
func NewEngine(dir string, verifyEvery int) (*Engine, error) {
	if dir != "" {
		return nil, fmt.Errorf("experiments: NewEngine is in-process only; persist %q with NewWarehouseEngine", dir)
	}
	e := runcache.New[PointResult]()
	e.SetValidate(validatePoint)
	return e, nil
}

// NewWarehouseEngine builds a design-point engine backed by an indexed
// warehouse: results land in append-only segment
// files keyed by fingerprint and carrying each point's feature vector, so
// the same store that dedupes re-runs also answers feature queries
// (/v1/query, figure rendering). The returned store is the caller's to
// query, register for stats, and Close.
func NewWarehouseEngine(dir string, opts warehouse.Options, verifyEvery int) (*Engine, *warehouse.Store, error) {
	ws, err := warehouse.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	e := runcache.New[PointResult]()
	e.SetValidate(validatePoint)
	e.SetStore(ws)
	e.SetVerifyEvery(verifyEvery)
	return e, ws, nil
}

// validatePoint is the semantic half of corruption tolerance: a blob that
// parses as JSON but does not look like a completed run (no cycles, or a
// snapshot whose sample order would break path lookups) is rejected and
// the point re-simulated.
func validatePoint(r PointResult) error {
	if r.Metrics.Cycles <= 0 {
		return fmt.Errorf("experiments: cached point has no measured cycles")
	}
	if len(r.Snapshot.Samples) == 0 {
		return fmt.Errorf("experiments: cached point has an empty snapshot")
	}
	return r.Snapshot.Validate()
}

// pointFingerprint addresses one single-thread design point. The key
// covers everything that determines the result: simulator and
// workload-generator versions (the invalidation rule — see
// pipeline.SimVersion), the full workload profile value (name, seed and
// every synthesis knob), the complete pipeline configuration, and the run
// lengths. Canonical encoding is reflection-based and exhaustive, so a
// Config field added without fingerprint coverage fails Key loudly. Key
// encodes a pointer as the value it points at, so prof goes in as a
// pointer: the key is the profile value's, without boxing a copy of it.
func pointFingerprint(p Params, prof *workload.Profile, cfg pipeline.Config) (runcache.Fingerprint, error) {
	if sp := p.Sampling.WithDefaults(p.MeasureInsts); sp.Enabled {
		// Sampled points key on the resolved sampling shape under an
		// explicit tag, so a sampled run can never alias the full
		// simulation of the same point — and a request that spells out
		// the default knobs shares a blob with one that elides them.
		// Disabled sampling keeps the original part list: every blob
		// cached before sampling existed stays addressable.
		return runcache.Key(pipeline.SimVersion, workload.GenVersion,
			prof, cfg, p.WarmupInsts, p.MeasureInsts, "sampled", sp)
	}
	return runcache.Key(pipeline.SimVersion, workload.GenVersion,
		prof, cfg, p.WarmupInsts, p.MeasureInsts)
}

// smtFingerprint addresses one two-thread SMT design point (distinct part
// structure plus an explicit tag keep the single- and dual-thread key
// spaces disjoint). Per-thread run lengths are halved exactly as the SMT
// driver halves them.
func smtFingerprint(p Params, profA, profB *workload.Profile, cfg pipeline.Config) (runcache.Fingerprint, error) {
	// Sampling resolves against the per-thread measure, matching what
	// Pair.RunSampled will actually execute.
	if sp := p.Sampling.WithDefaults(p.MeasureInsts / 2); sp.Enabled {
		return runcache.Key(pipeline.SimVersion, workload.GenVersion, "smt-pair",
			*profA, *profB, cfg, p.WarmupInsts/2, p.MeasureInsts/2, "sampled", sp)
	}
	return runcache.Key(pipeline.SimVersion, workload.GenVersion, "smt-pair",
		*profA, *profB, cfg, p.WarmupInsts/2, p.MeasureInsts/2)
}

// pointFeatures builds the feature vector stored alongside a design
// point's blob: the workload identity, the run lengths, and the flattened
// pipeline configuration under the "config." prefix. Features select SETS
// of points (a query predicate surface); the fingerprint identifies a
// SINGLE point — features never feed the fingerprint, so adding one can
// never invalidate a cache. The flattening shares the fingerprint
// canonicalizer's kind restrictions, so any Config field the fingerprint
// can cover, a predicate can filter on.
func pointFeatures(p Params, prof *workload.Profile, cfg pipeline.Config) (runcache.Features, error) {
	f := runcache.Features{
		{Key: "workload", Value: prof.Name},
		{Key: "suite", Value: prof.Suite},
		{Key: "warmupinsts", Value: strconv.FormatUint(p.WarmupInsts, 10)},
		{Key: "measureinsts", Value: strconv.FormatUint(p.MeasureInsts, 10)},
		{Key: "sampled", Value: strconv.FormatBool(p.Sampling.WithDefaults(p.MeasureInsts).Enabled)},
	}
	return runcache.AppendFeatures(f, "config", cfg)
}

// smtFeatures is the two-thread analogue: both workload names, the smt tag,
// and the same flattened configuration.
func smtFeatures(p Params, profA, profB *workload.Profile, cfg pipeline.Config) (runcache.Features, error) {
	f := runcache.Features{
		{Key: "smt", Value: "true"},
		{Key: "workload", Value: profA.Name},
		{Key: "workload.b", Value: profB.Name},
		{Key: "suite", Value: profA.Suite},
		{Key: "warmupinsts", Value: strconv.FormatUint(p.WarmupInsts/2, 10)},
		{Key: "measureinsts", Value: strconv.FormatUint(p.MeasureInsts/2, 10)},
		{Key: "sampled", Value: strconv.FormatBool(p.Sampling.WithDefaults(p.MeasureInsts / 2).Enabled)},
	}
	return runcache.AppendFeatures(f, "config", cfg)
}

// point resolves one single-thread design point of a driver at p's run
// lengths. It prepares the point exactly as PointRequest.Prepare prepares a
// wire request, so a sweep point and the same point asked of the daemon
// share one fingerprint and one resolve step.
func point(p Params, name string, cfg pipeline.Config) (PointResult, error) {
	prof, err := workload.Lookup(name)
	if err != nil {
		return PointResult{}, err
	}
	req := p.request(name)
	req.Config = &cfg
	pp, err := prepare(req, prof, cfg)
	if err != nil {
		return PointResult{}, err
	}
	res, _, err := pp.Resolve(p.Engine)
	return res, err
}

// simulatePoint runs one configuration against the shared immutable
// workload build (per-run state lives in the simulator's walker, so
// concurrent points stay independent). The simulator's core goes back to
// the pool once its snapshot is taken, for the next point to reuse.
func simulatePoint(p Params, name string, cfg pipeline.Config) (PointResult, error) {
	wl, err := workload.Shared(name)
	if err != nil {
		return PointResult{}, err
	}
	sim, err := pipeline.New(cfg, wl)
	if err != nil {
		return PointResult{}, err
	}
	defer sim.Release()
	m, err := sim.RunSampled(p.WarmupInsts, p.MeasureInsts, p.Sampling)
	if err != nil {
		return PointResult{}, err
	}
	return PointResult{Suite: wl.Profile.Suite, Metrics: m, Snapshot: sim.StatsSnapshot()}, nil
}
