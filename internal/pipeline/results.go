package pipeline

import (
	"fmt"

	"uopsim/internal/stats"
)

// Metrics are the derived, paper-facing measurements over an interval.
type Metrics struct {
	// Cycles is the interval length.
	Cycles int64
	// Insts is correct-path instructions dispatched.
	Insts uint64
	// UPC is committed uops per cycle (the paper's performance metric).
	UPC float64
	// IPC is committed instructions per cycle.
	IPC float64
	// DispatchBW is average uops dispatched to the back end per cycle
	// (§III-B).
	DispatchBW float64
	// OCFetchRatio is uops from the uop cache over uops from uop cache +
	// I-cache (§III-A definition).
	OCFetchRatio float64
	// UopsOC/UopsIC/UopsLC split dispatched uops by supply path.
	UopsOC, UopsIC, UopsLC uint64
	// BranchMPKI is mispredicted branches per kilo-instruction (Table II).
	BranchMPKI float64
	// AvgMispLatency is the mean fetch-to-redirect latency of mispredicted
	// branches in cycles (§III-C).
	AvgMispLatency float64
	// Mispredicts is the misprediction count.
	Mispredicts uint64
	// DecoderPower is average decoder power in model units (normalize
	// against a baseline run for the paper's figures).
	DecoderPower float64
	// DecodedInsts is decoder activity (includes wrong path).
	DecodedInsts uint64
	// DecRedirects counts decode-time redirects (BTB-unknown direct jumps).
	DecRedirects uint64
	// Resyncs counts BPU re-steers caused by uop cache entry overshoot.
	Resyncs uint64
	// OCHitRate is uop cache lookup hit rate over the interval.
	OCHitRate float64
	// OCFills is entries written over the interval.
	OCFills uint64
}

// MetricsOf derives Metrics from a measured window (Window), or from any
// snapshot holding the counts of one interval.
func MetricsOf(w stats.Snapshot) Metrics {
	cycles := int64(w.Counter("pipeline.cycle"))
	m := Metrics{
		Cycles:       cycles,
		Insts:        w.Counter("dispatch.insts"),
		UopsOC:       w.Counter("dispatch.uops.oc"),
		UopsIC:       w.Counter("dispatch.uops.ic"),
		UopsLC:       w.Counter("dispatch.uops.lc"),
		Mispredicts:  w.Counter("bpu.mispredicts"),
		DecRedirects: w.Counter("fetch.redirects.decode"),
		Resyncs:      w.Counter("fetch.resyncs"),
		DecodedInsts: w.Counter("decode.insts"),
		OCFills:      w.Counter("oc.fills"),
	}
	if cycles > 0 {
		m.UPC = float64(w.Counter("backend.uops.retired")) / float64(cycles)
		m.IPC = float64(m.Insts) / float64(cycles)
		m.DispatchBW = float64(m.UopsOC+m.UopsIC+m.UopsLC) / float64(cycles)
		m.DecoderPower = w.Value("power.decoder.energy") / float64(cycles)
	}
	m.OCFetchRatio = stats.Ratio(m.UopsOC, m.UopsOC+m.UopsIC)
	if m.Insts > 0 {
		m.BranchMPKI = float64(m.Mispredicts) / (float64(m.Insts) / 1000)
	}
	if m.Mispredicts > 0 {
		m.AvgMispLatency = float64(w.Counter("bpu.misp.latsum")) / float64(m.Mispredicts)
	}
	m.OCHitRate = stats.Ratio(w.Counter("oc.hits"), w.Counter("oc.lookups"))
	return m
}

// Default run lengths in instructions. These are the single source of the
// 100k/300k defaults every consumer applies: experiments.Params, the
// daemon's PointRequest, and the command-line flag defaults all resolve
// zero lengths through these constants.
const (
	DefaultWarmupInsts  uint64 = 100_000
	DefaultMeasureInsts uint64 = 300_000
)

// errZeroMeasure rejects a zero-length measurement interval: metrics over
// an empty interval are all zero and silently poison downstream
// aggregation, so asking for one is always a caller bug.
var errZeroMeasure = fmt.Errorf("pipeline: measurement interval must be positive (zero lengths are resolved by the caller's defaults, not here)")

// String renders a human-readable metrics summary.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"cycles=%d insts=%d UPC=%.3f IPC=%.3f dispatchBW=%.3f ocRatio=%.3f (oc=%d ic=%d lc=%d) "+
			"MPKI=%.2f mispLat=%.1f decPower=%.3f ocHit=%.3f fills=%d decRedir=%d resync=%d",
		m.Cycles, m.Insts, m.UPC, m.IPC, m.DispatchBW, m.OCFetchRatio, m.UopsOC, m.UopsIC, m.UopsLC,
		m.BranchMPKI, m.AvgMispLatency, m.DecoderPower, m.OCHitRate, m.OCFills, m.DecRedirects, m.Resyncs)
}
