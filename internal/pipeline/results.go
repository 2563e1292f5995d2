package pipeline

import (
	"fmt"

	"uopsim/internal/stats"
)

// Snapshot captures the raw observables at a point in time so metrics can be
// computed over a measurement interval that excludes warmup.
type Snapshot struct {
	Cycle         int64
	RetiredUops   uint64
	UopsOC        uint64
	UopsIC        uint64
	UopsLC        uint64
	Insts         uint64
	Branches      uint64
	Mispredicts   uint64
	MispLatSum    uint64
	DecRedirects  uint64
	Resyncs       uint64
	DecodedInsts  uint64
	DecoderEnergy float64
	OCLookups     uint64
	OCHits        uint64
	OCFills       uint64
}

// Snapshot reads the current observables straight from the live
// instruments. It builds no registry snapshot and allocates nothing, so
// interval reads (RunMeasured, RunSampled, the SMT pair's loops) are free.
func (s *Sim) Snapshot() Snapshot {
	s.live()
	return snapshotFrom(s.reg.CounterValue, s.reg.GaugeValue)
}

// SnapshotFromStats rebuilds the metrics-facing observable set from a
// registry snapshot. Counter samples carry their exact uint64 counts and the
// gauge floats are the same float64 values the components compute, so
// metrics derived through here are bit-identical to reading the instruments
// directly (Sim.Snapshot).
func SnapshotFromStats(st stats.Snapshot) Snapshot {
	return snapshotFrom(st.Counter, st.Value)
}

// snapshotFrom is the one table of Snapshot fields and the registry paths
// they read, shared by Sim.Snapshot (the live instruments) and
// SnapshotFromStats (a registry snapshot), so the two readers cannot
// drift apart. counter reads a counter's exact count, gauge a gauge's value.
func snapshotFrom(counter func(path string) uint64, gauge func(path string) float64) Snapshot {
	return Snapshot{
		Cycle:         int64(gauge("pipeline.cycle")),
		RetiredUops:   counter("backend.uops.retired"),
		UopsOC:        counter("dispatch.uops.oc"),
		UopsIC:        counter("dispatch.uops.ic"),
		UopsLC:        counter("dispatch.uops.lc"),
		Insts:         counter("dispatch.insts"),
		Branches:      counter("fetch.branches"),
		Mispredicts:   counter("bpu.mispredicts"),
		MispLatSum:    counter("bpu.misp.latsum"),
		DecRedirects:  counter("fetch.redirects.decode"),
		Resyncs:       counter("fetch.resyncs"),
		DecodedInsts:  counter("decode.insts"),
		DecoderEnergy: gauge("power.decoder.energy"),
		OCLookups:     counter("oc.lookups"),
		OCHits:        counter("oc.hits"),
		OCFills:       counter("oc.fills"),
	}
}

// MetricsFromStats derives interval metrics from two registry snapshots; it
// is MetricsBetween composed with SnapshotFromStats.
func MetricsFromStats(a, b stats.Snapshot) Metrics {
	return MetricsBetween(SnapshotFromStats(a), SnapshotFromStats(b))
}

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

// MetricsBetween derives metrics over the interval [a, b].
func MetricsBetween(a, b Snapshot) Metrics {
	cycles := b.Cycle - a.Cycle
	m := Metrics{
		Cycles:       cycles,
		Insts:        b.Insts - a.Insts,
		UopsOC:       b.UopsOC - a.UopsOC,
		UopsIC:       b.UopsIC - a.UopsIC,
		UopsLC:       b.UopsLC - a.UopsLC,
		Mispredicts:  b.Mispredicts - a.Mispredicts,
		DecRedirects: b.DecRedirects - a.DecRedirects,
		Resyncs:      b.Resyncs - a.Resyncs,
		DecodedInsts: b.DecodedInsts - a.DecodedInsts,
		OCFills:      b.OCFills - a.OCFills,
	}
	if cycles > 0 {
		m.UPC = float64(b.RetiredUops-a.RetiredUops) / float64(cycles)
		m.IPC = float64(m.Insts) / float64(cycles)
		m.DispatchBW = float64(m.UopsOC+m.UopsIC+m.UopsLC) / float64(cycles)
		m.DecoderPower = (b.DecoderEnergy - a.DecoderEnergy) / float64(cycles)
	}
	m.OCFetchRatio = stats.Ratio(m.UopsOC, m.UopsOC+m.UopsIC)
	if m.Insts > 0 {
		m.BranchMPKI = float64(m.Mispredicts) / (float64(m.Insts) / 1000)
	}
	if m.Mispredicts > 0 {
		m.AvgMispLatency = float64(b.MispLatSum-a.MispLatSum) / float64(m.Mispredicts)
	}
	m.OCHitRate = stats.Ratio(b.OCHits-a.OCHits, b.OCLookups-a.OCLookups)
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

// RunMeasured runs warmup instructions, snapshots, runs measure
// instructions, and returns metrics over the measured interval.
func (s *Sim) RunMeasured(warmup, measure uint64) (Metrics, error) {
	if measure == 0 {
		return Metrics{}, errZeroMeasure
	}
	if warmup > 0 {
		if err := s.Run(warmup); err != nil {
			return Metrics{}, err
		}
	}
	a := s.Snapshot()
	if err := s.Run(measure); err != nil {
		return Metrics{}, err
	}
	b := s.Snapshot()
	return MetricsBetween(a, b), nil
}

// String renders a human-readable metrics summary.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"cycles=%d insts=%d UPC=%.3f IPC=%.3f dispatchBW=%.3f ocRatio=%.3f (oc=%d ic=%d lc=%d) "+
			"MPKI=%.2f mispLat=%.1f decPower=%.3f ocHit=%.3f fills=%d decRedir=%d resync=%d",
		m.Cycles, m.Insts, m.UPC, m.IPC, m.DispatchBW, m.OCFetchRatio, m.UopsOC, m.UopsIC, m.UopsLC,
		m.BranchMPKI, m.AvgMispLatency, m.DecoderPower, m.OCHitRate, m.OCFills, m.DecRedirects, m.Resyncs)
}
