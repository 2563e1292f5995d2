// Package power models x86 decoder energy the way the paper's PTPX
// methodology observes it: dynamic energy proportional to decode activity
// plus static power while the decoder block is powered, with power gating
// after an idle hysteresis once the uop cache is supplying the machine.
// All values are in arbitrary consistent units; the paper's figures report
// decoder power normalized to a baseline run, which cancels the unit.
package power

import "uopsim/internal/stats"

// DecoderModel accumulates decoder energy over a run.
type DecoderModel struct {
	// EnergyPerInst is the dynamic energy of identifying+decoding one
	// variable-length instruction.
	EnergyPerInst float64
	// EnergyPerUop is the additional energy per emitted uop (microcode
	// sequencing).
	EnergyPerUop float64
	// StaticPerCycle is the leakage+clock power while the decoder is
	// powered on.
	StaticPerCycle float64
	// GateHysteresis is how many idle cycles elapse before the decoder
	// block is power gated.
	GateHysteresis int64

	energyDynamic float64
	activeCycles  int64
	lastUse       int64
	everUsed      bool
	instsDecoded  uint64
	uopsEmitted   uint64
	finalized     bool
}

// DefaultDecoderModel returns the model used across experiments. The split
// (roughly 60% dynamic at full decode throughput) follows published x86-64
// decoder measurements showing a large activity-proportional component
// (Hirki et al., CoolDC'16, cited as [34]).
func DefaultDecoderModel() *DecoderModel {
	m := &DecoderModel{}
	m.Reset()
	return m
}

// Reset returns m to the unused default model DefaultDecoderModel builds.
func (m *DecoderModel) Reset() {
	*m = DecoderModel{
		EnergyPerInst:  1.0,
		EnergyPerUop:   0.15,
		StaticPerCycle: 0.55,
		GateHysteresis: 12,
		lastUse:        -1,
	}
}

// RegisterMetrics publishes the decoder-energy observables under sc
// (expected mount point: "power.decoder"): three counts and the energy,
// a float total, all read at snapshot time.
func (m *DecoderModel) RegisterMetrics(sc stats.Scope) {
	sc.RegisterTotal("energy", m.Energy)
	sc.RegisterCounter("active_cycles", stats.CounterFunc(func() uint64 { return uint64(m.activeCycles) }))
	sc.RegisterCounter("insts", stats.CounterFunc(func() uint64 { return m.instsDecoded }))
	sc.RegisterCounter("uops", stats.CounterFunc(func() uint64 { return m.uopsEmitted }))
}

// NoteDecode records the decode of insts instructions producing uops at the
// given cycle, extending the decoder's powered window.
func (m *DecoderModel) NoteDecode(cycle int64, insts, uops int) {
	m.energyDynamic += float64(insts)*m.EnergyPerInst + float64(uops)*m.EnergyPerUop
	m.instsDecoded += uint64(insts)
	m.uopsEmitted += uint64(uops)
	if !m.everUsed {
		m.everUsed = true
		m.activeCycles++
	} else {
		gap := cycle - m.lastUse
		if gap > m.GateHysteresis {
			gap = m.GateHysteresis // gated after the hysteresis ran out
		}
		if gap > 0 {
			m.activeCycles += gap
		}
	}
	m.lastUse = cycle
}

// Finalize closes the last powered window at end of simulation.
func (m *DecoderModel) Finalize(endCycle int64) {
	if m.finalized || !m.everUsed {
		m.finalized = true
		return
	}
	gap := endCycle - m.lastUse
	if gap > m.GateHysteresis {
		gap = m.GateHysteresis
	}
	if gap > 0 {
		m.activeCycles += gap
	}
	m.finalized = true
}

// Energy returns total decoder energy.
func (m *DecoderModel) Energy() float64 {
	return m.energyDynamic + float64(m.activeCycles)*m.StaticPerCycle
}

// AvgPower returns average decoder power over the run.
func (m *DecoderModel) AvgPower(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return m.Energy() / float64(cycles)
}
