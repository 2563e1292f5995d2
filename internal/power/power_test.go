package power

import (
	"math"
	"testing"
)

func TestDynamicEnergy(t *testing.T) {
	m := DefaultDecoderModel()
	m.NoteDecode(10, 4, 5)
	m.Finalize(11)
	wantDyn := 4*m.EnergyPerInst + 5*m.EnergyPerUop
	if got := m.Energy() - float64(m.activeCycles)*m.StaticPerCycle; math.Abs(got-wantDyn) > 1e-9 {
		t.Errorf("dynamic energy = %v, want %v", got, wantDyn)
	}
	if m.instsDecoded != 4 || m.uopsEmitted != 5 {
		t.Error("activity counters wrong")
	}
}

func TestGatingHysteresis(t *testing.T) {
	m := DefaultDecoderModel()
	m.GateHysteresis = 5
	m.NoteDecode(0, 1, 1)
	m.NoteDecode(100, 1, 1) // long gap: decoder was gated after 5 idle cycles
	m.Finalize(101)
	// Active: cycle 0 (first use), 5 hysteresis after 0... accounting adds
	// min(gap, hysteresis) on each use plus the final tail.
	want := int64(1 + 5 + 1)
	if m.activeCycles != want {
		t.Errorf("active cycles = %d, want %d", m.activeCycles, want)
	}
}

func TestContinuousUseStaysPowered(t *testing.T) {
	m := DefaultDecoderModel()
	for c := int64(0); c < 100; c++ {
		m.NoteDecode(c, 1, 1)
	}
	m.Finalize(100)
	// 100 cycles of back-to-back use: ~100 active cycles plus tail.
	if m.activeCycles < 100 || m.activeCycles > 100+m.GateHysteresis {
		t.Errorf("active cycles = %d", m.activeCycles)
	}
}

func TestIdleDecoderConsumesNothing(t *testing.T) {
	m := DefaultDecoderModel()
	m.Finalize(1000)
	if m.Energy() != 0 {
		t.Errorf("never-used decoder energy = %v", m.Energy())
	}
}

func TestAvgPower(t *testing.T) {
	m := DefaultDecoderModel()
	m.NoteDecode(0, 10, 10)
	m.Finalize(100)
	if m.AvgPower(100) <= 0 {
		t.Error("average power should be positive")
	}
	if m.AvgPower(0) != 0 {
		t.Error("zero-cycle average should be 0")
	}
}

func TestMoreDecodingMorePower(t *testing.T) {
	a, b := DefaultDecoderModel(), DefaultDecoderModel()
	for c := int64(0); c < 1000; c++ {
		a.NoteDecode(c, 4, 5)
		if c%10 == 0 {
			b.NoteDecode(c, 4, 5)
		}
	}
	a.Finalize(1000)
	b.Finalize(1000)
	if a.Energy() <= b.Energy() {
		t.Errorf("heavy decode energy %v <= light %v", a.Energy(), b.Energy())
	}
}
