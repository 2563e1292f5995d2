package bpred

import (
	"testing"

	"uopsim/internal/rng"
)

// runTage feeds a single branch with an outcome function and returns the
// accuracy over the last half of n trials.
func runTage(t *testing.T, n int, pc uint64, outcome func(i int) bool) float64 {
	t.Helper()
	tg := NewTage()
	h := NewHistory()
	correct, counted := 0, 0
	for i := 0; i < n; i++ {
		want := outcome(i)
		var p Pred
		tg.Predict(&p, pc, h)
		tg.Update(pc, h, &p, want)
		h.Shift(want)
		if i >= n/2 {
			counted++
			if p.Taken == want {
				correct++
			}
		}
	}
	return float64(correct) / float64(counted)
}

func TestTageBiased(t *testing.T) {
	acc := runTage(t, 2000, 0x4400, func(i int) bool { return true })
	if acc < 0.999 {
		t.Errorf("always-taken accuracy = %.4f, want ~1", acc)
	}
}

func TestTagePattern(t *testing.T) {
	// Period-5 pattern TTNTN.
	pat := []bool{true, true, false, true, false}
	acc := runTage(t, 4000, 0x4400, func(i int) bool { return pat[i%len(pat)] })
	if acc < 0.98 {
		t.Errorf("period-5 pattern accuracy = %.4f, want >= 0.98", acc)
	}
}

func TestTageFixedLoop(t *testing.T) {
	// Loop with fixed trip count 8: taken 7x then not-taken.
	acc := runTage(t, 8000, 0x4400, func(i int) bool { return i%8 != 7 })
	if acc < 0.97 {
		t.Errorf("fixed-trip-8 loop accuracy = %.4f, want >= 0.97", acc)
	}
}

func TestTageManyBranchesInterleaved(t *testing.T) {
	// 64 branches, each strongly biased, interleaved with shared history.
	tg := NewTage()
	h := NewHistory()
	r := rng.New(7)
	bias := make([]bool, 64)
	for i := range bias {
		bias[i] = r.Bool(0.5)
	}
	correct, counted := 0, 0
	n := 200_000
	for i := 0; i < n; i++ {
		b := r.Intn(64)
		pc := 0x10000 + uint64(b)*32
		want := bias[b]
		if r.Bool(0.02) {
			want = !want // 2% noise
		}
		var p Pred
		tg.Predict(&p, pc, h)
		tg.Update(pc, h, &p, want)
		h.Shift(want)
		if i > n/2 {
			counted++
			if p.Taken == want {
				correct++
			}
		}
	}
	acc := float64(correct) / float64(counted)
	if acc < 0.95 {
		t.Errorf("interleaved biased accuracy = %.4f, want >= 0.95", acc)
	}
}

// TestPredictOverwritesPred checks that Predict writes every field of the
// Pred it fills: the front end predicts into recycled window slots. A
// prediction into a Pred holding another branch's state must equal one into
// a zero Pred, on a trained predictor whose tagged tables hit.
func TestPredictOverwritesPred(t *testing.T) {
	tg := NewTage()
	h := NewHistory()
	r := rng.New(3)
	var stale Pred
	for i := 0; i < 50_000; i++ {
		pc := 0x4000 + uint64(r.Intn(256))*8
		var fresh Pred
		tg.Predict(&fresh, pc, h)
		tg.Predict(&stale, pc, h)
		if stale != fresh {
			t.Fatalf("step %d: into a stale Pred %+v, into a zero one %+v", i, stale, fresh)
		}
		taken := r.Bool(0.3)
		tg.Update(pc, h, &fresh, taken)
		h.Shift(taken)
		stale.provider, stale.providerWeak = numTables-1, true // leave nothing zero
	}
}
