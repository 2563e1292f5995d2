package workload

import (
	"testing"

	"uopsim/internal/bpred"
	"uopsim/internal/isa"
)

// offlineAccuracy measures best-case TAGE accuracy on the raw oracle stream
// (immediate update, branch-only history, no pipeline effects). It bounds
// what the full simulator can achieve and catches behaviour-generation
// pathologies.
func offlineAccuracy(t *testing.T, name string, n int, verbose bool) float64 {
	t.Helper()
	prof, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(wl)
	tg := bpred.NewTage()
	h := bpred.NewHistory()
	var conds, miss uint64
	var missByKind, dynByKind [4]uint64
	for i := 0; i < n; i++ {
		rec := w.Next()
		in := wl.Program.Inst(rec.InstID)
		if !in.IsBranch() {
			continue
		}
		if in.Branch == isa.BranchCond {
			conds++
			p := tg.Predict(in.Addr, h)
			tg.Update(in.Addr, h, p, rec.Taken)
			if cb := wl.CondOf(in.ID); cb != nil {
				dynByKind[cb.Kind]++
				if p.Taken != rec.Taken {
					missByKind[cb.Kind]++
				}
			}
			if p.Taken != rec.Taken {
				miss++
			}
		}
		h.Shift(rec.Taken)
	}
	acc := 1 - float64(miss)/float64(conds)
	if verbose {
		t.Logf("%s: conds=%d acc=%.4f", name, conds, acc)
		names := []string{"biased", "chaotic", "pattern", "loop"}
		for k, dyn := range dynByKind {
			if dyn == 0 {
				continue
			}
			t.Logf("%8s: dyn=%7d miss=%6d rate=%.4f", names[k], dyn, missByKind[k], float64(missByKind[k])/float64(dyn))
		}
	}
	return acc
}

func TestOfflinePredictability(t *testing.T) {
	offlineAccuracy(t, "bm_ds", 400_000, true)
}

// TestCalibrationReport prints the offline MPKI proxy for every profile next
// to its Table II target. Run with -v when retuning profiles.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report")
	}
	targets := map[string]float64{
		"sp_log_regr": 10.37, "sp_tr_cnt": 7.9, "sp_pg_rnk": 9.27,
		"nutch": 5.12, "mahout": 9.05, "redis": 1.01, "jvm": 2.15,
		"bm_pb": 2.07, "bm_cc": 5.48, "bm_x64": 1.31, "bm_ds": 4.5,
		"bm_lla": 11.51, "bm_z": 11.61,
	}
	for _, name := range Names() {
		prof, _ := ByName(name)
		wl, err := Build(prof)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWalker(wl)
		tg := bpred.NewTage()
		h := bpred.NewHistory()
		var insts, conds, miss uint64
		n := 400_000
		for i := 0; i < n; i++ {
			rec := w.Next()
			insts++
			in := wl.Program.Inst(rec.InstID)
			if !in.IsBranch() {
				continue
			}
			if in.Branch == isa.BranchCond {
				conds++
				p := tg.Predict(in.Addr, h)
				tg.Update(in.Addr, h, p, rec.Taken)
				if p.Taken != rec.Taken {
					miss++
				}
			}
			h.Shift(rec.Taken)
		}
		mpki := float64(miss) / float64(insts) * 1000
		t.Logf("%-12s condMPKI=%6.2f (target %5.2f) acc=%.4f condDens=%.3f insts=%d code=%dKB",
			name, mpki, targets[name], 1-float64(miss)/float64(conds), float64(conds)/float64(insts), wl.Program.NumInsts(), wl.Program.CodeBytes()>>10)
	}
}

// TestDynamicFootprint measures how many distinct static instructions (and
// uops) a fixed window of execution touches — the quantity that determines
// uop cache capacity pressure.
func TestDynamicFootprint(t *testing.T) {
	for _, name := range []string{"bm_cc", "bm_ds", "nutch", "sp_log_regr", "redis"} {
		prof, _ := ByName(name)
		wl, err := Build(prof)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWalker(wl)
		seen := make(map[uint32]bool)
		var uops, uniqueUops uint64
		n := 150_000
		for i := 0; i < n; i++ {
			rec := w.Next()
			in := wl.Program.Inst(rec.InstID)
			uops += uint64(in.NumUops)
			if !seen[rec.InstID] {
				seen[rec.InstID] = true
				uniqueUops += uint64(in.NumUops)
			}
		}
		t.Logf("%-12s unique insts=%6d uniqueUops=%6d of %d static (%.1f%% touched); dyn uops=%d",
			name, len(seen), uniqueUops, wl.Program.NumInsts(), 100*float64(len(seen))/float64(wl.Program.NumInsts()), uops)
	}
}

// TestMPKIRankSanity guards the Table II calibration: the low-MPKI cluster
// (redis, x264, perlbench, SPECjbb) must stay clearly below the high-MPKI
// cluster (leela, xz, logistic regression, page rank), matching the paper's
// ordering. Uses the offline proxy (fast, pipeline-independent).
func TestMPKIRankSanity(t *testing.T) {
	mpki := func(name string) float64 {
		prof, _ := ByName(name)
		wl, err := Build(prof)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWalker(wl)
		tg := bpred.NewTage()
		h := bpred.NewHistory()
		var miss uint64
		n := 200_000
		for i := 0; i < n; i++ {
			rec := w.Next()
			in := wl.Program.Inst(rec.InstID)
			if !in.IsBranch() {
				continue
			}
			if in.Branch == isa.BranchCond {
				p := tg.Predict(in.Addr, h)
				tg.Update(in.Addr, h, p, rec.Taken)
				if p.Taken != rec.Taken {
					miss++
				}
			}
			h.Shift(rec.Taken)
		}
		return float64(miss) / float64(n) * 1000
	}
	low := []string{"redis", "bm_x64", "bm_pb", "jvm"}
	high := []string{"bm_lla", "bm_z", "sp_log_regr", "sp_pg_rnk"}
	worstLow, bestHigh := 0.0, 1e9
	for _, n := range low {
		if v := mpki(n); v > worstLow {
			worstLow = v
		}
	}
	for _, n := range high {
		if v := mpki(n); v < bestHigh {
			bestHigh = v
		}
	}
	if worstLow >= bestHigh {
		t.Errorf("MPKI clusters overlap: worst low = %.2f, best high = %.2f", worstLow, bestHigh)
	}
}
