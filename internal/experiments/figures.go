package experiments

import (
	"fmt"
	"io"

	"uopsim/internal/stats"
	"uopsim/internal/workload"
)

// Capacities is the Fig 3/4 uop cache capacity sweep (uops).
var Capacities = []int{2048, 4096, 8192, 16384, 32768, 65536}

// tableIIPaper holds the branch MPKI column of Table II.
var tableIIPaper = map[string]float64{
	"sp_log_regr": 10.37, "sp_tr_cnt": 7.9, "sp_pg_rnk": 9.27,
	"nutch": 5.12, "mahout": 9.05, "redis": 1.01, "jvm": 2.15,
	"bm_pb": 2.07, "bm_cc": 5.48, "bm_x64": 1.31, "bm_ds": 4.5,
	"bm_lla": 11.51, "bm_z": 11.61,
}

// TableII reproduces the workload table: suite, description and measured
// branch MPKI against the paper's reported values.
func TableII(w io.Writer, p Params) error {
	p = p.withDefaults()
	var pts []Point
	base := Schemes(2)[0]
	for _, name := range sortedWorkloads(p) {
		pts = append(pts, Point{name, base, 2048})
	}
	runs, err := sweep(p, pts)
	if err != nil {
		return err
	}
	t := stats.NewTable("Table II: workloads (baseline 2K-uop cache)",
		"workload", "suite", "MPKI", "paper MPKI", "UPC", "OC ratio")
	for _, name := range sortedWorkloads(p) {
		r := runs[key(name, base.Name, 2048)]
		prof, _ := workload.ByName(name)
		t.AddRow(name, prof.Suite,
			fmt.Sprintf("%.2f", r.Metrics.BranchMPKI),
			fmt.Sprintf("%.2f", tableIIPaper[name]),
			fmt.Sprintf("%.3f", r.Metrics.UPC),
			fmt.Sprintf("%.3f", r.Metrics.OCFetchRatio))
	}
	_, err = fmt.Fprintln(w, t)
	return err
}

// capacitySweep runs the baseline scheme across Capacities.
func capacitySweep(p Params) (map[string]Run, error) {
	base := Schemes(2)[0]
	var pts []Point
	for _, name := range p.Workloads {
		for _, c := range Capacities {
			pts = append(pts, Point{name, base, c})
		}
	}
	return sweep(p, pts)
}

// Fig3 reports normalized UPC (bars) and normalized decoder power (line)
// with increasing uop cache capacity, both relative to the 2K baseline.
func Fig3(w io.Writer, p Params) error {
	p = p.withDefaults()
	runs, err := capacitySweep(p)
	if err != nil {
		return err
	}
	hdr := []string{"workload"}
	for _, c := range Capacities {
		hdr = append(hdr, fmt.Sprintf("UPC@%dK", c/1024))
	}
	for _, c := range Capacities {
		hdr = append(hdr, fmt.Sprintf("pow@%dK", c/1024))
	}
	t := stats.NewTable("Fig 3: normalized UPC and decoder power vs capacity (2K = 1.0)", hdr...)
	upcGain := make([]float64, 0, len(p.Workloads))
	powDrop := make([]float64, 0, len(p.Workloads))
	for _, name := range sortedWorkloads(p) {
		base := runs[key(name, "baseline", 2048)]
		cells := []string{name}
		for _, c := range Capacities {
			r := runs[key(name, "baseline", c)]
			cells = append(cells, fmt.Sprintf("%.3f", r.Metrics.UPC/base.Metrics.UPC))
		}
		for _, c := range Capacities {
			r := runs[key(name, "baseline", c)]
			cells = append(cells, fmt.Sprintf("%.3f", r.Metrics.DecoderPower/base.Metrics.DecoderPower))
		}
		t.AddRow(cells...)
		top := runs[key(name, "baseline", 65536)]
		upcGain = append(upcGain, top.Metrics.UPC/base.Metrics.UPC)
		powDrop = append(powDrop, top.Metrics.DecoderPower/base.Metrics.DecoderPower)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "64K vs 2K: mean UPC %+.1f%% (paper: +11.2%%), mean decoder power %+.1f%% (paper: -39.2%%)\n\n",
		(stats.GeoMean(upcGain)-1)*100, (stats.ArithMean(powDrop)-1)*100)
	return nil
}

// Fig4 reports normalized OC fetch ratio, dispatched uops/cycle, and branch
// misprediction latency with increasing capacity.
func Fig4(w io.Writer, p Params) error {
	p = p.withDefaults()
	runs, err := capacitySweep(p)
	if err != nil {
		return err
	}
	hdr := []string{"workload"}
	for _, c := range Capacities {
		hdr = append(hdr, fmt.Sprintf("ratio@%dK", c/1024))
	}
	hdr = append(hdr, "bw@64K", "misplat@64K")
	t := stats.NewTable("Fig 4: normalized OC fetch ratio / dispatch BW / mispredict latency vs capacity (2K = 1.0)", hdr...)
	var ratioGain, bwGain, mlDrop []float64
	for _, name := range sortedWorkloads(p) {
		base := runs[key(name, "baseline", 2048)]
		cells := []string{name}
		for _, c := range Capacities {
			r := runs[key(name, "baseline", c)]
			cells = append(cells, fmt.Sprintf("%.3f", r.Metrics.OCFetchRatio/base.Metrics.OCFetchRatio))
		}
		top := runs[key(name, "baseline", 65536)]
		cells = append(cells,
			fmt.Sprintf("%.3f", top.Metrics.DispatchBW/base.Metrics.DispatchBW),
			fmt.Sprintf("%.3f", top.Metrics.AvgMispLatency/base.Metrics.AvgMispLatency))
		t.AddRow(cells...)
		ratioGain = append(ratioGain, top.Metrics.OCFetchRatio/base.Metrics.OCFetchRatio)
		bwGain = append(bwGain, top.Metrics.DispatchBW/base.Metrics.DispatchBW)
		mlDrop = append(mlDrop, top.Metrics.AvgMispLatency/base.Metrics.AvgMispLatency)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "64K vs 2K: fetch ratio %+.1f%% (paper: +69.7%%), dispatch BW %+.1f%% (paper: +13.01%%), mispredict latency %+.1f%% (paper: -10.31%%)\n\n",
		(stats.ArithMean(ratioGain)-1)*100, (stats.GeoMean(bwGain)-1)*100, (stats.ArithMean(mlDrop)-1)*100)
	return nil
}

// Fig5 reports the uop cache entry size distribution on the baseline.
func Fig5(w io.Writer, p Params) error {
	p = p.withDefaults()
	base := Schemes(2)[0]
	var pts []Point
	for _, name := range p.Workloads {
		pts = append(pts, Point{name, base, 2048})
	}
	runs, err := sweep(p, pts)
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig 5: OC entry size distribution (baseline)",
		"workload", "[1-19]B", "[20-39]B", "[40-64]B")
	var small []float64
	for _, name := range sortedWorkloads(p) {
		snap := runs[key(name, base.Name, 2048)].Snapshot
		t.AddRow(name,
			stats.Pct(snap.HistFraction("oc.entry.size", 0)),
			stats.Pct(snap.HistFraction("oc.entry.size", 1)),
			stats.Pct(snap.HistFraction("oc.entry.size", 2)))
		small = append(small, snap.HistFraction("oc.entry.size", 0)+snap.HistFraction("oc.entry.size", 1))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "entries < 40B: %.1f%% average (paper: 72%%)\n\n", 100*stats.ArithMean(small))
	return nil
}

// Fig6 reports the fraction of entries terminated by a predicted taken
// branch.
func Fig6(w io.Writer, p Params) error {
	p = p.withDefaults()
	base := Schemes(2)[0]
	var pts []Point
	for _, name := range p.Workloads {
		pts = append(pts, Point{name, base, 2048})
	}
	runs, err := sweep(p, pts)
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig 6: entries terminated by a predicted taken branch (baseline)",
		"workload", "taken-term")
	var xs []float64
	for _, name := range sortedWorkloads(p) {
		snap := runs[key(name, base.Name, 2048)].Snapshot
		x := stats.Ratio(snap.Counter("oc.entry.term.takenbranch"), snap.Counter("oc.fills"))
		t.AddRow(name, stats.Pct(x))
		xs = append(xs, x)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "average: %.1f%% (paper: 49.4%%, max 67.17%% for 541.leela_r)\n\n", 100*stats.ArithMean(xs))
	return nil
}

// Fig9 reports entries spanning I-cache line boundaries under CLASP.
func Fig9(w io.Writer, p Params) error {
	p = p.withDefaults()
	clasp := Schemes(2)[1]
	var pts []Point
	for _, name := range p.Workloads {
		pts = append(pts, Point{name, clasp, 2048})
	}
	runs, err := sweep(p, pts)
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig 9: entries spanning I-cache line boundaries (CLASP)",
		"workload", "spanning")
	var xs []float64
	for _, name := range sortedWorkloads(p) {
		snap := runs[key(name, clasp.Name, 2048)].Snapshot
		x := stats.Ratio(snap.Counter("oc.entry.span"), snap.Counter("oc.fills"))
		t.AddRow(name, stats.Pct(x))
		xs = append(xs, x)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "average: %.1f%% (paper figure shows roughly 10-45%% per workload)\n\n", 100*stats.ArithMean(xs))
	return nil
}

// Fig12 reports how many entries each prediction window's uops land in.
func Fig12(w io.Writer, p Params) error {
	p = p.withDefaults()
	base := Schemes(2)[0]
	var pts []Point
	for _, name := range p.Workloads {
		pts = append(pts, Point{name, base, 2048})
	}
	runs, err := sweep(p, pts)
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig 12: OC entries per PW distribution (baseline)",
		"workload", "1", "2", "3+")
	var one, two, three []float64
	for _, name := range sortedWorkloads(p) {
		snap := runs[key(name, base.Name, 2048)].Snapshot
		f1 := snap.DistFraction("oc.entries_per_pw", 1)
		f2 := snap.DistFraction("oc.entries_per_pw", 2)
		f3 := 1 - f1 - f2
		if f3 < 0 {
			f3 = 0
		}
		t.AddRow(name, stats.Pct(f1), stats.Pct(f2), stats.Pct(f3))
		one = append(one, f1)
		two = append(two, f2)
		three = append(three, f3)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "average: 1 entry %.1f%% (paper 64.5%%), 2 entries %.1f%% (paper 31.6%%), 3+ %.1f%% (paper 3.9%%)\n\n",
		100*stats.ArithMean(one), 100*stats.ArithMean(two), 100*stats.ArithMean(three))
	return nil
}

// schemeSweep runs all five schemes at the given capacity and compaction
// bound.
func schemeSweep(p Params, capacity, maxEntries int) (map[string]Run, error) {
	var pts []Point
	for _, name := range p.Workloads {
		for _, sc := range Schemes(maxEntries) {
			pts = append(pts, Point{name, sc, capacity})
		}
	}
	return sweep(p, pts)
}

// Fig15 reports normalized decoder power per scheme.
func Fig15(w io.Writer, p Params) error {
	p = p.withDefaults()
	runs, err := schemeSweep(p, 2048, 2)
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig 15: normalized decoder power (baseline = 1.0)",
		"workload", "baseline", "CLASP", "RAC", "PWAC", "F-PWAC")
	means := map[string][]float64{}
	for _, name := range sortedWorkloads(p) {
		base := runs[key(name, "baseline", 2048)].Metrics.DecoderPower
		cells := []string{name}
		for _, sc := range Schemes(2) {
			v := runs[key(name, sc.Name, 2048)].Metrics.DecoderPower / base
			cells = append(cells, fmt.Sprintf("%.3f", v))
			means[sc.Name] = append(means[sc.Name], v)
		}
		t.AddRow(cells...)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "average decoder power vs baseline: CLASP %.3f (paper 0.914), RAC %.3f (0.851), PWAC %.3f (0.837), F-PWAC %.3f (0.806)\n\n",
		stats.ArithMean(means["CLASP"]), stats.ArithMean(means["RAC"]),
		stats.ArithMean(means["PWAC"]), stats.ArithMean(means["F-PWAC"]))
	return nil
}

// upcImprovement renders a %UPC-improvement table for the given runs.
func upcImprovement(w io.Writer, p Params, runs map[string]Run, capacity, maxEntries int, title, paperNote string) error {
	schemes := Schemes(maxEntries)[1:] // improvements are over baseline
	hdr := []string{"workload"}
	for _, sc := range schemes {
		hdr = append(hdr, sc.Name)
	}
	t := stats.NewTable(title, hdr...)
	gains := map[string][]float64{}
	bases := map[string][]float64{}
	for _, name := range sortedWorkloads(p) {
		base := runs[key(name, "baseline", capacity)].Metrics.UPC
		cells := []string{name}
		for _, sc := range schemes {
			v := runs[key(name, sc.Name, capacity)].Metrics.UPC
			cells = append(cells, fmt.Sprintf("%+.2f%%", 100*(v/base-1)))
			gains[sc.Name] = append(gains[sc.Name], v)
			bases[sc.Name] = append(bases[sc.Name], base)
		}
		t.AddRow(cells...)
	}
	fmt.Fprintln(w, t)
	parts := "G.Mean:"
	for _, sc := range schemes {
		parts += fmt.Sprintf(" %s %+.2f%%", sc.Name, geoMeanImprovement(gains[sc.Name], bases[sc.Name]))
	}
	fmt.Fprintf(w, "%s   (%s)\n\n", parts, paperNote)
	return nil
}

// Fig16 reports %UPC improvement per scheme with max two entries per line.
func Fig16(w io.Writer, p Params) error {
	p = p.withDefaults()
	runs, err := schemeSweep(p, 2048, 2)
	if err != nil {
		return err
	}
	return upcImprovement(w, p, runs, 2048, 2,
		"Fig 16: %UPC improvement over baseline (max 2 entries/line)",
		"paper G.Mean: CLASP +1.7%, RAC +3.5%, PWAC +4.4%, F-PWAC +5.45%; max +12.8%")
}

// Fig17 reports normalized fetch ratio, dispatch bandwidth and mispredict
// latency per scheme.
func Fig17(w io.Writer, p Params) error {
	p = p.withDefaults()
	runs, err := schemeSweep(p, 2048, 2)
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig 17: normalized OC fetch ratio | dispatch BW | mispredict latency (baseline = 1.0)",
		"workload", "ratio CLASP", "ratio RAC", "ratio PWAC", "ratio F-PWAC",
		"bw F-PWAC", "misplat F-PWAC")
	agg := map[string][]float64{}
	for _, name := range sortedWorkloads(p) {
		b := runs[key(name, "baseline", 2048)].Metrics
		cells := []string{name}
		for _, sc := range Schemes(2)[1:] {
			m := runs[key(name, sc.Name, 2048)].Metrics
			v := m.OCFetchRatio / b.OCFetchRatio
			cells = append(cells, fmt.Sprintf("%.3f", v))
			agg["ratio:"+sc.Name] = append(agg["ratio:"+sc.Name], v)
		}
		f := runs[key(name, "F-PWAC", 2048)].Metrics
		bw := f.DispatchBW / b.DispatchBW
		ml := f.AvgMispLatency / b.AvgMispLatency
		cells = append(cells, fmt.Sprintf("%.3f", bw), fmt.Sprintf("%.3f", ml))
		agg["bw"] = append(agg["bw"], bw)
		agg["ml"] = append(agg["ml"], ml)
		t.AddRow(cells...)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "average fetch ratio: CLASP %+.1f%% (paper +11.6%%), RAC %+.1f%% (+20.6%%), PWAC %+.1f%% (+22.9%%), F-PWAC %+.1f%% (+28.77%%)\n",
		100*(stats.ArithMean(agg["ratio:CLASP"])-1), 100*(stats.ArithMean(agg["ratio:RAC"])-1),
		100*(stats.ArithMean(agg["ratio:PWAC"])-1), 100*(stats.ArithMean(agg["ratio:F-PWAC"])-1))
	fmt.Fprintf(w, "F-PWAC: dispatch BW %+.1f%% (paper +6.3%%), mispredict latency %+.1f%% (paper -5.23%%)\n\n",
		100*(stats.ArithMean(agg["bw"])-1), 100*(stats.ArithMean(agg["ml"])-1))
	return nil
}

// Fig18 reports the fraction of fills compacted into an existing line.
func Fig18(w io.Writer, p Params) error {
	p = p.withDefaults()
	fp := Schemes(2)[4]
	var pts []Point
	for _, name := range p.Workloads {
		pts = append(pts, Point{name, fp, 2048})
	}
	runs, err := sweep(p, pts)
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig 18: compacted OC fills ratio (F-PWAC)",
		"workload", "compacted")
	var xs []float64
	for _, name := range sortedWorkloads(p) {
		snap := runs[key(name, fp.Name, 2048)].Snapshot
		x := stats.Ratio(snap.Counter("oc.fills.compact"), snap.Counter("oc.fills"))
		t.AddRow(name, stats.Pct(x))
		xs = append(xs, x)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "average: %.1f%% (paper: 66.3%%)\n\n", 100*stats.ArithMean(xs))
	return nil
}

// Fig19 reports which allocation technique compacted each fill.
func Fig19(w io.Writer, p Params) error {
	p = p.withDefaults()
	fp := Schemes(2)[4]
	var pts []Point
	for _, name := range p.Workloads {
		pts = append(pts, Point{name, fp, 2048})
	}
	runs, err := sweep(p, pts)
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig 19: compacted entries by allocation technique (F-PWAC)",
		"workload", "RAC", "PWAC", "F-PWAC")
	var rs, ps, fs []float64
	for _, name := range sortedWorkloads(p) {
		snap := runs[key(name, fp.Name, 2048)].Snapshot
		total := snap.Counter("oc.alloc.rac") + snap.Counter("oc.alloc.pwac") + snap.Counter("oc.alloc.fpwac")
		r := stats.Ratio(snap.Counter("oc.alloc.rac"), total)
		pw := stats.Ratio(snap.Counter("oc.alloc.pwac"), total)
		f := stats.Ratio(snap.Counter("oc.alloc.fpwac"), total)
		t.AddRow(name, stats.Pct(r), stats.Pct(pw), stats.Pct(f))
		rs = append(rs, r)
		ps = append(ps, pw)
		fs = append(fs, f)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "average: RAC %.1f%% (paper 30.3%%), PWAC %.1f%% (41.4%%), F-PWAC %.1f%% (28.3%%)\n\n",
		100*stats.ArithMean(rs), 100*stats.ArithMean(ps), 100*stats.ArithMean(fs))
	return nil
}

// Fig20 reports %UPC improvement with max three entries per line.
func Fig20(w io.Writer, p Params) error {
	p = p.withDefaults()
	runs, err := schemeSweep(p, 2048, 3)
	if err != nil {
		return err
	}
	return upcImprovement(w, p, runs, 2048, 3,
		"Fig 20: %UPC improvement over baseline (max 3 entries/line)",
		"paper: 3-entry compaction G.Mean +6.0% vs +5.4% for 2-entry")
}

// Fig21 reports the OC fetch ratio change with max three entries per line.
func Fig21(w io.Writer, p Params) error {
	p = p.withDefaults()
	runs, err := schemeSweep(p, 2048, 3)
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig 21: normalized OC fetch ratio (max 3 entries/line, baseline = 1.0)",
		"workload", "CLASP", "RAC", "PWAC", "F-PWAC")
	agg := map[string][]float64{}
	for _, name := range sortedWorkloads(p) {
		b := runs[key(name, "baseline", 2048)].Metrics
		cells := []string{name}
		for _, sc := range Schemes(3)[1:] {
			m := runs[key(name, sc.Name, 2048)].Metrics
			v := m.OCFetchRatio / b.OCFetchRatio
			cells = append(cells, fmt.Sprintf("%.3f", v))
			agg[sc.Name] = append(agg[sc.Name], v)
		}
		t.AddRow(cells...)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "average F-PWAC fetch ratio gain: %+.1f%% (paper: +31.8%% for 3 entries vs +28.2%% for 2)\n\n",
		100*(stats.ArithMean(agg["F-PWAC"])-1))
	return nil
}

// Fig22 reports %UPC improvement over a 4K-uop baseline.
func Fig22(w io.Writer, p Params) error {
	p = p.withDefaults()
	runs, err := schemeSweep(p, 4096, 2)
	if err != nil {
		return err
	}
	return upcImprovement(w, p, runs, 4096, 2,
		"Fig 22: %UPC improvement over a 4K-uop baseline (max 2 entries/line)",
		"paper: F-PWAC +3.08% G.Mean over 4K baseline, max +11.27% for 502.gcc_r")
}
