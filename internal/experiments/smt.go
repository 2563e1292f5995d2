package experiments

import (
	"fmt"
	"io"

	"uopsim/internal/pipeline"
	"uopsim/internal/runcache"
	"uopsim/internal/smt"
	"uopsim/internal/stats"
	"uopsim/internal/workload"
)

// SMT reproduces the paper's §V-B1 motivation for PWAC: on a two-way SMT
// core sharing the uop cache, RAC compacts entries of *different threads*
// into one line (their reuse is uncorrelated, so co-located entries die
// together pointlessly), while PWAC keys on the prediction window — which is
// thread-private — and F-PWAC enforces it. Each workload runs against a
// fixed co-runner (jvm, a representative server thread) under every
// compaction policy; reported numbers are thread A's.
func SMT(w io.Writer, p Params) error {
	p = p.withDefaults()
	const coRunner = "jvm"

	// Workload-major in table order: each workload's RAC, PWAC and F-PWAC
	// results sit next to each other.
	var pts []Point
	for _, name := range sortedWorkloads(p) {
		if name == coRunner {
			continue
		}
		for _, sc := range Schemes(2)[2:] { // RAC, PWAC, F-PWAC
			pts = append(pts, Point{Workload: name, Scheme: sc, Capacity: 2048})
		}
	}
	ms, err := parallelMap(p, "smt", pts, func(pt Point) (pipeline.Metrics, error) {
		pr, err := smtPoint(p, pt, coRunner)
		if err != nil {
			return pipeline.Metrics{}, fmt.Errorf("%s/%s: %w", pt.Workload, pt.Scheme.Name, err)
		}
		return pr.Metrics, nil
	})
	if err != nil {
		return err
	}

	t := stats.NewTable(fmt.Sprintf("SMT (2 threads, shared 2K-uop cache, co-runner %s): thread-A OC fetch ratio and UPC vs RAC", coRunner),
		"workload", "ratio RAC", "ratio PWAC", "ratio F-PWAC", "UPC PWAC Δ", "UPC F-PWAC Δ")
	var pwacGain, fpwacGain []float64
	for i := 0; i < len(ms); i += 3 {
		rac, pw, fp := ms[i], ms[i+1], ms[i+2]
		t.AddRow(pts[i].Workload,
			fmt.Sprintf("%.3f", rac.OCFetchRatio),
			fmt.Sprintf("%.3f", pw.OCFetchRatio),
			fmt.Sprintf("%.3f", fp.OCFetchRatio),
			fmt.Sprintf("%+.2f%%", 100*(pw.UPC/rac.UPC-1)),
			fmt.Sprintf("%+.2f%%", 100*(fp.UPC/rac.UPC-1)))
		pwacGain = append(pwacGain, pw.UPC/rac.UPC)
		fpwacGain = append(fpwacGain, fp.UPC/rac.UPC)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "G.Mean UPC over RAC under SMT: PWAC %+.2f%%, F-PWAC %+.2f%%\n",
		(stats.GeoMean(pwacGain)-1)*100, (stats.GeoMean(fpwacGain)-1)*100)
	fmt.Fprintf(w, "(the paper argues PW-aware compaction exists precisely because RAC cannot keep a thread's entries together under SMT, §V-B1)\n\n")
	return nil
}

// smtPoint resolves one two-thread SMT design point — thread A's metrics
// and measured window — through the shared resolve step.
func smtPoint(p Params, pt Point, coRunner string) (PointResult, error) {
	profA, err := workload.ByName(pt.Workload)
	if err != nil {
		return PointResult{}, err
	}
	profB, err := workload.ByName(coRunner)
	if err != nil {
		return PointResult{}, err
	}
	cfg := pt.Scheme.Configure(pt.Capacity)
	fp, err := smtFingerprint(p, profA, profB, cfg)
	if err != nil {
		return PointResult{}, err
	}
	features := func() (runcache.Features, error) { return smtFeatures(p, profA, profB, cfg) }
	res, _, err := resolve(p.Engine, fp, features, func() (PointResult, error) {
		pair, err := smt.New(cfg, profA, profB)
		if err != nil {
			return PointResult{}, err
		}
		defer pair.Release()
		a, _, err := pair.RunSampled(p.WarmupInsts/2, p.MeasureInsts/2, p.Sampling)
		if err != nil {
			return PointResult{}, err
		}
		return PointResult{Suite: profA.Suite, Metrics: a, Snapshot: pair.A.Window()}, nil
	})
	return res, err
}
