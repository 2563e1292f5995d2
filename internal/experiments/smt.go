package experiments

import (
	"fmt"
	"io"

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

	schemes := Schemes(2)[2:] // RAC, PWAC, F-PWAC
	type res struct {
		workload, scheme string
		ratio, upc       float64
		err              error
	}
	type work struct {
		name   string
		scheme Scheme
	}
	var works []work
	for _, name := range p.Workloads {
		if name == coRunner {
			continue
		}
		for _, sc := range schemes {
			works = append(works, work{name, sc})
		}
	}
	par := parallelism(p, len(works))
	in := make(chan work)
	out := make(chan res, len(works)) // buffered like sweep: no delivery rendezvous
	for i := 0; i < par; i++ {
		go func() {
			for wk := range in {
				r := res{workload: wk.name, scheme: wk.scheme.Name}
				pr, err := smtPoint(p, wk.scheme, wk.name, coRunner)
				if err != nil {
					r.err = fmt.Errorf("%s/%s: %w", wk.name, wk.scheme.Name, err)
				} else {
					r.ratio, r.upc = pr.Metrics.OCFetchRatio, pr.Metrics.UPC
				}
				out <- r
			}
		}()
	}
	go func() {
		for _, wk := range works {
			in <- wk
		}
		close(in)
	}()
	byKey := map[string]res{}
	var fails failureSummary
	for range works {
		r := <-out
		if !fails.note(r.err) {
			continue
		}
		byKey[r.workload+"|"+r.scheme] = r
	}
	if err := fails.error("smt"); err != nil {
		return err
	}

	t := stats.NewTable(fmt.Sprintf("SMT (2 threads, shared 2K-uop cache, co-runner %s): thread-A OC fetch ratio and UPC vs RAC", coRunner),
		"workload", "ratio RAC", "ratio PWAC", "ratio F-PWAC", "UPC PWAC Δ", "UPC F-PWAC Δ")
	var pwacGain, fpwacGain []float64
	for _, name := range sortedWorkloads(p) {
		if name == coRunner {
			continue
		}
		rac, ok1 := byKey[name+"|RAC"]
		pw, ok2 := byKey[name+"|PWAC"]
		fp, ok3 := byKey[name+"|F-PWAC"]
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		t.AddRow(name,
			fmt.Sprintf("%.3f", rac.ratio),
			fmt.Sprintf("%.3f", pw.ratio),
			fmt.Sprintf("%.3f", fp.ratio),
			fmt.Sprintf("%+.2f%%", 100*(pw.upc/rac.upc-1)),
			fmt.Sprintf("%+.2f%%", 100*(fp.upc/rac.upc-1)))
		pwacGain = append(pwacGain, pw.upc/rac.upc)
		fpwacGain = append(fpwacGain, fp.upc/rac.upc)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "G.Mean UPC over RAC under SMT: PWAC %+.2f%%, F-PWAC %+.2f%%\n",
		(stats.GeoMean(pwacGain)-1)*100, (stats.GeoMean(fpwacGain)-1)*100)
	fmt.Fprintf(w, "(the paper argues PW-aware compaction exists precisely because RAC cannot keep a thread's entries together under SMT, §V-B1)\n\n")
	return nil
}

// smtPoint resolves one two-thread SMT design point — thread A's measured
// interval plus its end-of-run snapshot — through the shared engine when
// one is attached.
func smtPoint(p Params, sc Scheme, nameA, nameB string) (PointResult, error) {
	profA, err := workload.ByName(nameA)
	if err != nil {
		return PointResult{}, err
	}
	profB, err := workload.ByName(nameB)
	if err != nil {
		return PointResult{}, err
	}
	cfg := sc.Configure(2048)
	compute := func() (PointResult, error) {
		pair, err := smt.New(cfg, profA, profB)
		if err != nil {
			return PointResult{}, err
		}
		defer pair.Release()
		a, _, err := pair.RunSampled(p.WarmupInsts/2, p.MeasureInsts/2, p.Sampling)
		if err != nil {
			return PointResult{}, err
		}
		return PointResult{Suite: profA.Suite, Metrics: a, Snapshot: pair.A.StatsSnapshot()}, nil
	}
	if p.Engine == nil {
		return compute()
	}
	fp, err := smtFingerprint(p, profA, profB, cfg)
	if err != nil {
		return PointResult{}, err
	}
	features := func() (runcache.Features, error) { return smtFeatures(p, profA, profB, cfg) }
	res, _, err := p.Engine.DoLazy(fp, features, compute)
	return res, err
}
