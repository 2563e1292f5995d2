package pipeline

import "uopsim/internal/stats"

// RunMeasured runs warmup instructions, then measure instructions, and
// returns metrics over the measured ones (see MeasureThreads).
func (s *Sim) RunMeasured(warmup, measure uint64) (Metrics, error) {
	return s.RunSampled(warmup, measure, Sampling{})
}

// RunSampled is RunMeasured under interval sampling (see Sampling and
// MeasureThreads); a disabled sp is RunMeasured.
func (s *Sim) RunSampled(warmup, measure uint64, sp Sampling) (Metrics, error) {
	var m [1]Metrics
	err := MeasureThreads([]*Sim{s}, s.Run, warmup, measure, sp, m[:])
	return m[0], err
}

// MeasureThreads is the one measured-run loop, for a single Sim and an
// SMT core's threads alike: run(n) advances every thread by n
// instructions (Sim.Run, or the pair's interleaved Run). out[i] gets
// threads[i]'s Metrics, derived from its measured window (Window), which
// the thread's core keeps in reused buffers.
//
// A full run's window is the registry after the measured region minus the
// registry before it. A sampled run skips the warmup, then for each
// interval fast-forwards to it and cycle-simulates sp.WarmupInsts
// unmeasured and sp.IntervalInsts measured instructions. Its window sums
// the intervals' windows, scaled to the whole measured region, so its
// dispatch.insts is Metrics.Insts and skipped instructions are absent.
func MeasureThreads(threads []*Sim, run func(n uint64) error, warmup, measure uint64, sp Sampling, out []Metrics) error {
	if measure == 0 {
		return errZeroMeasure
	}
	sp = sp.WithDefaults(measure)
	if err := sp.Validate(measure); err != nil {
		return err
	}
	for _, t := range threads {
		t.live().win.Reset()
	}
	if !sp.Enabled {
		if err := run(warmup); err != nil {
			return err
		}
		if err := measureWindow(threads, run, measure); err != nil {
			return err
		}
		for i, t := range threads {
			out[i] = MetricsOf(t.core.win)
		}
		return nil
	}

	for _, t := range threads {
		t.noteSampling(sp, warmup, measure)
	}
	skip := func(n uint64) {
		for _, t := range threads {
			t.FastForward(n)
		}
	}
	skip(warmup)
	for i := range sp.Intervals {
		pre, post := sp.IntervalLead(i, measure)
		skip(pre)
		if err := run(sp.WarmupInsts); err != nil {
			return err
		}
		if err := measureWindow(threads, run, sp.IntervalInsts); err != nil {
			return err
		}
		skip(post)
	}
	for i, t := range threads {
		out[i] = extrapolate(&t.core.win, measure)
	}
	return nil
}

// measureWindow runs n instructions and adds what each thread's registry
// counted over them to the thread's window.
func measureWindow(threads []*Sim, run func(n uint64) error, n uint64) error {
	for _, t := range threads {
		t.reg.Read(&t.core.start)
	}
	if err := run(n); err != nil {
		return err
	}
	for _, t := range threads {
		c := t.core
		t.reg.Read(&c.end)
		c.win.AddDelta(c.start, c.end)
	}
	return nil
}

// extrapolate scales a sampled run's window to the whole measured region.
// Its Metrics' rates are exact over the measured instructions; its totals
// are the scaled window's.
func extrapolate(win *stats.Snapshot, measure uint64) Metrics {
	rates := MetricsOf(*win)
	if rates.Insts == 0 {
		return rates
	}
	win.Scale(float64(measure) / float64(rates.Insts))
	m := MetricsOf(*win)
	m.UPC, m.IPC, m.DispatchBW, m.OCFetchRatio = rates.UPC, rates.IPC, rates.DispatchBW, rates.OCFetchRatio
	m.BranchMPKI, m.AvgMispLatency, m.DecoderPower, m.OCHitRate = rates.BranchMPKI, rates.AvgMispLatency, rates.DecoderPower, rates.OCHitRate
	return m
}

// Window returns a copy of the measured window of the Sim's last measured
// run (MeasureThreads): what its registry counted over the measured
// instructions only. It is what an answer carries; StatsSnapshot is the
// live registry, counting since the Sim was built.
func (s *Sim) Window() stats.Snapshot {
	return s.live().win.Clone()
}
