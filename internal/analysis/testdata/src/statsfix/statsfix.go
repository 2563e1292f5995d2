// Package statsfix is uopvet fixture corpus for the statspath analyzer: it
// registers against the real uopsim/internal/stats types so method
// resolution works exactly as in the simulator packages.
package statsfix

import "uopsim/internal/stats"

// Register exercises the grammar and duplicate rules.
func Register(r *stats.Registry) {
	r.Counter("good.path_1")
	r.Counter("Bad.Path") // want `metric path "Bad\.Path" does not match the lowercase dotted-path grammar`
	sc := r.Scope("oc")
	sc.RegisterGauge("hit rate", func() float64 { return 0 }) // want `metric path "hit rate" does not match`
	sc.Counter("hits")
	sc.Counter("hits") // want `metric path "hits" is registered twice on sc`
	other := r.Scope("lc")
	other.Counter("hits")  // same literal, different receiver: distinct full path
	r.Counter("trailing.") // want `metric path "trailing\." does not match`
	r.Counter("UPPER")     //uopvet:ignore statspath -- fixture: suppressed case
}

// Lookup exercises the grammar rule on snapshot reads.
func Lookup(s stats.Snapshot) float64 {
	return s.Value("oc.hit_rate") + s.Value("..broken") // want `metric path "\.\.broken" does not match`
}

// Warehouse mirrors how warehouse.RegisterStats mounts its gauges and how
// /v1/stats consumers read them back: registrations on a "warehouse" scope
// and the path-taking lookups (Sample, Value) the warehouse
// instrumentation introduced.
func Warehouse(r *stats.Registry, s stats.Snapshot) float64 {
	wh := r.Scope("warehouse")
	wh.RegisterGauge("live_bytes", func() float64 { return 0 })
	wh.RegisterGauge("dead bytes", func() float64 { return 0 }) // want `metric path "dead bytes" does not match`
	v := s.Value("warehouse.live_bytes")
	v += s.Value("warehouse.Live_Bytes") // want `metric path "warehouse\.Live_Bytes" does not match`
	if _, ok := s.Sample("warehouse.records"); ok {
		v++
	}
	if _, ok := s.Sample("warehouse..records"); ok { // want `metric path "warehouse\.\.records" does not match`
		v++
	}
	return v
}

// Estimate mirrors the /v1/estimate fast tier's instrumentation: the
// nested server.estimate counters and histogram from server/metrics.go and
// the surrogate gauges from surrogate.RegisterStats, plus the snapshot
// reads a dashboard would issue against them.
func Estimate(r *stats.Registry, s stats.Snapshot) float64 {
	var served stats.Counter
	est := r.Scope("server").Scope("estimate")
	est.RegisterCounter("served", &served)
	est.RegisterCounter("fallthrough", &served)
	est.RegisterCounter("fall through", &served) // want `metric path "fall through" does not match`
	sur := r.Scope("surrogate")
	sur.RegisterGauge("live_points", func() float64 { return 0 })
	sur.RegisterGauge("exact_hits", func() float64 { return 0 })
	sur.RegisterGauge("exact_hits", func() float64 { return 0 }) // want `metric path "exact_hits" is registered twice on sur`
	v := s.Value("surrogate.live_points")
	v += s.Value("server.estimate.latency_us")
	v += s.Value("server.estimate.latency-us") // want `metric path "server\.estimate\.latency-us" does not match`
	return v
}

// Families mirrors the serving stack's labelled counters: a family name is
// a registration like any other, while member label values (shard URLs)
// are free text.
func Families(r *stats.Registry) {
	var c stats.AtomicCounter
	r.Family("node_requests_total", "node").RegisterCounter("http://127.0.0.1:8091", &c)
	r.Family("node_requests_total", "node") // want `metric path "node_requests_total" is registered twice on r`
}
