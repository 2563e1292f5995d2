package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind identifies the instrument type behind a registered path.
type Kind uint8

const (
	// KindCounter is a monotonically increasing uint64 count.
	KindCounter Kind = iota
	// KindGauge is a point-in-time float64 read through a function.
	KindGauge
	// KindMean is a running mean with a sample count.
	KindMean
	// KindHist is a bucketed histogram.
	KindHist
	// KindDist is an exact small-integer-key distribution.
	KindDist
	// KindTotal is a cumulative float64 total read through a function,
	// such as an energy: a counter that is not an integer.
	KindTotal
)

var kindNames = [...]string{"counter", "gauge", "mean", "hist", "dist", "total"}

// String names the kind ("counter", "gauge", "mean", "hist", "dist",
// "total").
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// CounterReader is the read side of a registered counter: *Counter and
// *AtomicCounter both satisfy it.
type CounterReader interface{ Value() uint64 }

// CounterFunc reads a count kept outside a Counter (a cycle number, a
// cache level's hit count) as a registered counter.
type CounterFunc func() uint64

// Value calls f.
func (f CounterFunc) Value() uint64 { return f() }

// HistReader is the read side of a registered histogram: *Histogram and
// *SyncHistogram.
type HistReader interface {
	// readHist returns one bucket per histogram cell, in buf's storage.
	readHist(buf []Bucket) (total uint64, buckets []Bucket)
}

// MeanReader is the read side of a registered mean: *SyncHistogram, whose
// running sum makes it a mean too.
type MeanReader interface {
	readMean() (mean float64, count uint64)
}

// instrument binds one path to one live instrument: val is the
// CounterReader, MeanReader, HistReader, *Distribution or func() float64
// (a gauge's or a total's) that kind names, and nil while the path is
// unbound (after Reset). A family member's path is the family path plus
// its label pair, such as simulations_total{mode="full"}. kind and val
// change under the registry's lock; path never does.
type instrument struct {
	path string
	kind Kind
	val  any
}

// kindFamily marks a path a counter family reserved: it is bound, so no
// instrument or second family can take it, but it has no sample.
const kindFamily = KindTotal + 1

// Registry is a hierarchical collection of named instruments. Components
// register their instruments once at construction under dotted paths
// ("oc.hits", "bpu.tage.mispredicts"); the hot path keeps incrementing the
// same instruments directly, so observability adds no indirection to the
// cycle loop. Snapshot reads every instrument into a stable-ordered value
// that the JSON and Prometheus exporters serialize.
//
// Reset unbinds every instrument but keeps its path, the path index and
// the sorted order, so a registry can serve one owner after another (a
// recycled simulator core re-registers the same ~100 paths each time).
// Registering a path the registry holds unbound re-binds it in place and
// allocates nothing; only a path it has never held allocates. Unbound
// paths are invisible: after Reset and a set of registrations the
// registry snapshots and refuses duplicates exactly as a new
// registry given the same registrations would, and a path may come back
// as another kind.
//
// The registry structure — registration, Reset and the snapshot's
// ordering state — is goroutine-safe behind one mutex. Instrument values
// are goroutine-safe only when their type is. The simulator's Counter,
// Histogram and Distribution are plain values that the cycle loop bumps
// with no lock, so a registry of them is snapshotted by the goroutine
// running the simulation. The serving stack registers AtomicCounter and
// SyncHistogram instead: handler goroutines update them while any other
// goroutine snapshots. Registration and snapshots take one uncontended
// lock, never the hot path. Snapshot reads counters, means, histograms
// and distributions under that lock, so a CounterReader's Value must not
// call into the registry; gauge and total closures run after it is
// released and may.
type Registry struct {
	mu       sync.Mutex
	byPath   map[string]*instrument //uopvet:guardedby mu
	insts    []*instrument          //uopvet:guardedby mu
	sorted   bool                   //uopvet:guardedby mu
	prefixes map[string]string      //uopvet:guardedby mu
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byPath: make(map[string]*instrument), prefixes: make(map[string]string)}
}

// Reset unbinds every instrument, dropping the registry's references to
// them; the paths stay for the next registrations to re-bind.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, in := range r.insts {
		in.val = nil
	}
}

// bind registers val as a kind instrument at prefix+path. The key is
// built in a stack buffer, so re-binding a path the registry already
// holds allocates nothing; a bound path panics.
func (r *Registry) bind(prefix, path string, kind Kind, val any) {
	var buf [128]byte
	key := append(append(buf[:0], prefix...), path...)
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.byPath[string(key)]
	switch {
	case in == nil:
		if len(key) == 0 {
			panic("stats: empty metric path")
		}
		in = &instrument{path: string(key)}
		r.byPath[in.path] = in
		r.insts = append(r.insts, in)
		r.sorted = false
	case in.val != nil:
		panic(fmt.Sprintf("stats: duplicate metric path %q", string(key)))
	}
	in.kind, in.val = kind, val
}

// Counter registers a new counter at path and returns it.
func (r *Registry) Counter(path string) *Counter {
	c := &Counter{}
	r.RegisterCounter(path, c)
	return c
}

// RegisterCounter registers an existing counter at path. Components that
// embed counters register pointers to them so the hot path needs no
// registry involvement.
func (r *Registry) RegisterCounter(path string, c CounterReader) {
	r.bind("", path, KindCounter, c)
}

// RegisterGauge registers a derived value read through fn at snapshot time.
func (r *Registry) RegisterGauge(path string, fn func() float64) {
	r.bind("", path, KindGauge, fn)
}

// RegisterTotal registers a cumulative float total read through fn at
// snapshot time. Unlike a gauge, a total only grows, so a window
// (Snapshot.AddDelta) subtracts it.
func (r *Registry) RegisterTotal(path string, fn func() float64) {
	r.bind("", path, KindTotal, fn)
}

// RegisterMean registers an existing running mean at path.
func (r *Registry) RegisterMean(path string, m MeanReader) {
	r.bind("", path, KindMean, m)
}

// RegisterHist registers an existing histogram at path.
func (r *Registry) RegisterHist(path string, h HistReader) {
	r.bind("", path, KindHist, h)
}

// Family is a counter family: the counters of one exported metric whose
// series differ in a single label, such as simulations_total{mode="full"}.
// Label values are free text (shard URLs are), which paths may not be.
type Family struct {
	r     *Registry
	path  string
	label string
}

// Family reserves path for a counter family labelled by label. The path
// follows the same grammar and uniqueness rules as any registration.
func (r *Registry) Family(path, label string) Family {
	r.bind("", path, kindFamily, struct{}{})
	return Family{r: r, path: path, label: label}
}

// RegisterCounter registers c as the family's series label="value", at
// path family{label="value"}.
func (f Family) RegisterCounter(value string, c CounterReader) {
	f.r.bind(f.path, "{"+f.label+"="+strconv.Quote(value)+"}", KindCounter, c)
}

// RegisterDist registers an existing distribution at path.
func (r *Registry) RegisterDist(path string, d *Distribution) {
	r.bind("", path, KindDist, d)
}

// Scope returns a registration view that prefixes every path with
// "prefix.". Scopes nest, giving components dotted sub-trees without
// knowing where they are mounted.
func (r *Registry) Scope(prefix string) Scope {
	return Scope{r: r}.Scope(prefix)
}

// Scope is a prefixed registration view of a Registry.
type Scope struct {
	r      *Registry
	prefix string
}

// Scope nests: sc.Scope("tage") registers under "<prefix>.tage.".
func (s Scope) Scope(prefix string) Scope {
	if prefix == "" {
		return s
	}
	return Scope{r: s.r, prefix: s.r.scopePrefix(s.prefix, prefix)}
}

// scopePrefix returns outer+inner+".", built once per registry, since a
// reset registry's next owner enters the same scopes again.
func (r *Registry) scopePrefix(outer, inner string) string {
	var buf [128]byte
	key := append(append(append(buf[:0], outer...), inner...), '.')
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.prefixes[string(key)]
	if !ok {
		p = string(key)
		r.prefixes[p] = p
	}
	return p
}

// Counter registers a new counter under the scope and returns it.
func (s Scope) Counter(path string) *Counter {
	c := &Counter{}
	s.RegisterCounter(path, c)
	return c
}

// RegisterCounter registers an existing counter under the scope.
func (s Scope) RegisterCounter(path string, c CounterReader) {
	s.r.bind(s.prefix, path, KindCounter, c)
}

// RegisterGauge registers a derived value under the scope.
func (s Scope) RegisterGauge(path string, fn func() float64) { s.r.bind(s.prefix, path, KindGauge, fn) }

// RegisterTotal registers a cumulative float total under the scope.
func (s Scope) RegisterTotal(path string, fn func() float64) { s.r.bind(s.prefix, path, KindTotal, fn) }

// RegisterMean registers an existing mean under the scope.
func (s Scope) RegisterMean(path string, m MeanReader) { s.r.bind(s.prefix, path, KindMean, m) }

// RegisterHist registers an existing histogram under the scope.
func (s Scope) RegisterHist(path string, h HistReader) { s.r.bind(s.prefix, path, KindHist, h) }

// RegisterDist registers an existing distribution under the scope.
func (s Scope) RegisterDist(path string, d *Distribution) { s.r.bind(s.prefix, path, KindDist, d) }

// Bucket is one histogram or distribution cell in a snapshot. For
// histograms Le is the bucket's inclusive upper bound (math.MaxInt64 marks
// the overflow bucket); for distributions Le is the exact observed key.
type Bucket struct {
	Le    int64  `json:"le"`
	Count uint64 `json:"count"`
}

// Sample is one instrument's state at snapshot time. Counter counts are
// carried in Count exactly (Value mirrors them as float64 for uniform
// consumers); gauges carry Value only, means Value and Count.
type Sample struct {
	Path    string   `json:"path"`
	Kind    string   `json:"kind"`
	Value   float64  `json:"value"`
	Count   uint64   `json:"count,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a stable-ordered (ascending by path) copy of every registered
// instrument's state.
type Snapshot struct {
	Samples []Sample `json:"samples"`

	// fns is Read's scratch for the gauge and total closures it calls
	// after releasing the registry's lock; empty between reads.
	fns []func() float64
}

// Snapshot reads all bound instruments into a new snapshot. The result is
// independent of the live instruments and of registration order.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	r.Read(&s)
	s.fns = nil
	return s
}

// Read reads all bound instruments into dst, replacing its samples but
// reusing its sample and bucket storage: once dst has held a read of the
// same paths, reading again allocates nothing. A copy of dst taken before
// shares that storage and sees it overwritten (Clone copies out).
func (r *Registry) Read(dst *Snapshot) {
	// Sort, copy the paths and read every instrument but the gauges and
	// totals under the lock, since Reset and re-registration rebind
	// instruments; call their closures after releasing it, so a closure
	// that reads locked subsystem state (engine or warehouse stats) can
	// never deadlock back into this registry. The comparator works on a
	// local alias because closures are outside the lock region, and
	// sorting the shared backing array in place is what makes the sorted
	// bit durable.
	r.mu.Lock()
	insts := r.insts
	if !r.sorted {
		sort.Slice(insts, func(i, j int) bool { return insts[i].path < insts[j].path })
		r.sorted = true
	}
	n := 0
	for _, in := range insts {
		if in.val != nil && in.kind != kindFamily {
			n++
		}
	}
	samples := slices.Grow(dst.Samples[:cap(dst.Samples)], max(n-cap(dst.Samples), 0))[:n]
	fns := dst.fns[:0]
	i := 0
	for _, in := range insts {
		if in.val == nil || in.kind == kindFamily {
			continue
		}
		s := &samples[i]
		i++
		buckets := s.Buckets[:0]
		*s = Sample{Path: in.path, Kind: in.kind.String()}
		switch in.kind {
		case KindCounter:
			s.Count = in.val.(CounterReader).Value()
			s.Value = float64(s.Count)
		case KindGauge, KindTotal:
			fns = append(fns, in.val.(func() float64))
		case KindMean:
			s.Value, s.Count = in.val.(MeanReader).readMean()
		case KindHist:
			s.Count, s.Buckets = in.val.(HistReader).readHist(buckets)
			s.Value = float64(s.Count)
		case KindDist:
			d := in.val.(*Distribution)
			s.Count, s.Buckets = d.Total(), d.readBuckets(buckets)
			s.Value = float64(s.Count)
		}
	}
	r.mu.Unlock()
	next := fns
	for i := range samples {
		if s := &samples[i]; s.Kind == kindNames[KindGauge] || s.Kind == kindNames[KindTotal] {
			s.Value = next[0]()
			next = next[1:]
		}
	}
	clear(fns) // hold no closure, and so no instrument owner, past the read
	dst.Samples, dst.fns = samples, fns[:0]
}

// Sample returns the sample at path, if present.
func (s Snapshot) Sample(path string) (Sample, bool) {
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].Path >= path })
	if i < len(s.Samples) && s.Samples[i].Path == path {
		return s.Samples[i], true
	}
	return Sample{}, false
}

// Counter returns the exact count recorded at path (0 when absent).
func (s Snapshot) Counter(path string) uint64 {
	sm, ok := s.Sample(path)
	if !ok {
		return 0
	}
	return sm.Count
}

// Value returns the float value recorded at path (0 when absent).
func (s Snapshot) Value(path string) float64 {
	sm, ok := s.Sample(path)
	if !ok {
		return 0
	}
	return sm.Value
}

// HistFraction returns the fraction of histogram samples in bucket index i
// (overflow bucket is the last index), 0 when absent or empty.
func (s Snapshot) HistFraction(path string, i int) float64 {
	sm, ok := s.Sample(path)
	if !ok || sm.Count == 0 || i < 0 || i >= len(sm.Buckets) {
		return 0
	}
	return Ratio(sm.Buckets[i].Count, sm.Count)
}

// DistFraction returns the fraction of distribution samples with the exact
// key, 0 when absent or empty.
func (s Snapshot) DistFraction(path string, key int64) float64 {
	sm, ok := s.Sample(path)
	if !ok || sm.Count == 0 {
		return 0
	}
	for _, b := range sm.Buckets {
		if b.Le == key {
			return Ratio(b.Count, sm.Count)
		}
	}
	return 0
}

// WriteJSON serializes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// promName converts a dotted metric path to a Prometheus metric name.
func promName(namespace, path string) string {
	mangled := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, path)
	if namespace == "" {
		return mangled
	}
	return namespace + "_" + mangled
}

// WritePrometheus serializes the snapshot in the Prometheus text exposition
// format. Counters and gauges map directly, a counter family as one TYPE
// line over its labelled series and a total as a float counter; means become summaries (_sum/_count);
// histograms become cumulative-bucket histograms; exact distributions are
// emitted as one labeled gauge series per key.
func (s Snapshot) WritePrometheus(w io.Writer, namespace string) error {
	prev := "" // the previous sample's path, less any family labels
	for _, sm := range s.Samples {
		path, labels, labelled := strings.Cut(sm.Path, "{")
		name := promName(namespace, path)
		var err error
		switch sm.Kind {
		case "counter":
			// A family's members sort together and share one TYPE line.
			if path != prev {
				if _, err = fmt.Fprintf(w, "# TYPE %s counter\n", name); err != nil {
					return err
				}
			}
			series := name
			if labelled {
				series += "{" + labels
			}
			_, err = fmt.Fprintf(w, "%s %d\n", series, sm.Count)
		case "gauge":
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, sm.Value)
		case "total":
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %g\n", name, name, sm.Value)
		case "mean":
			_, err = fmt.Fprintf(w, "# TYPE %s summary\n%s_sum %g\n%s_count %d\n",
				name, name, sm.Value*float64(sm.Count), name, sm.Count)
		case "hist":
			if _, err = fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
				return err
			}
			cum := uint64(0)
			for _, b := range sm.Buckets {
				cum += b.Count
				le := "+Inf"
				if b.Le != math.MaxInt64 {
					le = fmt.Sprintf("%d", b.Le)
				}
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
					return err
				}
			}
			_, err = fmt.Fprintf(w, "%s_count %d\n", name, sm.Count)
		case "dist":
			if _, err = fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
				return err
			}
			for _, b := range sm.Buckets {
				if _, err = fmt.Fprintf(w, "%s{key=\"%d\"} %d\n", name, b.Le, b.Count); err != nil {
					return err
				}
			}
		}
		if err != nil {
			return err
		}
		prev = path
	}
	return nil
}
