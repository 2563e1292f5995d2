package stats

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// FuzzRegistryResetMatchesFresh decodes a byte string into registry
// operations, two bytes each (an operation byte and an argument), and
// applies them to one registry that Reset recycles and to a new registry
// that holds only the registrations since the last Reset. The operations
// register each instrument kind or a counter family at a path from a small
// alphabet (directly, or through nested Scopes, so one path is reached by
// several routes), repeat the last registration, Reset, read the recycled
// registry into one reused Snapshot, and snapshot. After every operation
// both registries must agree: the same panic or none and the same
// snapshot, whether new or read into reused storage. A model of the paths bound since the last Reset says which
// registrations must panic and which samples a snapshot holds.
func FuzzRegistryResetMatchesFresh(f *testing.F) {
	f.Add([]byte{})
	// Each kind at one path, Reset, each path back as the next kind, a
	// duplicate, a family over a reset path, reads and snapshots.
	f.Add([]byte{
		0, 0, 1, 5, 2, 10, 3, 15, 4, 1, 5, 6, 9, 2, 10, 0, 7, 0, 7, 5,
		6, 0,
		1, 0, 2, 5, 3, 10, 4, 15, 5, 1, 0, 6, 8, 0, 9, 0, 10, 0, 7, 1, 7, 0,
		6, 0, 10, 0, 0, 3, 0, 12, 7, 0, 10, 0,
	})
	// Long generations of random operations, so a registry is reset with
	// many paths held and comes back to most of them.
	for seed := uint64(0); seed < 6; seed++ {
		r := rand.New(rand.NewPCG(seed, 1))
		stream := make([]byte, 0, 600)
		for len(stream) < cap(stream) {
			op := byte(r.IntN(int(opCount)))
			if op == opReset && r.IntN(4) != 0 {
				op = opSnapshot
			}
			stream = append(stream, op, byte(r.IntN(256)))
		}
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tw := resetTwin{t: t, reused: NewRegistry(), fresh: NewRegistry(), bound: map[string]Kind{}}
		for i := 0; i+1 < len(data); i += 2 {
			tw.apply(data[i]%opCount, data[i+1])
		}
		tw.compareSnapshots()
	})
}

// Operation codes of FuzzRegistryResetMatchesFresh; an operation byte is
// taken modulo opCount. Codes below opReset register that Kind.
const (
	opReset = iota + byte(KindTotal) + 1
	opRead
	opRepeat
	opFamily
	opSnapshot
	opCount
)

// Registration routes: an argument's route picks how a leaf is reached,
// and routePrefix is the path prefix each route adds.
var routePrefix = [...]string{"", "", "a.", "a.b.", "b."}

// leaves overlap with the routes, so "a.b.x" is one path reached three ways.
var leaves = [...]string{"x", "y", "b.x", "a.b.x"}

// registrar is what Registry and Scope share.
type registrar interface {
	RegisterCounter(string, CounterReader)
	RegisterGauge(string, func() float64)
	RegisterTotal(string, func() float64)
	RegisterMean(string, MeanReader)
	RegisterHist(string, HistReader)
	RegisterDist(string, *Distribution)
}

// via returns route's view of r: r itself, an empty Scope, or a Scope
// nested one or two deep.
func via(r *Registry, route int) registrar {
	switch route {
	case 0:
		return r
	case 1:
		return r.Scope("")
	case 2:
		return r.Scope("a")
	case 3:
		return r.Scope("a").Scope("b")
	}
	return r.Scope("b")
}

// regOp is one registration: an instrument of kind, built once and
// registered in both registries, at leaf through route. A family reserves
// the route's full path and registers one labelled counter.
type regOp struct {
	kind  Kind
	route int
	leaf  string
	val   any
}

// newRegOp builds the registration that operation code kind and argument
// arg name; the argument also sets the instrument's value.
func newRegOp(kind Kind, arg byte) regOp {
	v := int(arg) / 20
	o := regOp{kind: kind, route: int(arg) % len(routePrefix), leaf: leaves[int(arg)/len(routePrefix)%len(leaves)]}
	switch kind {
	case KindCounter, kindFamily:
		c := &Counter{}
		c.Add(uint64(v))
		o.val = c
	case KindGauge, KindTotal:
		o.val = func() float64 { return float64(v) / 4 }
	case KindMean:
		m := NewSyncHistogram(4, 8)
		m.Observe(v)
		o.val = m
	case KindHist:
		h := NewHistogram(4, 8)
		h.Observe(v)
		o.val = h
	case KindDist:
		d := &Distribution{}
		d.Observe(v % 3)
		o.val = d
	}
	return o
}

func (o regOp) path() string { return routePrefix[o.route] + o.leaf }

// member is the path of a family's one labelled counter.
func (o regOp) member() string { return o.path() + `{mode="m"}` }

// apply registers o in r, reporting whether it panicked.
func (o regOp) apply(r *Registry) bool {
	return panics(func() {
		reg := via(r, o.route)
		switch o.kind {
		case KindCounter:
			reg.RegisterCounter(o.leaf, o.val.(*Counter))
		case KindGauge:
			reg.RegisterGauge(o.leaf, o.val.(func() float64))
		case KindTotal:
			reg.RegisterTotal(o.leaf, o.val.(func() float64))
		case KindMean:
			reg.RegisterMean(o.leaf, o.val.(*SyncHistogram))
		case KindHist:
			reg.RegisterHist(o.leaf, o.val.(*Histogram))
		case KindDist:
			reg.RegisterDist(o.leaf, o.val.(*Distribution))
		case kindFamily:
			r.Family(o.path(), "mode").RegisterCounter("m", o.val.(*Counter))
		}
	})
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// resetTwin holds a registry recycled by Reset, a new registry per
// generation (the registrations since the last Reset), the kinds the
// current generation bound, and the snapshot opRead reads the recycled
// registry into, across generations.
type resetTwin struct {
	t      *testing.T
	reused *Registry
	fresh  *Registry
	bound  map[string]Kind
	last   *regOp
	buf    Snapshot
}

func (tw *resetTwin) apply(op, arg byte) {
	t := tw.t
	switch op {
	case opReset:
		tw.reused.Reset()
		tw.fresh = NewRegistry()
		clear(tw.bound)
	case opRead:
		// Clone drops the difference between a nil and an empty bucket
		// list, which reused storage may leave.
		tw.reused.Read(&tw.buf)
		if got, want := tw.buf.Clone(), tw.fresh.Snapshot().Clone(); !sameSamples(got.Samples, want.Samples) {
			t.Fatalf("read into a reused snapshot differs from a new registry's snapshot:\nread %+v\nnew  %+v", got, want)
		}
	case opSnapshot:
		tw.compareSnapshots()
	case opRepeat:
		if tw.last != nil {
			tw.register(*tw.last)
		}
	case opFamily:
		tw.register(newRegOp(kindFamily, arg))
	default:
		tw.register(newRegOp(Kind(op), arg))
	}
}

// register applies o to both registries. It must panic exactly when the
// current generation already bound o's path.
func (tw *resetTwin) register(o regOp) {
	tw.last = &o
	_, dup := tw.bound[o.path()]
	gotPanic, wantPanic := o.apply(tw.reused), o.apply(tw.fresh)
	if gotPanic != dup || wantPanic != dup {
		tw.t.Fatalf("registering %s at %q: reset registry panicked %v, new registry %v, want %v",
			o.kind, o.path(), gotPanic, wantPanic, dup)
	}
	if dup {
		return
	}
	tw.bound[o.path()] = o.kind
	if o.kind == kindFamily {
		tw.bound[o.member()] = KindCounter
	}
}

// compareSnapshots requires equal snapshots of both registries, holding
// exactly the samples the current generation bound.
func (tw *resetTwin) compareSnapshots() {
	got, want := tw.reused.Snapshot(), tw.fresh.Snapshot()
	if !reflect.DeepEqual(got, want) {
		tw.t.Fatalf("reset registry's snapshot differs from a new registry's:\nreset %+v\nnew   %+v", got, want)
	}
	var paths []string
	for p, k := range tw.bound {
		if k != kindFamily {
			paths = append(paths, p)
		}
	}
	slices.Sort(paths)
	var sampled []string
	for _, s := range got.Samples {
		sampled = append(sampled, s.Path)
		if k := tw.bound[s.Path]; s.Kind != k.String() {
			tw.t.Fatalf("sample %q is a %s, bound as %s", s.Path, s.Kind, k)
		}
	}
	if !slices.Equal(sampled, paths) {
		tw.t.Fatalf("snapshot holds %q, want the bound paths %q", sampled, paths)
	}
}

// TestResetRacesSnapshot resets and re-registers a registry on one
// goroutine, binding "a.x" as a counter and as a gauge in turn, while
// others snapshot it; run under -race. Every snapshot must read each
// sample whole, as the kind it was bound as.
func TestResetRacesSnapshot(t *testing.T) {
	r := NewRegistry()
	var c AtomicCounter
	c.Add(7)
	h := NewSyncHistogram(1, 10)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range r.Snapshot().Samples {
					if s.Path == "a.x" && !(s.Kind == "counter" && s.Count == 7 || s.Kind == "gauge" && s.Value == 0.5) {
						t.Errorf("a.x read as %+v", s)
						return
					}
				}
			}
		}()
	}
	for gen := 0; gen < 2000; gen++ {
		r.Reset()
		sc := r.Scope("a")
		if gen%2 == 0 {
			sc.RegisterCounter("x", &c)
		} else {
			sc.RegisterGauge("x", func() float64 { return 0.5 })
		}
		sc.RegisterHist("h", h)
	}
	close(stop)
	readers.Wait()
}
