package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"uopsim/internal/experiments"
)

// span is one layer's part in one request: the client call, the gateway
// handler, the gateway's hop to a shard, or the shard handler. Point is the
// design point's identity; Parent is the enclosing span of the same point
// one layer up, and Trace the client span at the root of the request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Layer  string `json:"layer"`
	Point  string `json:"point"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layers in request order: each layer's spans are children of the one
// before it.
var layers = []string{"client", "gateway", "hop", "shard"}

// recorder keeps spans in memory while on. A nil recorder records nothing
// and wraps nothing, so the untraced stack runs without any of it.
type recorder struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) add(layer, point string, start, end time.Time) {
	if r == nil || !r.on.Load() {
		return
	}
	s := span{Layer: layer, Point: point, Start: int64(start.Sub(r.base)), End: int64(end.Sub(r.base))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// pointRoute reports whether a request carries one design point.
func pointRoute(path string) bool {
	return path == "/v1/simulate" || path == "/v1/estimate"
}

// bodyPoint reads the point identity out of a simulate or estimate body.
func bodyPoint(body []byte) string {
	var pt experiments.PointRequest
	if json.Unmarshal(body, &pt) != nil {
		return ""
	}
	return pointKey(pt)
}

// handler wraps next in a span for layer around every point request.
func (r *recorder) handler(layer string, next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() || !pointRoute(req.URL.Path) {
			next.ServeHTTP(w, req)
			return
		}
		t0 := time.Now()
		body, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, req)
		r.add(layer, bodyPoint(body), t0, time.Now())
	})
}

// hopTransport is the gateway's shard transport with a span per point
// request. The span ends when the gateway closes the response body, so it
// covers the shard's whole answer, not only its headers.
type hopTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (h *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !h.rec.on.Load() || !pointRoute(req.URL.Path) || req.GetBody == nil {
		return h.base.RoundTrip(req)
	}
	key := ""
	if rc, err := req.GetBody(); err == nil {
		body, _ := io.ReadAll(rc) // a copy of a bytes.Reader body cannot fail
		key = bodyPoint(body)
	}
	t0 := time.Now()
	resp, err := h.base.RoundTrip(req)
	if err != nil {
		h.rec.add("hop", key, t0, time.Now())
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { h.rec.add("hop", key, t0, time.Now()) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// linkSpans numbers the spans by start time and gives each non-client span
// its parent: the span one layer up for the same point whose interval
// contains its start. Each point has at most one request in flight, so
// that parent is unique. It returns how many spans found none.
func linkSpans(spans []span) (orphans int) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	byPoint := map[[2]string][]int{} // (layer, point) → spans in start order
	for i := range spans {
		spans[i].ID, spans[i].Parent, spans[i].Trace = i, -1, i
		k := [2]string{spans[i].Layer, spans[i].Point}
		byPoint[k] = append(byPoint[k], i)
	}
	for l := 1; l < len(layers); l++ {
		for i := range spans {
			c := &spans[i]
			if c.Layer != layers[l] {
				continue
			}
			cands := byPoint[[2]string{layers[l-1], c.Point}]
			k := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start > c.Start }) - 1
			if k < 0 || spans[cands[k]].End < c.Start {
				orphans++
				continue
			}
			c.Parent, c.Trace = cands[k], spans[cands[k]].Trace
		}
	}
	return orphans
}

// spanLayers derives the per-layer times from linked spans: each layer's
// self time is its span minus the child spans it encloses.
func spanLayers(out layerValues, spans []span) {
	childTime := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	self := map[string][]float64{}
	for _, s := range spans {
		self[s.Layer] = append(self[s.Layer], float64(s.End-s.Start-childTime[s.ID])/1e3)
	}
	out.pct("client.self_us.p50", self["client"], 50)
	out.pct("cluster.self_us.p50", self["gateway"], 50)
	out.pct("cluster.self_us.p95", self["gateway"], 95)
	out.pct("cluster.hop_us.p50", self["hop"], 50)
	out.pct("server.handle_us.p50", self["shard"], 50)
	out.pct("server.handle_us.p95", self["shard"], 95)
}
