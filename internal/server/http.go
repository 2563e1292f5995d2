package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"uopsim/internal/stats"
)

// The HTTP plumbing both front ends share. The daemon (Server) and the
// cluster gateway (internal/cluster) guard methods, decode bodies, answer
// errors, stream NDJSON and shut down through these helpers, so a client
// sees one wire grammar whichever it talks to.

// errorBody is every non-2xx JSON payload, from a daemon or a gateway, so
// clients see one error grammar whichever they talk to.
type errorBody struct {
	Error string `json:"error"`
}

// WriteError answers code with an errorBody carrying the formatted message.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// WriteJSON answers code with v as indented JSON: the bytes
// json.MarshalIndent(v, "", "  ") gives, plus a newline. The whole body is
// encoded first, so it goes out with its Content-Length, never chunked.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	je := jsonEncoders.Get().(*jsonEncoder)
	defer je.release()
	je.enc.Encode(v) //nolint — only an unencodable v fails, and then the body is empty
	WriteBody(w, code, je.buf.Bytes())
}

// WriteBody answers code with body, JSON already encoded, and its
// Content-Length. The gateway forwards a shard's whole answer with it.
func WriteBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body) //nolint — the connection is gone if this fails
}

// jsonEncoder is an indenting encoder over its own buffer. Pooling both
// keeps the encoder's indent scratch and the buffer across answers, so a
// warm hit does not regrow a snapshot-sized body twice per request.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncoders = sync.Pool{New: func() any {
	je := &jsonEncoder{}
	je.enc = json.NewEncoder(&je.buf)
	je.enc.SetIndent("", "  ")
	return je
}}

// maxPooledJSON bounds the buffer an encoder or a pooled body keeps: a
// rare huge answer (a wide /v1/stats) is not pinned in the pool for the
// process lifetime.
const maxPooledJSON = 1 << 20

func (je *jsonEncoder) release() {
	if je.buf.Cap() > maxPooledJSON {
		return
	}
	je.buf.Reset()
	jsonEncoders.Put(je)
}

// Method admits only requests made with method to h; any other gets 405
// with hint in an errorBody. (ServeMux method patterns answer 405 in plain
// text, outside the error grammar.)
func Method(method, hint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if allowMethod(w, r, method, hint) {
			h(w, r)
		}
	}
}

// allowMethod is Method's check, for a handler that must answer something
// else before it (handleBlob's 501).
func allowMethod(w http.ResponseWriter, r *http.Request, method, hint string) bool {
	if r.Method == method {
		return true
	}
	WriteError(w, http.StatusMethodNotAllowed, "%s", hint)
	return false
}

// simulateBodyLimit bounds a one-point or query body: one point plus one
// config override fits in a fraction of this.
const simulateBodyLimit = 4 << 20

// sweepBodyLimit bounds a /v1/sweep body. Every admissible point may carry
// a full explicit config override (a few KB), so the cap scales with the
// point cap rather than truncating documented-legal batches mid-stream.
func sweepBodyLimit(maxPoints int) int64 {
	return simulateBodyLimit + int64(maxPoints)*(16<<10)
}

// decodeBody parses a request body bounded by limit into v, strictly:
// unknown fields are a client error, not something to guess about. On
// failure it answers 400, naming an over-limit body as such instead of as
// a truncation error, and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusBadRequest, "request body too large (limit %d bytes)", tooBig.Limit)
		} else {
			WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		return false
	}
	return true
}

// DecodeRequest is decodeBody for a /v1/simulate, /v1/estimate or
// /v1/query body. The gateway decodes with it too, so it rejects exactly
// what a shard would.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeBody(w, r, simulateBodyLimit, v)
}

// DecodeSweep reads a /v1/sweep body under the limit maxPoints implies and
// rejects an empty batch or one over maxPoints. On failure it answers 400
// and returns false; who names the front end ("server", "gateway") in the
// cap message.
func DecodeSweep(w http.ResponseWriter, r *http.Request, maxPoints int, who string) (SweepRequest, bool) {
	var req SweepRequest
	if !decodeBody(w, r, sweepBodyLimit(maxPoints), &req) {
		return req, false
	}
	if len(req.Points) == 0 {
		WriteError(w, http.StatusBadRequest, "sweep needs at least one point")
		return req, false
	}
	if len(req.Points) > maxPoints {
		WriteError(w, http.StatusBadRequest, "sweep of %d points exceeds this %s's cap of %d", len(req.Points), who, maxPoints)
		return req, false
	}
	return req, true
}

// StreamSweep answers 200 with each line from lines as one NDJSON line,
// flushed as it arrives, until lines closes. A client that goes away does
// not end the loop: it keeps draining lines so their senders can finish.
func StreamSweep(w http.ResponseWriter, lines <-chan SweepLine) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for line := range lines {
		if err := enc.Encode(line); err != nil {
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// WriteRows answers 200 with rows as NDJSON, stopping at the first failed
// write (the client went away).
func WriteRows(w http.ResponseWriter, rows []QueryRow) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, row := range rows {
		if err := enc.Encode(row); err != nil {
			return
		}
	}
}

// Metrics serves reg's snapshot in the Prometheus text format, every name
// under prefix ("uopsimd", "uopgate").
func Metrics(reg *stats.Registry, prefix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Snapshot().WritePrometheus(w, prefix)
	}
}

// ListenAndServe serves hs on hs.Addr until SIGINT or SIGTERM, then shuts
// down within budget: Shutdown closes the listener and waits for open
// requests, then drain (when non-nil) finishes the work they left behind.
// It returns nil after a signalled shutdown, whether or not the budget
// ran out; name prefixes its log lines.
func ListenAndServe(name string, hs *http.Server, budget time.Duration, drain func()) error {
	// The signals are caught before the listener opens, so whoever can
	// connect can also stop the process gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		shutdown(name, hs, budget, drain)
	}()
	err = hs.Serve(ln)
	stop() // a listener that failed on its own shuts down the same way
	<-done
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

func shutdown(name string, hs *http.Server, budget time.Duration, drain func()) {
	log.Printf("%s: shutting down (budget %s)", name, budget)
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("%s: shutdown: %v", name, err)
	}
	if drain == nil {
		return
	}
	done := make(chan struct{})
	go func() { drain(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		log.Printf("%s: drain budget exhausted, exiting with work in flight", name)
	}
}
