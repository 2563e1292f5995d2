package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"uopsim/internal/experiments"
)

// halfAndHalf answers body in two flushed writes. Flushing before the
// handler returns sends the answer chunked, without a Content-Length.
func halfAndHalf(body []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		w.Write(body[len(body)/2:])
	}
}

// TestClientDecodesChunkedAnswer: an answer without a Content-Length
// (an older daemon, a proxy that re-chunks) is read whole all the same.
func TestClientDecodesChunkedAnswer(t *testing.T) {
	want := SimulateResponse{Workload: "bm_cc", Fingerprint: "ab12", Resolution: "memo", Mode: "full", ElapsedMS: 0.5}
	body, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(halfAndHalf(body))
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.ContentLength != -1 || len(resp.TransferEncoding) == 0 {
		t.Fatalf("test server answered with length %d, encoding %v; want a chunked answer", resp.ContentLength, resp.TransferEncoding)
	}

	c := NewClient(ts.URL)
	var dst bytes.Buffer
	if err := c.Post("/v1/simulate", struct{}{}, &dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), body) {
		t.Fatalf("Post read %q, want %q", dst.Bytes(), body)
	}
	got, err := c.Simulate(SimulateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("Simulate decoded %+v, want %+v", *got, want)
	}
}

// TestClientFailsOnShortBody: a connection that drops mid-answer fails
// the call whether the answer declared its length or was chunked, so a
// caller that forwards what Post read never forwards half an answer.
func TestClientFailsOnShortBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 1024)
	for _, declared := range []bool{true, false} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if declared {
				w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			}
			w.Write(body[:len(body)/2])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}))
		var dst bytes.Buffer
		err := NewClient(ts.URL).Post("/v1/simulate", struct{}{}, &dst)
		ts.Close()
		if err == nil {
			t.Fatalf("declared length %v: a body cut short after %d bytes read without error", declared, dst.Len())
		}
	}
}

// TestClientPooledBufferKeepsAnswers: Client reads every answer into a
// pooled buffer, so a second call reuses the bytes the first was decoded
// from. The first answer's strings must not change, and its snapshot was
// decoded into a slice sized once to fit.
func TestClientPooledBufferKeepsAnswers(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	c := NewClient(ts.URL)
	first, err := c.Simulate(SimulateRequest{PointRequest: experiments.PointRequest{
		Workload: "bm_ds", Scheme: "CLASP", Warmup: 500, Measure: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(first.Result.Snapshot.Samples); n == 0 || cap(first.Result.Snapshot.Samples) != n {
		t.Fatalf("answer holds %d samples in a slice of capacity %d, want it sized once to fit", n, cap(first.Result.Snapshot.Samples))
	}
	before, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Simulate(SimulateRequest{PointRequest: experiments.PointRequest{
		Workload: "redis", Scheme: "F-PWAC", Warmup: 500, Measure: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if second.Fingerprint == first.Fingerprint {
		t.Fatal("two distinct points share a fingerprint")
	}
	after, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("the first answer changed when the second was read into the pooled buffer")
	}
}

// TestJSONAnswersCarryContentLength: WriteJSON encodes the whole answer
// before writing, so every JSON answer declares its length, including a
// simulate answer well past the size net/http would otherwise chunk.
func TestJSONAnswersCarryContentLength(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	get := func() (*http.Response, error) { return http.Get(ts.URL + "/healthz") }
	simulate := func() (*http.Response, error) {
		return http.Post(ts.URL+"/v1/simulate", "application/json",
			strings.NewReader(`{"workload":"bm_ds","warmup":500,"measure":1000}`))
	}
	for i, ask := range []func() (*http.Response, error){get, simulate} {
		resp, err := ask()
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("answer %d: HTTP %d, Content-Length %d, encoding %v for a %d-byte body",
				i, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}
