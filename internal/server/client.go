package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client speaks the daemon's HTTP API. The zero HTTP field uses
// http.DefaultClient; sweeps stream, so set generous (or no) client
// timeouts and bound the work with the request's timeout_ms instead.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient points a client at a daemon base URL such as
// "http://localhost:8077".
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// ParseURLs splits a comma-separated address list (uopgate -nodes,
// uopsimd -peers) into base URLs: blanks dropped, "http://" added where
// no scheme is given, trailing slashes trimmed.
func ParseURLs(list string) []string {
	var urls []string
	for _, u := range strings.Split(list, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		urls = append(urls, strings.TrimRight(u, "/"))
	}
	return urls
}

// StatusError is any non-2xx daemon answer, carrying the backpressure
// metadata a load generator needs (the Retry-After hint on 429s).
type StatusError struct {
	Code       int
	RetryAfter time.Duration
	Message    string
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("server: HTTP %d: %s", e.Code, e.Message)
	}
	return fmt.Sprintf("server: HTTP %d", e.Code)
}

// statusError decodes a non-2xx response into a StatusError.
func statusError(resp *http.Response) *StatusError {
	se := &StatusError{Code: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		} else if at, err := http.ParseTime(ra); err == nil {
			// RFC 9110 also allows an HTTP-date form.
			if d := time.Until(at); d > 0 {
				se.RetryAfter = d
			}
		}
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var eb errorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		se.Message = eb.Error
	} else {
		se.Message = strings.TrimSpace(string(body))
	}
	return se
}

// do sends req and hands back its 200 response. Any other status comes
// back as *StatusError, with the body read and closed.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, statusError(resp)
	}
	return resp, nil
}

func (c *Client) get(path string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

func (c *Client) postJSON(path string, body any) (*http.Response, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+path, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

// GetJSON fetches path from c and decodes its 200 body as a T.
// Non-2xx answers come back as *StatusError. It reads any GET endpoint of
// a daemon or a gateway (the gateway's /v1/stats as a
// cluster.StatsResponse).
func GetJSON[T any](c *Client, path string) (*T, error) {
	resp, err := c.get(path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := new(T)
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return nil, fmt.Errorf("server: decoding %s response: %w", path, err)
	}
	return out, nil
}

// Post sends req as JSON to path and appends a 200 answer's whole body to
// dst. Non-2xx answers come back as *StatusError. A body cut short fails
// the call, so a caller that forwards dst never forwards half an answer.
// An answer that declares its length is read into dst grown once.
func (c *Client) Post(path string, req any, dst *bytes.Buffer) error {
	resp, err := c.postJSON(path, req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if n := resp.ContentLength; n > 0 && n <= maxPooledJSON {
		// The spare MinRead keeps ReadFrom from growing dst again just
		// to observe EOF. Larger answers grow as they arrive, so a
		// declared length is never trusted past what a pool keeps.
		dst.Grow(int(n) + bytes.MinRead)
	}
	if _, err := dst.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("server: reading %s response: %w", path, err)
	}
	return nil
}

// call posts req to path and decodes the 200 body as a T. The body is
// read into a pooled buffer: json.Unmarshal copies every string it decodes
// (a snapshot's paths come from its intern table), so nothing in the
// answer aliases the buffer once it is reused.
func call[T any](c *Client, path string, req any) (*T, error) {
	buf := GetBody()
	defer PutBody(buf)
	if err := c.Post(path, req, buf); err != nil {
		return nil, err
	}
	out := new(T)
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return nil, fmt.Errorf("server: decoding %s response: %w", path, err)
	}
	return out, nil
}

// bodies pools the buffers whole answers are read into, by clients and by
// the cluster gateway, which reads a shard's answer completely before it
// forwards a byte.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBody returns an empty buffer from the pool; PutBody returns it.
func GetBody() *bytes.Buffer { return bodies.Get().(*bytes.Buffer) }

// PutBody resets b and pools it unless it has grown past maxPooledJSON.
func PutBody(b *bytes.Buffer) {
	if b.Cap() <= maxPooledJSON {
		b.Reset()
		bodies.Put(b)
	}
}

// Simulate resolves one point. Non-2xx answers come back as *StatusError
// so callers can switch on Code (429 → honor RetryAfter and retry).
func (c *Client) Simulate(req SimulateRequest) (*SimulateResponse, error) {
	return call[SimulateResponse](c, "/v1/simulate", req)
}

// Sweep streams a batch through /v1/sweep, invoking fn for every NDJSON
// line as it arrives (completion order, not request order — use Index).
// A non-nil fn error stops the stream and is returned.
func (c *Client) Sweep(req SweepRequest, fn func(SweepLine) error) error {
	return readNDJSON(c, "/v1/sweep", req, fn)
}

// Query streams stored design points through /v1/query, invoking fn for
// every NDJSON row (ascending fingerprint order). A daemon without a
// warehouse answers 501, surfaced as a *StatusError.
func (c *Client) Query(req QueryRequest, fn func(QueryRow) error) error {
	return readNDJSON(c, "/v1/query", req, fn)
}

// readNDJSON posts req to path and calls fn with each line of the 200
// answer, decoded as a T, as it arrives. A non-nil fn error stops the
// stream and is returned.
func readNDJSON[T any](c *Client, path string, req any, fn func(T) error) error {
	resp, err := c.postJSON(path, req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20) // sweep lines carry full snapshots, query rows their features
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return fmt.Errorf("server: decoding %s line: %w", path, err)
		}
		if err := fn(v); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Stats fetches /v1/stats.
func (c *Client) Stats() (*StatsResponse, error) { return GetJSON[StatsResponse](c, "/v1/stats") }

// Healthz reports whether the daemon answers 200 on /healthz.
func (c *Client) Healthz() error {
	resp, err := c.get("/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return nil
}
