package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"uopsim/internal/runcache"
	"uopsim/internal/stats"
)

// GET /v1/blob?fp=<fingerprint> hands a stored result blob to a peer: a
// cluster shard whose own store misses asks its peers before simulating
// (Config.Peers). Blobs travel verbatim — the simulator is deterministic,
// so the same fingerprint encodes to the same bytes on every node — and
// the fetching engine validates a peer blob exactly like a local one
// before storing it. Daemons without a persistent store (in-memory
// engines) answer 501: there is nothing to fetch.

// blobBodyLimit bounds a fetched blob: one result (a full metrics
// snapshot) fits in a fraction of this.
const blobBodyLimit = 16 << 20

func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	store := s.eng.Store()
	if store == nil {
		WriteError(w, http.StatusNotImplemented, "this daemon has no persistent store (start uopsimd with -warehouse)")
		return
	}
	if !allowMethod(w, r, http.MethodGet, "GET a fingerprint from this endpoint") {
		return
	}
	fp := r.URL.Query().Get("fp")
	if fp == "" {
		WriteError(w, http.StatusBadRequest, "GET /v1/blob needs a ?fp=<fingerprint> parameter")
		return
	}
	blob, ok := store.Load(runcache.Fingerprint(fp))
	if !ok {
		WriteError(w, http.StatusNotFound, "no stored blob for fingerprint %s", fp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(blob) //nolint — the connection is gone if this fails
}

// FetchBlob retrieves the stored result blob for fp. A miss is a
// *StatusError with Code 404; a daemon without a persistent store answers
// 501.
func (c *Client) FetchBlob(fp string) ([]byte, error) {
	resp, err := c.get("/v1/blob?fp=" + url.QueryEscape(fp))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, blobBodyLimit))
	if err != nil {
		return nil, fmt.Errorf("server: reading blob: %w", err)
	}
	return blob, nil
}

// peerFetchTimeout bounds one peer blob fetch: a stored blob is one disk
// read away, so a peer that takes longer is treated as down and the point
// falls through to the next peer or to simulation.
const peerFetchTimeout = 5 * time.Second

// peerLoader is the engine's peer hook over peers' /v1/blob: each peer in
// turn until one holds fp. 404 and 501 are misses; any other failure
// counts in fetchErrors, so a copy that could not be made is visible.
func peerLoader(peers []string, fetchErrors *stats.AtomicCounter) func(runcache.Fingerprint) ([]byte, bool) {
	hc := &http.Client{Timeout: peerFetchTimeout}
	clients := make([]*Client, len(peers))
	for i, p := range peers {
		clients[i] = NewClient(p)
		clients[i].HTTP = hc
	}
	return func(fp runcache.Fingerprint) ([]byte, bool) {
		for _, c := range clients {
			blob, err := c.FetchBlob(string(fp))
			if err == nil {
				return blob, true
			}
			var se *StatusError
			if !errors.As(err, &se) || (se.Code != http.StatusNotFound && se.Code != http.StatusNotImplemented) {
				fetchErrors.Inc()
			}
		}
		return nil, false
	}
}

// Health fetches and decodes /healthz. A draining or unreachable daemon
// returns an error (non-200s surface as *StatusError), so callers can use
// it both as a liveness probe and as the identity/balance payload source.
func (c *Client) Health() (*HealthzInfo, error) { return GetJSON[HealthzInfo](c, "/healthz") }
