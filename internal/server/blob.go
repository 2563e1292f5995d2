package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"uopsim/internal/experiments"
	"uopsim/internal/runcache"
)

// The /v1/blob endpoint is the cluster's replication primitive: GET hands a
// stored result blob to a peer (the gateway's read-through fetch), POST
// accepts one into the local store (the async replication to a recovered
// owner). Blobs travel verbatim — the simulator is deterministic, so the
// same fingerprint encodes to the same bytes on every node — and a POSTed
// blob must pass the same semantic validation the engine applies to disk
// blobs before it is persisted. Daemons without a persistent store
// (in-memory engines) answer 501: there is nothing to fetch from or
// replicate into.

// BlobPut is /v1/blob's POST body: one stored record, addressed by its
// canonical fingerprint and carrying the point's feature vector so a
// feature-indexed store (the warehouse) can index the replicated record
// exactly as if it had simulated the point itself.
type BlobPut struct {
	Fingerprint string            `json:"fingerprint"`
	Features    runcache.Features `json:"features,omitempty"`
	Blob        json.RawMessage   `json:"blob"`
}

// blobBodyLimit bounds a /v1/blob POST: one result blob (a full metrics
// snapshot) plus a feature vector fits in a fraction of this.
const blobBodyLimit = 16 << 20

func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	store := s.eng.Store()
	if store == nil {
		WriteError(w, http.StatusNotImplemented, "this daemon has no persistent store (start uopsimd with -warehouse)")
		return
	}
	switch r.Method {
	case http.MethodGet:
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
	case http.MethodPost:
		var req BlobPut
		if err := DecodeJSON(w, r, blobBodyLimit, &req); err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if req.Fingerprint == "" {
			WriteError(w, http.StatusBadRequest, "blob put needs a fingerprint")
			return
		}
		if err := experiments.ValidateResultBlob(req.Blob); err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := store.Put(runcache.Fingerprint(req.Fingerprint), req.Features, req.Blob); err != nil {
			WriteError(w, http.StatusInternalServerError, "storing blob: %v", err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		WriteError(w, http.StatusMethodNotAllowed, "GET a fingerprint or POST a BlobPut to this endpoint")
	}
}

// FetchBlob retrieves the stored result blob for fp. A miss is a
// *StatusError with Code 404; a daemon without a persistent store answers
// 501.
func (c *Client) FetchBlob(fp string) ([]byte, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/v1/blob?fp=" + url.QueryEscape(fp))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, blobBodyLimit))
	if err != nil {
		return nil, fmt.Errorf("server: reading blob: %w", err)
	}
	return blob, nil
}

// PutBlob replicates one stored record into the daemon's store. The daemon
// validates the blob before persisting it.
func (c *Client) PutBlob(p BlobPut) error {
	resp, err := c.postJSON("/v1/blob", p)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Health fetches and decodes /healthz. A draining or unreachable daemon
// returns an error (non-200s surface as *StatusError), so callers can use
// it both as a liveness probe and as the identity/balance payload source.
func (c *Client) Health() (*HealthzInfo, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	var info HealthzInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("server: decoding healthz: %w", err)
	}
	return &info, nil
}
