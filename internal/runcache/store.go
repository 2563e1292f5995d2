package runcache

import "os"

// KV is one feature of a design point: a dotted lowercase key (the
// canonical flattening of a config field, e.g. "config.uopcache.capacityuops")
// and its value rendered as a string. See AppendFeatures for the encoding.
type KV struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Features is the canonicalized feature vector of a design point, stored
// alongside its blob by stores that index by feature (the warehouse). Order
// is the flattening order of the source structs and is deterministic.
type Features []KV

// Get returns the value for key and whether it is present.
func (f Features) Get(key string) (string, bool) {
	for _, kv := range f {
		if kv.Key == key {
			return kv.Value, true
		}
	}
	return "", false
}

// Store is the persistence contract behind an Engine: a blob per
// fingerprint plus its feature vector. warehouse.Store (the indexed
// segment-file warehouse) is the production implementation; the interface
// keeps this package free of a warehouse import (which imports runcache)
// and lets tests substitute an in-memory fake. Implementations must be
// safe for concurrent use and must never return a blob they cannot prove
// intact — a doubtful read is a miss, the engine re-simulates.
type Store interface {
	// Load returns the blob for fp, or ok=false on any miss (absent,
	// unreadable, failed integrity check — the engine does not distinguish).
	Load(fp Fingerprint) ([]byte, bool)
	// Put persists blob under fp, replacing any previous record. feat is
	// the point's canonical feature vector, indexed for queries.
	Put(fp Fingerprint, feat Features, blob []byte) error
	// Location names where fp's blob lives, for error messages
	// ("warehouse <dir> record <fp>").
	Location(fp Fingerprint) string
	// Quarantine takes a corrupt blob out of the read path so its decode
	// cost is paid once, not on every later Load. It must not error on a
	// record that is already gone.
	Quarantine(fp Fingerprint) error
}

// SyncDir fsyncs a directory, making a rename inside it durable: the
// rename is atomic in the namespace, but only a synced directory guarantees
// a crash cannot roll the namespace back to the pre-rename state. The
// warehouse's segment rotation and compaction publish files this way.
func SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
