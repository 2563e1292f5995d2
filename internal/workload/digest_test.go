package workload

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/walker_digests.json from the current walker")

// digestRecords is how many walker records each digest covers. Golden
// metrics sample 12k instructions per point and see memory addresses only
// through the cache model; 200k raw records pin the stream itself.
const digestRecords = 200_000

const digestFile = "testdata/walker_digests.json"

type walkerDigests struct {
	GenVersion string            `json:"gen_version"`
	Records    int               `json:"records"`
	Digests    map[string]string `json:"digests"`
}

// walkerDigest hashes the first n records of the profile's walker stream
// (InstID, Taken, Next, MemAddr) with FNV-64a.
func walkerDigest(t *testing.T, name string, n int) string {
	t.Helper()
	wl, err := Shared(name)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(wl)
	h := fnv.New64a()
	buf := make([]byte, 0, 21)
	for i := 0; i < n; i++ {
		rec, _ := w.Next()
		buf = binary.LittleEndian.AppendUint32(buf[:0], rec.InstID)
		taken := byte(0)
		if rec.Taken {
			taken = 1
		}
		buf = append(buf, taken)
		buf = binary.LittleEndian.AppendUint64(buf, rec.Next)
		buf = binary.LittleEndian.AppendUint64(buf, rec.MemAddr)
		h.Write(buf)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestWalkerStreamDigests is the oracle behind GenVersion: every stored
// fingerprint assumes a profile's walker replays the same stream, so any
// change to synthesis or to the walker that moves one of these digests must
// bump GenVersion (and then regenerate with -update-digests).
func TestWalkerStreamDigests(t *testing.T) {
	got := walkerDigests{GenVersion: GenVersion, Records: digestRecords, Digests: map[string]string{}}
	for _, name := range Names() {
		got.Digests[name] = walkerDigest(t, name, digestRecords)
	}
	path := filepath.FromSlash(digestFile)
	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with go test ./internal/workload -run TestWalkerStreamDigests -update-digests)", err)
	}
	var want walkerDigests
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if want.GenVersion != GenVersion || want.Records != digestRecords {
		t.Fatalf("%s was generated for %s/%d records, have %s/%d: regenerate with -update-digests",
			digestFile, want.GenVersion, want.Records, GenVersion, digestRecords)
	}
	for _, name := range Names() {
		if got.Digests[name] != want.Digests[name] {
			t.Errorf("%s: walker stream digest %s, want %s: the stream a profile synthesizes changed, "+
				"so bump GenVersion in synth.go and regenerate with -update-digests",
				name, got.Digests[name], want.Digests[name])
		}
	}
	if len(want.Digests) != len(Names()) {
		t.Errorf("%s holds %d profiles, have %d: regenerate with -update-digests", digestFile, len(want.Digests), len(Names()))
	}
}
