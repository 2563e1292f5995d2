package stats

import (
	"encoding/json"
	"reflect"
	"testing"
)

func validSnapshot() Snapshot {
	return Snapshot{Samples: []Sample{
		{Path: "bpu.lookups", Kind: "counter", Value: 10, Count: 10},
		{Path: "oc.hit_rate", Kind: "gauge", Value: 0.75},
		{Path: "oc.lookups", Kind: "counter", Value: 4, Count: 4},
	}}
}

func TestSnapshotValidate(t *testing.T) {
	if err := validSnapshot().Validate(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	s := validSnapshot()
	s.Samples[1].Path = ""
	if s.Validate() == nil {
		t.Error("empty path must be rejected")
	}
	s = validSnapshot()
	s.Samples[1].Kind = "bogus"
	if s.Validate() == nil {
		t.Error("unknown kind must be rejected")
	}
	s = validSnapshot()
	s.Samples[0], s.Samples[2] = s.Samples[2], s.Samples[0]
	if s.Validate() == nil {
		t.Error("out-of-order samples must be rejected (lookups would silently miss)")
	}
	s = validSnapshot()
	s.Samples[1] = s.Samples[0]
	if s.Validate() == nil {
		t.Error("duplicate paths must be rejected")
	}
}

func TestDecodeSnapshotRoundTrip(t *testing.T) {
	want := validSnapshot()
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverged\n got: %+v\nwant: %+v", got, want)
	}
	if got.Counter("bpu.lookups") != 10 {
		t.Error("decoded snapshot does not answer counter queries")
	}
}

func TestDecodeSnapshotRejectsGarbage(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("{not json")); err == nil {
		t.Error("malformed JSON must error")
	}
	if _, err := DecodeSnapshot([]byte(`{"samples":[{"path":"x","kind":"bogus"}]}`)); err == nil {
		t.Error("semantically invalid snapshot must error")
	}
}

// TestSnapshotUnmarshalMatchesPlainDecode: the one-pass decoder changes
// how a snapshot is allocated, never what is decoded, including the
// nil/empty distinction for null, [] and an absent field, and for a
// snapshot nested in a larger document.
func TestSnapshotUnmarshalMatchesPlainDecode(t *testing.T) {
	full, err := json.Marshal(validSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	hist := `{"samples":[{"path":"a.lat","kind":"hist","value":2,"count":3,"buckets":[{"le":1,"count":1},{"le":4,"count":2}]}]}`
	for _, doc := range []string{string(full), hist, `{"samples":null}`, `{"samples":[]}`, `{}`, `null`} {
		var got Snapshot
		var want plainSnapshot
		if err := json.Unmarshal([]byte(doc), &got); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		if !reflect.DeepEqual(got.Samples, want.Samples) || (got.Samples == nil) != (want.Samples == nil) {
			t.Errorf("%s: one-pass decode %#v, plain decode %#v", doc, got.Samples, want.Samples)
		}
		if n := len(got.Samples); n > 0 && cap(got.Samples) != n {
			t.Errorf("%s: %d samples in a slice of capacity %d, want it sized once", doc, n, cap(got.Samples))
		}
	}
	type wrapped struct {
		Before string   `json:"before"`
		Snap   Snapshot `json:"snap"`
		After  int      `json:"after"`
	}
	b := []byte(`{"before":"x","snap":` + string(full) + `,"after":7}`)
	var w wrapped
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	if w.Before != "x" || w.After != 7 || !reflect.DeepEqual(w.Snap, validSnapshot()) || cap(w.Snap.Samples) != 3 {
		t.Errorf("nested decode gave %+v (capacity %d)", w, cap(w.Snap.Samples))
	}
}

// TestDecodeSnapshotRejectsInvalid: a one-pass decode keeps
// DecodeSnapshot's validation: unsorted samples and unknown kinds fail.
func TestDecodeSnapshotRejectsInvalid(t *testing.T) {
	unsorted := validSnapshot()
	unsorted.Samples[0], unsorted.Samples[1] = unsorted.Samples[1], unsorted.Samples[0]
	unknown := validSnapshot()
	unknown.Samples[2].Kind = "timer"
	for name, s := range map[string]Snapshot{"unsorted": unsorted, "unknown kind": unknown} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(b); err == nil {
			t.Errorf("%s snapshot decoded without error", name)
		}
	}
}
