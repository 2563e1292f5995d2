package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// warmSnapshot returns the snapshot of a real /v1/simulate answer (the
// server package's warm-answer fixture) as the server indented it, and
// compacted.
func warmSnapshot(t testing.TB) (indented, compact []byte) {
	t.Helper()
	raw, err := os.ReadFile("../server/testdata/warm_answer.json")
	if err != nil {
		t.Fatal(err)
	}
	var answer struct {
		Result struct {
			Snapshot json.RawMessage `json:"snapshot"`
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &answer); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, answer.Result.Snapshot); err != nil {
		t.Fatal(err)
	}
	return answer.Result.Snapshot, buf.Bytes()
}

// priorSnapshot builds, afresh on every call, a state a decode may start
// from: empty, an empty non-nil slice, or a slice already holding samples
// with spare capacity (which encoding/json decodes over in place).
func priorSnapshot(kind uint8) Snapshot {
	switch kind % 3 {
	case 1:
		return Snapshot{Samples: []Sample{}}
	case 2:
		s := Snapshot{Samples: make([]Sample, 1, 2)}
		s.Samples[0] = Sample{Path: "old", Kind: "dist", Value: 3, Count: 3, Buckets: []Bucket{{Le: 1, Count: 3}}}
		return s
	}
	return Snapshot{}
}

// plainDecode is what encoding/json alone makes of b from prior.
func plainDecode(b []byte, prior uint8) (Snapshot, error) {
	s := priorSnapshot(prior)
	err := json.Unmarshal(b, (*plainSnapshot)(&s))
	return s, err
}

func FuzzSnapshotUnmarshal(f *testing.F) {
	indented, compact := warmSnapshot(f)
	seeds := []string{
		string(indented),
		string(compact),
		string(indented[:len(indented)/2]),
		string(compact[:len(compact)-1]),
		string(compact) + "x",
		" \n" + string(compact) + "\t",
		`{"samples":[{"path":"a\u002eb","kind":"counter","value":1,"count":1}]}`,
		`{"samples":[{"path":"a\"b","kind":"counter","value":1,"count":1}]}`,
		`{"samples":[{"path":"caf\u00e9","kind":"gauge","value":1}]}`,
		"{\"samples\":[{\"path\":\"caf\xc3\xa9\",\"kind\":\"gauge\",\"value\":1}]}",
		"{\"samples\":[{\"path\":\"bad\xff\",\"kind\":\"gauge\",\"value\":1}]}",
		`{"Samples":[{"Path":"a","KIND":"counter","Value":1}]}`,
		`{"samples":[{"path":"a","kind":"Counter","value":1}]}`,
		`{"samples":[{"path":"a","kind":"counter","value":1,"extra":[1,{"x":null}]}],"more":2}`,
		`{"samples":[{"path":"a","path":"b","kind":"counter"}]}`,
		`{"samples":[{"path":"a","kind":"hist","buckets":[{"le":1,"le":2,"count":1}]}]}`,
		`{"samples":[],"samples":[{"path":"a","kind":"gauge"}]}`,
		`{"samples":[{"path":"a","kind":"gauge","value":1}],"samples":[{"path":"b"}]}`,
		`{"samples":[{"path":"a","kind":"hist","buckets":[{"le":1,"count":5}],"buckets":[{"le":2}]}]}`,
		`{"samples":null}`,
		`{"samples":[]}`,
		`{}`,
		`null`,
		`[]`,
		`{"samples":[null]}`,
		`{"samples":[{}]}`,
		`{"samples":[{"path":null,"kind":null,"value":null,"count":null,"buckets":null}]}`,
		`{"samples":[{"path":"a","kind":"hist","value":2,"count":2,"buckets":[]}]}`,
		`{"samples":[{"path":"a","kind":"hist","value":2,"count":2,"buckets":[{}]}]}`,
		`{"samples":[{"path":"a","kind":"counter","value":1,"count":-1}]}`,
		`{"samples":[{"path":"a","kind":"counter","value":1,"count":1.5}]}`,
		`{"samples":[{"path":"a","kind":"counter","value":1,"count":1e2}]}`,
		`{"samples":[{"path":"a","kind":"counter","value":1,"count":18446744073709551616}]}`,
		`{"samples":[{"path":"a","kind":"dist","buckets":[{"le":-3,"count":1},{"le":0.5,"count":1}]}]}`,
		`{"samples":[{"path":"a","kind":"gauge","value":1e400}]}`,
		`{"samples":[{"path":"a","kind":"gauge","value":-0.0}]}`,
		`{"samples":[{"path":"a","kind":"gauge","value":01}]}`,
		`{"samples":[{"path":"a","kind":"gauge","value":"1"}]}`,
		`{"samples":[{"path":"a","kind":"gauge","value":1,}]}`,
		`{"samples":[{"path":"a","kind":"gauge"},]}`,
	}
	for _, s := range seeds {
		for prior := uint8(0); prior < 3; prior++ {
			f.Add([]byte(s), prior)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte, prior uint8) {
		want, wantErr := plainDecode(b, prior)
		got := priorSnapshot(prior)
		gotErr := got.UnmarshalJSON(b)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q from prior %d: error %v, encoding/json's %v", b, prior, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q from prior %d:\n got %#v\nwant %#v", b, prior, got, want)
		}
	})
}

// TestSnapshotUnmarshalConcurrent: goroutines decoding at once, some of
// them adding the same new paths to the intern table, all get what
// encoding/json gets.
func TestSnapshotUnmarshalConcurrent(t *testing.T) {
	indented, _ := warmSnapshot(t)
	fresh := strings.ReplaceAll(string(indented), `"path": "`, `"path": "concurrent.`)
	for _, body := range [][]byte{indented, []byte(fresh)} {
		want, err := plainDecode(body, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]Snapshot, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if err := json.Unmarshal(body, &got[g]); err != nil {
					t.Error(err)
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			if !reflect.DeepEqual(got[g], want) {
				t.Fatalf("goroutine %d decoded a different snapshot", g)
			}
		}
	}
}

// TestSnapshotUnmarshalSharesPaths: two decodes of one body share each
// path's storage, and every kind is a kindNames constant.
func TestSnapshotUnmarshalSharesPaths(t *testing.T) {
	indented, compact := warmSnapshot(t)
	var a, b Snapshot
	if err := json.Unmarshal(indented, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(compact, &b); err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != 98 || !reflect.DeepEqual(a, b) {
		t.Fatalf("decoded %d and %d samples, want the same 98", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if unsafe.StringData(a.Samples[i].Path) != unsafe.StringData(b.Samples[i].Path) {
			t.Errorf("%s: two decodes hold two copies of the path", a.Samples[i].Path)
		}
		k, _ := kindName([]byte(a.Samples[i].Kind))
		if unsafe.StringData(a.Samples[i].Kind) != unsafe.StringData(k) {
			t.Errorf("%s: kind %q is not the kindNames constant", a.Samples[i].Path, a.Samples[i].Kind)
		}
	}
}

// TestSnapshotBucketsDoNotAlias: the samples' buckets share one array,
// so appending to one sample's buckets must not overwrite the next's.
func TestSnapshotBucketsDoNotAlias(t *testing.T) {
	doc := []byte(`{"samples":[{"path":"a","kind":"hist","buckets":[{"le":1,"count":1}]},{"path":"b","kind":"hist","buckets":[{"le":2,"count":2}]}]}`)
	var s Snapshot
	if err := json.Unmarshal(doc, &s); err != nil {
		t.Fatal(err)
	}
	_ = append(s.Samples[0].Buckets, Bucket{Le: 9, Count: 9})
	if got := s.Samples[1].Buckets; len(got) != 1 || got[0] != (Bucket{Le: 2, Count: 2}) {
		t.Fatalf("appending to the first sample's buckets changed the second's to %v", got)
	}
}

// TestSnapshotUnmarshalAllocs: a warm decode allocates its samples slice
// and one array for all buckets, and nothing per sample.
func TestSnapshotUnmarshalAllocs(t *testing.T) {
	indented, _ := warmSnapshot(t)
	var s Snapshot
	allocs := testing.AllocsPerRun(20, func() {
		s = Snapshot{}
		if err := s.UnmarshalJSON(indented); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("a warm decode of %d samples allocates %.0f objects, want 2", len(s.Samples), allocs)
	}
}

// TestInternTableCap: fed more distinct paths than internCap, the table
// stops at internCap and leaves long paths out, and the decode is still
// exact.
func TestInternTableCap(t *testing.T) {
	saved := internTable.Load()
	t.Cleanup(func() { internTable.Store(saved) })
	var doc strings.Builder
	doc.WriteString(`{"samples":[`)
	long := strings.Repeat("x", internMaxLen+1)
	fmt.Fprintf(&doc, `{"path":"%s","kind":"gauge","value":1}`, long)
	for i := 0; i < internCap+100; i++ {
		fmt.Fprintf(&doc, `,{"path":"cap.%05d","kind":"counter","value":%d,"count":%d}`, i, i, i)
	}
	doc.WriteString(`]}`)
	body := []byte(doc.String())
	want, err := plainDecode(body, 0)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		var got Snapshot
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: decode past the cap differs from encoding/json's", pass)
		}
		m := *internTable.Load()
		if len(m) != internCap {
			t.Fatalf("pass %d: intern table holds %d paths, want its cap %d", pass, len(m), internCap)
		}
		if _, ok := m[long]; ok {
			t.Fatalf("a %d-byte path was interned", len(long))
		}
	}
}
