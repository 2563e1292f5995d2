package workload_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uopsim/internal/isa"
	"uopsim/internal/program"
	"uopsim/internal/smt"
	"uopsim/internal/workload"
)

var updateProgramDigests = flag.Bool("update-program-digests", false, "rewrite testdata/program_digests.json from the current builder")

const programDigestFile = "testdata/program_digests.json"

// programDigestBases are the code bases programs are laid out at: the
// default one and the second SMT thread's.
var programDigestBases = []uint64{workload.CodeBase, smt.ThreadBBase}

type programDigests struct {
	GenVersion string            `json:"gen_version"`
	Digests    map[string]string `json:"digests"` // "<profile>@<base>" -> digest
}

// programDigest hashes the whole static image with FNV-64a: every
// instruction in ID order (Addr, Target, ID, Len, Class, Branch, NumUops,
// ImmDisp, Dest, Src1, Src2), then every block's First, N and TargetBlock.
func programDigest(p *program.Program) string {
	h := fnv.New64a()
	buf := make([]byte, 0, 28)
	for i := range p.Insts {
		in := &p.Insts[i]
		buf = binary.LittleEndian.AppendUint64(buf[:0], in.Addr())
		buf = binary.LittleEndian.AppendUint64(buf, in.Target())
		buf = binary.LittleEndian.AppendUint32(buf, in.ID)
		buf = append(buf, in.Len, uint8(in.Class), uint8(in.Branch), in.NumUops, in.ImmDisp, in.Dest, in.Src1, in.Src2)
		h.Write(buf)
	}
	for i := range p.Blocks {
		b := &p.Blocks[i]
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(b.First))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.N))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.TargetBlock))
		h.Write(buf)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestProgramImageDigests pins every profile's whole static program, at
// both code bases, independently of how the image is stored. Walker digests
// and golden metrics pin only the instructions a run reaches; this pins the
// rest, so a change to the builder's layout cannot move an instruction,
// block or branch target that no current run happens to visit.
func TestProgramImageDigests(t *testing.T) {
	got := programDigests{GenVersion: workload.GenVersion, Digests: map[string]string{}}
	for _, name := range workload.Names() {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range programDigestBases {
			wl, err := workload.BuildAt(prof, base)
			if err != nil {
				t.Fatal(err)
			}
			got.Digests[fmt.Sprintf("%s@%#x", name, base)] = programDigest(wl.Program)
		}
	}
	path := filepath.FromSlash(programDigestFile)
	if *updateProgramDigests {
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
		t.Fatalf("%v (generate with go test ./internal/workload -run TestProgramImageDigests -update-program-digests)", err)
	}
	var want programDigests
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if want.GenVersion != workload.GenVersion {
		t.Fatalf("%s was generated for %s, have %s: regenerate with -update-program-digests",
			programDigestFile, want.GenVersion, workload.GenVersion)
	}
	for key, d := range got.Digests {
		if d != want.Digests[key] {
			t.Errorf("%s: program image digest %s, want %s: the program a profile synthesizes changed, "+
				"so bump GenVersion in synth.go and regenerate with -update-program-digests",
				key, d, want.Digests[key])
		}
	}
	if len(want.Digests) != len(got.Digests) {
		t.Errorf("%s holds %d images, have %d: regenerate with -update-program-digests",
			programDigestFile, len(want.Digests), len(got.Digests))
	}
}

// TestBuildAtCodeSpaceTop checks that every profile builds at the second
// SMT thread's base and at the highest base the 32-bit code space leaves
// it, and that one byte higher fails with an error.
func TestBuildAtCodeSpaceTop(t *testing.T) {
	for _, name := range workload.Names() {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := workload.BuildAt(prof, smt.ThreadBBase)
		if err != nil {
			t.Fatalf("%s at ThreadBBase: %v", name, err)
		}
		top := isa.CodeLimit - wl.Program.CodeBytes()
		if wl, err := workload.BuildAt(prof, top); err != nil || wl.Program.Limit != isa.CodeLimit {
			t.Fatalf("%s at %#x: %v", name, top, err)
		}
		if _, err := workload.BuildAt(prof, top+1); err == nil {
			t.Fatalf("%s at %#x built across CodeLimit", name, top+1)
		}
	}
}

// TestBuildAtSlotLimit: a profile that needs more behaviours of one kind
// than a uint16 slot indexes fails to build instead of wrapping its slots.
// bm_cc, the largest Table II profile, has 34,368 memory behaviours; three
// times its functions need about 100k.
func TestBuildAtSlotLimit(t *testing.T) {
	prof, err := workload.ByName("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	prof.NumFuncs *= 3
	if _, err := workload.BuildAt(prof, workload.CodeBase); err == nil || !strings.Contains(err.Error(), "more than the 65535 a slot indexes") {
		t.Fatalf("bm_cc with %d functions built with error %v, want the slot limit", prof.NumFuncs, err)
	}
}

// TestAtMatchesBruteForce checks the address index against the instruction
// table itself on every profile: each byte of the code region, and the
// addresses just outside it, resolve to the instruction whose Addr equals
// the address, or to nil when none starts there.
func TestAtMatchesBruteForce(t *testing.T) {
	for _, name := range workload.Names() {
		wl, err := workload.Shared(name)
		if err != nil {
			t.Fatal(err)
		}
		p := wl.Program
		next := 0 // the first instruction at or above the probed address
		for addr := p.Base; addr < p.Limit; addr++ {
			var want *isa.Inst
			if next < len(p.Insts) && p.Insts[next].Addr() == addr {
				want = &p.Insts[next]
				next++
			}
			if got := p.At(addr); got != want {
				t.Fatalf("%s: At(%#x) = %p, want %p", name, addr, got, want)
			}
		}
		if next != len(p.Insts) {
			t.Fatalf("%s: %d of %d instructions start inside [Base, Limit)", name, next, len(p.Insts))
		}
		for _, addr := range []uint64{p.Base - 1, p.Limit, p.Limit + 64, 0, math.MaxUint64} {
			if got := p.At(addr); got != nil {
				t.Errorf("%s: At(%#x) outside the code region = instruction %d, want nil", name, addr, got.ID)
			}
		}
	}
}
