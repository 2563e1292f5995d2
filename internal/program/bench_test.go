package program_test

import (
	"testing"

	"uopsim/internal/isa"
	"uopsim/internal/rng"
	"uopsim/internal/workload"
)

var sinkInst *isa.Inst

// BenchmarkProgramAt times address lookup on bm_cc's image: random
// addresses inside the code region, half of them instruction boundaries
// (the fetch and walker case) and half arbitrary bytes (wrong-path fetch).
func BenchmarkProgramAt(b *testing.B) {
	wl, err := workload.Shared("bm_cc")
	if err != nil {
		b.Fatal(err)
	}
	p := wl.Program
	r := rng.New(1)
	addrs := make([]uint64, 1<<12)
	for i := range addrs {
		if i%2 == 0 {
			addrs[i] = p.Insts[r.Intn(len(p.Insts))].Addr()
		} else {
			addrs[i] = p.Base + uint64(r.Intn(int(p.CodeBytes())))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInst = p.At(addrs[i&(len(addrs)-1)])
	}
}
