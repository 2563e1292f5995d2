package server

import (
	"encoding/json"
	"os"
	"testing"
)

// warmAnswerSink keeps the decoded answer live so the decode is not
// optimised away.
var warmAnswerSink *SimulateResponse

// BenchmarkDecodeWarmAnswer decodes what a client receives for a memo
// hit: testdata/warm_answer.json is a /v1/simulate answer for bm_cc under
// F-PWAC, 98 snapshot samples, as WriteJSON indents it.
func BenchmarkDecodeWarmAnswer(b *testing.B) {
	body, err := os.ReadFile("testdata/warm_answer.json")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out SimulateResponse
		if err := json.Unmarshal(body, &out); err != nil {
			b.Fatal(err)
		}
		warmAnswerSink = &out
	}
}
