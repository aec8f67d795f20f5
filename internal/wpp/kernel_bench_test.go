package wpp_test

import (
	"testing"

	"twpp/internal/bench"
	"twpp/internal/wpp"
)

// BenchmarkCompactTrace times the DBB kernel over every unique
// (original) trace of the 126.gcc-like profile at scale 0.1, the
// per-trace work behind compact.wpp.compact_ms.
func BenchmarkCompactTrace(b *testing.B) {
	p, err := bench.ProfileByName("126.gcc-like")
	if err != nil {
		b.Fatal(err)
	}
	r, err := bench.Run(p, 0.1, "")
	if err != nil {
		b.Fatal(err)
	}
	c, err := r.TWPP.ToCompacted()
	if err != nil {
		b.Fatal(err)
	}
	var traces []wpp.PathTrace
	for f := range c.Funcs {
		for i := range c.Funcs[f].Traces {
			traces = append(traces, c.Funcs[f].Expand(i))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range traces {
			wpp.CompactTrace(tr)
		}
	}
}
