package core_test

import (
	"testing"

	"twpp/internal/bench"
	"twpp/internal/core"
	"twpp/internal/wpp"
)

// BenchmarkFromPath times the timestamp inversion over every unique
// (dictionary-compacted) trace of the 126.gcc-like profile at scale
// 0.1, the per-trace work behind compact.core.invert_ms.
func BenchmarkFromPath(b *testing.B) {
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
	var paths []wpp.PathTrace
	for f := range c.Funcs {
		paths = append(paths, c.Funcs[f].Traces...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, path := range paths {
			core.FromPath(path)
		}
	}
}

// BenchmarkDynamicGraph times the dynamic-CFG kernel over every unique
// trace of the 126.gcc-like profile at scale 0.1, expanded as the cfg,
// query and kpaths passes expand them.
func BenchmarkDynamicGraph(b *testing.B) {
	p, err := bench.ProfileByName("126.gcc-like")
	if err != nil {
		b.Fatal(err)
	}
	r, err := bench.Run(p, 0.1, "")
	if err != nil {
		b.Fatal(err)
	}
	var paths []wpp.PathTrace
	for f := range r.TWPP.Funcs {
		ft := &r.TWPP.Funcs[f]
		for i := range ft.Traces {
			path, err := ft.Expand(i)
			if err != nil {
				b.Fatal(err)
			}
			paths = append(paths, path)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, path := range paths {
			core.NewDynamicGraph(path)
		}
	}
}
