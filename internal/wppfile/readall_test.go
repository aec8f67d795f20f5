package wppfile_test

import (
	"runtime"
	"testing"

	"twpp/internal/bench"
	"twpp/internal/core"
	"twpp/internal/testkit"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// The parallel ReadAll equals its sequential reference (ReadDCG, then
// ExtractFunction in Functions() order) at 1, 2 and 4 procs: on every
// generator shape in both formats, and on bit-flipped images of them,
// where its error must be the first one the reference meets. Not
// parallel: it sets GOMAXPROCS.
func TestReadAllMatchesSequentialAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	corpus := testkit.Corpus(21)
	check := func(data []byte) error {
		cf, err := wppfile.OpenCompactedBytes(data, wppfile.OpenOptions{})
		if err != nil {
			return nil // nothing to read; Open's errors are checked elsewhere
		}
		defer cf.Close()
		return testkit.CheckReadAllParity(cf)
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shape := range testkit.Shapes() {
			c, _ := wpp.Compact(corpus[shape])
			tw := core.FromCompacted(c)
			for _, format := range []int{wppfile.FormatV1, wppfile.FormatV2} {
				img, err := wppfile.EncodeCompactedFormat(tw, 1, format)
				if err != nil {
					t.Fatal(err)
				}
				if err := check(img); err != nil {
					t.Errorf("procs %d, %s v%d: %v", procs, shape, format, err)
				}
				testkit.SweepBitFlips(img, len(img)/24+1, func(m testkit.Mutation) {
					if err := check(m.Data); err != nil {
						t.Errorf("procs %d, %s v%d, %s: %v", procs, shape, format, m.Desc, err)
					}
				})
			}
		}
	}
}

// BenchmarkReadAll times the read path's layers on the 126.gcc-like
// profile at scale 0.25, through public API only: the DCG decode
// (ReadDCG), owned decodes of every function block (ExtractFunction,
// no decode cache), and the whole-container ReadAll. Run it with
// -benchmem to see allocations per layer, and with -cpu 1 to time the
// sequential path.
func BenchmarkReadAll(b *testing.B) {
	p, err := bench.ProfileByName("126.gcc-like")
	if err != nil {
		b.Fatal(err)
	}
	r, err := bench.Run(p, 0.25, "")
	if err != nil {
		b.Fatal(err)
	}
	img, err := wppfile.EncodeCompactedWorkers(r.TWPP, 1)
	if err != nil {
		b.Fatal(err)
	}
	cf, err := wppfile.OpenCompactedBytes(img, wppfile.OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer cf.Close()
	fns := cf.Functions()
	b.Run("dcg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cf.ReadDCG(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("extract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, fn := range fns {
				if _, err := cf.ExtractFunction(fn); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("readall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cf.ReadAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
