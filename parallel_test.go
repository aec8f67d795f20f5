// Determinism tests for the parallel compaction pipeline: for any
// worker count, partitioning + DBB discovery (wpp.CompactWorkers), the
// timestamp inversion (core.FromCompactedWorkers), and the on-disk
// encoder (wppfile.EncodeCompactedWorkers) must produce results
// byte-identical to the sequential baseline.
package twpp_test

import (
	"bytes"
	"math/rand"
	"testing"

	"twpp"
	"twpp/internal/bench"
	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// encodePipeline runs the full compact -> invert -> encode pipeline at
// the given worker count.
func encodePipeline(tb testing.TB, w *trace.RawWPP, workers int) ([]byte, wpp.Stats) {
	tb.Helper()
	c, stats := wpp.CompactWorkers(w, workers)
	tw := core.FromCompactedWorkers(c, workers)
	data, err := wppfile.EncodeCompactedWorkers(tw, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return data, stats
}

// TestParallelCompactDeterminism checks workers = 1, 2, 8 produce
// byte-identical compacted files and identical stats on all five
// SPECint-like profiles.
func TestParallelCompactDeterminism(t *testing.T) {
	for _, p := range bench.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			w := buildWorkloadScale(t, p.Name, 0.02)
			want, wantStats := encodePipeline(t, w, 1)
			for _, workers := range []int{2, 8} {
				got, gotStats := encodePipeline(t, w, workers)
				if gotStats != wantStats {
					t.Errorf("workers=%d: stats %+v != sequential %+v", workers, gotStats, wantStats)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: encoded file differs from sequential (%d vs %d bytes)",
						workers, len(got), len(want))
				}
			}
		})
	}
}

// TestCompactOptsMatchesCompact checks the facade knob produces the
// same TWPP as the default path.
func TestCompactOptsMatchesCompact(t *testing.T) {
	w := buildWorkloadScale(t, "130.li-like", 0.02)
	twSeq, statsSeq := twpp.Compact(w)
	twPar, statsPar := twpp.CompactOpts(w, twpp.CompactOptions{Workers: 4})
	if statsSeq != statsPar {
		t.Errorf("stats differ: %+v vs %+v", statsSeq, statsPar)
	}
	seq, err := wppfile.EncodeCompactedWorkers(twSeq, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := wppfile.EncodeCompactedWorkers(twPar, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq, par) {
		t.Error("CompactOpts(Workers:4) produced a different TWPP than Compact")
	}
}

// TestOpenFileOptsCache exercises the decode cache through the public
// facade: repeat extractions hit, and CacheStats reports them.
func TestOpenFileOptsCache(t *testing.T) {
	w := buildWorkloadScale(t, "130.li-like", 0.02)
	tw, _ := twpp.Compact(w)
	path := t.TempDir() + "/t.twpp"
	if err := twpp.WriteFileOpts(path, tw, twpp.CompactOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	f, err := twpp.OpenFileOpts(path, twpp.OpenOptions{CacheEntries: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fn := f.Functions()[0]
	for i := 0; i < 3; i++ {
		if _, err := f.ExtractFunction(fn); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := f.CacheStats()
	if misses != 1 || hits != 2 {
		t.Errorf("hits=%d misses=%d, want 2/1", hits, misses)
	}
}

// randWPP builds a pseudo-random WPP: nested calls across a handful of
// functions with random block sequences, exercising dedup, DBB
// discovery and DCG encoding on shapes the profiles don't cover.
func randWPP(rng *rand.Rand) *trace.RawWPP {
	names := []string{"main", "a", "b", "c", "d", "e"}
	b := trace.NewBuilder(names)
	b.EnterCall(0)
	var gen func(depth int)
	gen = func(depth int) {
		steps := 1 + rng.Intn(24)
		for i := 0; i < steps; i++ {
			b.Block(cfg.BlockID(1 + rng.Intn(10)))
			if depth < 4 && rng.Intn(5) == 0 {
				b.EnterCall(cfg.FuncID(1 + rng.Intn(len(names)-1)))
				gen(depth + 1)
				b.ExitCall()
			}
		}
	}
	gen(0)
	b.ExitCall()
	return b.Finish()
}

// FuzzParallelCompactDeterminism fuzzes random WPP shapes through the
// parallel pipeline, requiring byte-identical output at every worker
// count. The seeded corpus runs in ordinary `go test`.
func FuzzParallelCompactDeterminism(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		w := randWPP(rand.New(rand.NewSource(seed)))
		want, wantStats := encodePipeline(t, w, 1)
		for _, workers := range []int{2, 8} {
			got, gotStats := encodePipeline(t, w, workers)
			if gotStats != wantStats {
				t.Fatalf("seed %d workers=%d: stats diverge", seed, workers)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d workers=%d: bytes diverge", seed, workers)
			}
		}
	})
}
