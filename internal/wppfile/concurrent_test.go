package wppfile

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/core"
)

// writeSample serializes a sample TWPP and returns its path plus the
// in-memory form for comparison.
func writeSample(t *testing.T, calls int, seed int64) (string, *core.TWPP) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	_, tw := buildTWPP(t, rng, calls)
	p := filepath.Join(t.TempDir(), "c.twpp")
	if err := WriteCompacted(p, tw); err != nil {
		t.Fatal(err)
	}
	return p, tw
}

// TestConcurrentExtraction hammers one CompactedFile from 16
// goroutines, with the decode cache off and on, verifying the
// concurrency contract (run under -race via `make race`). Every
// extraction must decode the same blocks a sequential reader sees.
func TestConcurrentExtraction(t *testing.T) {
	path, _ := writeSample(t, 40, 200)
	for _, cacheEntries := range []int{0, 2, 64} {
		cf, err := OpenCompactedOptions(path, OpenOptions{CacheEntries: cacheEntries})
		if err != nil {
			t.Fatal(err)
		}
		fns := cf.Functions()
		// Sequential reference extraction.
		want := make(map[cfg.FuncID]*core.FunctionTWPP)
		for _, fn := range fns {
			ft, err := cf.ExtractFunction(fn)
			if err != nil {
				t.Fatal(err)
			}
			want[fn] = ft
		}

		const goroutines = 16
		const iters = 50
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < iters; i++ {
					fn := fns[rng.Intn(len(fns))]
					ft, err := cf.ExtractFunction(fn)
					if err != nil {
						errs <- err
						return
					}
					if ft.Fn != fn || len(ft.Traces) != len(want[fn].Traces) {
						t.Errorf("cache=%d: extracted %d traces for fn %d, want %d",
							cacheEntries, len(ft.Traces), fn, len(want[fn].Traces))
						return
					}
					// Mix in concurrent metadata reads.
					if _, _, _, err := cf.SectionSizes(); err != nil {
						errs <- err
						return
					}
					if i%10 == 0 {
						if _, err := cf.ReadDCG(); err != nil {
							errs <- err
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("cache=%d: %v", cacheEntries, err)
		}

		hits, misses := cf.CacheStats()
		if cacheEntries == 0 && (hits != 0 || misses != 0) {
			t.Errorf("cache disabled but stats = %d/%d", hits, misses)
		}
		if cacheEntries >= len(fns) && hits == 0 {
			t.Errorf("cache=%d: expected hits after %d extractions", cacheEntries, goroutines*iters)
		}
		if err := cf.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecodeCacheCounters asserts exact hit/miss accounting on a
// deterministic single-goroutine access pattern.
func TestDecodeCacheCounters(t *testing.T) {
	path, _ := writeSample(t, 20, 201)
	cf, err := OpenCompactedOptions(path, OpenOptions{CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	fns := cf.Functions()
	if len(fns) < 2 {
		t.Fatalf("want >= 2 functions, got %v", fns)
	}

	// First touch of each function misses; every repeat hits.
	for _, fn := range fns {
		if _, err := cf.ExtractFunction(fn); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := cf.CacheStats()
	if hits != 0 || misses != uint64(len(fns)) {
		t.Fatalf("after cold pass: hits=%d misses=%d, want 0/%d", hits, misses, len(fns))
	}
	const repeats = 3
	for r := 0; r < repeats; r++ {
		for _, fn := range fns {
			if _, err := cf.ExtractFunction(fn); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, misses = cf.CacheStats()
	if hits != uint64(repeats*len(fns)) || misses != uint64(len(fns)) {
		t.Fatalf("after warm passes: hits=%d misses=%d, want %d/%d",
			hits, misses, repeats*len(fns), len(fns))
	}

	// Cached extraction returns an identical block.
	cold, err := OpenCompacted(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	for _, fn := range fns {
		warmFt, err := cf.ExtractFunction(fn)
		if err != nil {
			t.Fatal(err)
		}
		coldFt, err := cold.ExtractFunction(fn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warmFt, coldFt) {
			t.Fatalf("cached block for fn %d differs from fresh decode", fn)
		}
	}
}

// TestDecodeCacheEviction exercises LRU eviction with a cache smaller
// than the function count: everything must still decode correctly and
// misses must exceed the cold-pass count.
func TestDecodeCacheEviction(t *testing.T) {
	path, _ := writeSample(t, 30, 202)
	cf, err := OpenCompactedOptions(path, OpenOptions{CacheEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	fns := cf.Functions()
	for pass := 0; pass < 3; pass++ {
		for _, fn := range fns {
			ft, err := cf.ExtractFunction(fn)
			if err != nil {
				t.Fatal(err)
			}
			if ft.Fn != fn {
				t.Fatalf("got fn %d, want %d", ft.Fn, fn)
			}
		}
	}
	hits, misses := cf.CacheStats()
	if hits+misses != uint64(3*len(fns)) {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, 3*len(fns))
	}
	// Repeated extraction of one function must hit even with a single
	// entry of capacity.
	before, _ := cf.CacheStats()
	if _, err := cf.ExtractFunction(fns[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.ExtractFunction(fns[0]); err != nil {
		t.Fatal(err)
	}
	after, _ := cf.CacheStats()
	if after == before {
		t.Error("expected at least one hit on repeated extraction")
	}
}

// TestEncodeCompactedWorkersDeterministic verifies the pooled-buffer
// concurrent encoder is byte-identical to the sequential one.
func TestEncodeCompactedWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	_, tw := buildTWPP(t, rng, 50)
	want, err := EncodeCompactedWorkers(tw, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		got, err := EncodeCompactedWorkers(tw, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: encoded bytes differ from sequential", workers)
		}
	}
}
