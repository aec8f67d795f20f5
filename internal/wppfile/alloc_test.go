package wppfile_test

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/storage"
	"twpp/internal/testkit"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// writeCorpusImage writes a compacted image of the given shape and
// returns its path.
func writeCorpusImage(t *testing.T, shape testkit.Shape) string {
	t.Helper()
	w := testkit.Generate(testkit.Config{Seed: 11, Shape: shape})
	_, compacted, err := testkit.EncodeBoth(w)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.twpp")
	if err := os.WriteFile(path, compacted, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExtractIntoZeroAllocs is the regression guard for the tentpole
// zero-allocation property: once an ExtractBuffer has decoded a block
// shape, re-extracting through it performs zero heap allocations.
func TestExtractIntoZeroAllocs(t *testing.T) {
	for _, kind := range []storage.Kind{storage.KindFile, storage.KindMemory} {
		t.Run(kind.String(), func(t *testing.T) {
			path := writeCorpusImage(t, testkit.Irregular)
			cf, err := wppfile.OpenCompactedOptions(path, wppfile.OpenOptions{Backend: kind})
			if err != nil {
				t.Fatal(err)
			}
			defer cf.Close()
			buf := wppfile.GetExtractBuffer()
			defer wppfile.PutExtractBuffer(buf)
			fns := cf.Functions()
			if len(fns) == 0 {
				t.Fatal("corpus has no functions")
			}
			// Warm: grow the buffer's arenas and dictionary maps to the
			// corpus's largest shapes.
			for round := 0; round < 3; round++ {
				for _, fn := range fns {
					if _, err := cf.ExtractFunctionInto(fn, buf); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, fn := range fns {
				fn := fn
				n := testing.AllocsPerRun(100, func() {
					if _, err := cf.ExtractFunctionInto(fn, buf); err != nil {
						t.Fatal(err)
					}
				})
				if n != 0 {
					t.Errorf("fn %d (%s): %.1f allocs/op on warm pooled extract, want 0", fn, kind, n)
				}
			}
		})
	}
}

// TestExtractCacheHitZeroAllocs guards the other warm path: a decode
// cache hit in ExtractFunction must not allocate (the lock-free read
// path loads a snapshot and touches only shard-local state).
func TestExtractCacheHitZeroAllocs(t *testing.T) {
	path := writeCorpusImage(t, testkit.Periodic)
	cf, err := wppfile.OpenCompactedOptions(path, wppfile.OpenOptions{CacheEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	fns := cf.Functions()
	for _, fn := range fns {
		if _, err := cf.ExtractFunction(fn); err != nil {
			t.Fatal(err)
		}
	}
	for _, fn := range fns {
		fn := fn
		n := testing.AllocsPerRun(100, func() {
			if _, err := cf.ExtractFunction(fn); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("fn %d: %.1f allocs/op on warm cached extract, want 0", fn, n)
		}
	}
	hits, _ := cf.CacheStats()
	if hits == 0 {
		t.Error("cache reported no hits; the test did not exercise the hit path")
	}
}

// TestExtractIntoConcurrent runs 16 goroutines, each with a private
// ExtractBuffer, against one shared CompactedFile (run under -race via
// make race) and checks every pooled result against the allocating
// path.
func TestExtractIntoConcurrent(t *testing.T) {
	path := writeCorpusImage(t, testkit.DeepRecursion)
	cf, err := wppfile.OpenCompactedOptions(path, wppfile.OpenOptions{CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	fns := cf.Functions()

	ref, err := wppfile.OpenCompactedOptions(path, wppfile.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := wppfile.GetExtractBuffer()
			defer wppfile.PutExtractBuffer(buf)
			for i := 0; i < 40; i++ {
				fn := fns[(g+i)%len(fns)]
				ift, err := cf.ExtractFunctionInto(fn, buf)
				if err != nil {
					errs <- err
					return
				}
				want, err := ref.ExtractFunction(fn)
				if err != nil {
					errs <- err
					return
				}
				if perr := testkit.EqualFunctionTWPP(want, ift); perr != nil {
					errs <- perr
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// dictSink keeps the maps TestOwnedExtractAllocs builds on the heap,
// as the owned copy's maps are.
var dictSink wpp.Dictionary

// Owned extraction is a pooled decode plus one exact copy: on a warm
// pool it allocates at most eight objects (the result header and its
// Dicts, Traces, DictOf, trace, block-times, entry and chain arrays)
// plus what building each dictionary's map costs, whatever the
// block's trace and block counts.
func TestOwnedExtractAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled paths are random under -race")
	}
	const fixed = 8
	w := testkit.Generate(testkit.Config{Seed: 11, Shape: testkit.Irregular, Calls: 400})
	_, img, err := testkit.EncodeBoth(w)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := wppfile.OpenCompactedBytes(img, wppfile.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	maxTraces := 0
	for _, fn := range cf.Functions() {
		ft, err := cf.ExtractFunction(fn)
		if err != nil {
			t.Fatal(err)
		}
		maxTraces = max(maxTraces, len(ft.Traces))
		maps := testing.AllocsPerRun(20, func() {
			for _, d := range ft.Dicts {
				m := make(wpp.Dictionary, len(d))
				for h, chain := range d {
					m[h] = chain
				}
				dictSink = m
			}
		})
		n := testing.AllocsPerRun(20, func() {
			if _, err := cf.ExtractFunction(fn); err != nil {
				t.Fatal(err)
			}
		})
		if n-maps > fixed || n-maps < 1 {
			t.Errorf("fn %d (%d traces, %d dictionaries): %.0f allocs per owned extract, %.0f of them maps; want 1..%d besides the maps",
				fn, len(ft.Traces), len(ft.Dicts), n, maps, fixed)
		}
	}
	if maxTraces <= fixed {
		t.Fatalf("largest block has %d traces; the corpus cannot tell per-trace allocation from a fixed count", maxTraces)
	}
}

// ReadDCG decodes into pooled scratch and fills four columns sized by
// a counting pass, so the objects it allocates do not grow with the
// call count.
func TestReadDCGAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled paths are random under -race")
	}
	var allocs []float64
	for _, calls := range []int{8, 800} {
		w := testkit.Generate(testkit.Config{Seed: 5, Shape: testkit.Irregular, Calls: calls})
		_, img, err := testkit.EncodeBoth(w)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := wppfile.OpenCompactedBytes(img, wppfile.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cf.ReadDCG(); err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if _, err := cf.ReadDCG(); err != nil {
				t.Fatal(err)
			}
		}))
		cf.Close()
	}
	if allocs[1] > allocs[0] {
		t.Errorf("ReadDCG allocates %.0f objects at 8 calls but %.0f at 800", allocs[0], allocs[1])
	}
}

// The flat DCG's footprint: four columns of one word per call, so a
// ReadDCG of an 8,000-call DCG allocates at most 40 bytes per call
// (the pointer tree it replaced took 84).
func TestReadDCGFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled paths are random under -race")
	}
	w := testkit.Generate(testkit.Config{Seed: 5, Shape: testkit.Irregular, Calls: 8000})
	_, img, err := testkit.EncodeBoth(w)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := wppfile.OpenCompactedBytes(img, wppfile.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	// One P, as in testing.AllocsPerRun, so the warm-up's pooled
	// scratch is not stranded on another P's private slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := cf.ReadDCG(); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := cf.ReadDCG(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(w.NumCalls())
	if perCall > 40 {
		t.Errorf("ReadDCG allocates %.1f bytes per call over %d calls, want at most 40", perCall, w.NumCalls())
	}
}

// TestAppendTraceRecordZeroAllocs pins that encoding a trace record
// into a buffer with room allocates nothing: every entry's varints go
// straight into the buffer, with no per-block scratch slice.
func TestAppendTraceRecordZeroAllocs(t *testing.T) {
	tr := core.FromPath(wpp.PathTrace{1, 2, 3, 2, 3, 2, 3, 4, 1, 5, 1, 5, 1})
	buf := wppfile.AppendTraceRecord(nil, 0, tr)
	if n := testing.AllocsPerRun(100, func() { buf = wppfile.AppendTraceRecord(buf[:0], 0, tr) }); n != 0 {
		t.Errorf("AppendTraceRecord allocates %.1f times per record, want 0", n)
	}
}

// TraceRecordLen sizes a record exactly as AppendTraceRecord encodes
// it, on every trace of the v1 fixtures, of a seeded generator sweep,
// and of traces whose ids, lengths and dictionary indices need
// multi-byte varints.
func TestTraceRecordLenMatchesAppend(t *testing.T) {
	var twpps []*core.TWPP
	fixtures, err := filepath.Glob(filepath.Join("testdata", "v1", "*.twpp"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("v1 fixtures: %v (%d found)", err, len(fixtures))
	}
	for _, p := range fixtures {
		cf, err := wppfile.OpenCompacted(p)
		if err != nil {
			t.Fatal(err)
		}
		tw, err := cf.ReadAll()
		cf.Close()
		if err != nil {
			t.Fatal(err)
		}
		twpps = append(twpps, tw)
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, w := range testkit.Corpus(seed * 1000) {
			c, _ := wpp.Compact(w)
			twpps = append(twpps, core.FromCompacted(c))
		}
	}
	var buf []byte
	check := func(dictIdx int, tr *core.Trace) {
		buf = wppfile.AppendTraceRecord(buf[:0], dictIdx, tr)
		if got := wppfile.TraceRecordLen(dictIdx, tr); got != len(buf) {
			t.Fatalf("TraceRecordLen(%d, %d-block trace) = %d, AppendTraceRecord wrote %d bytes", dictIdx, len(tr.Blocks), got, len(buf))
		}
	}
	records := 0
	for _, tw := range twpps {
		for f := range tw.Funcs {
			ft := &tw.Funcs[f]
			for i, tr := range ft.Traces {
				check(ft.DictOf[i], tr)
				records++
			}
		}
	}
	long := make(wpp.PathTrace, 20000)
	for i := range long {
		long[i] = cfg.BlockID(1<<31 + i%300)
	}
	for _, dictIdx := range []int{0, 127, 128, 1 << 20, 1<<62 + 5} {
		check(dictIdx, core.FromPath(long))
	}
	if records < 1000 {
		t.Fatalf("checked only %d records", records)
	}
}
