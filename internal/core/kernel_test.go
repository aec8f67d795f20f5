package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// fuzzPath maps fuzz bytes to a path of non-negative block ids (the
// domain every format carries). data[0] picks the id domain and
// alphabet size, each later byte one block: a small dense alphabet
// from 0, sparse ids, ids just below 2^32, or ids spread over
// [2^31, 2^32). wpp's kernel_test.go holds the same generator for
// FuzzCompactTrace.
func fuzzPath(data []byte) wpp.PathTrace {
	if len(data) == 0 {
		return wpp.PathTrace{}
	}
	mode, alpha := data[0]%4, 1+int(data[0]/4)%12
	tr := make(wpp.PathTrace, len(data)-1)
	for i, b := range data[1:] {
		j := cfg.BlockID(int(b) % alpha)
		switch mode {
		case 0:
			tr[i] = j
		case 1:
			tr[i] = 3 + 104729*j
		case 2:
			tr[i] = math.MaxUint32 - j
		default:
			tr[i] = 1<<31 + j<<26
		}
	}
	return tr
}

// FuzzFromPath checks the counting-sort timestamp inversion against
// the map-based reference it replaced. Seeds cover self-loops,
// single-block paths, paths that re-enter their first block, and each
// id domain.
func FuzzFromPath(f *testing.F) {
	for _, s := range [][]byte{
		{},
		{4 * 2, 5},
		{4 * 2, 1, 1, 1, 1},
		{4*3 + 2, 1, 2, 1, 2, 1},
		{4 * 3, 2, 3, 1, 2, 3},
		{4*3 + 1, 0, 1, 2, 0, 1, 2, 0},
		{4*11 + 3, 1, 2, 7, 8, 9, 6, 2, 10},
		{4 * 11, 1, 2, 2, 2, 6, 2, 7, 2, 2, 6, 10},
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := fuzzPath(data)
		if got, want := FromPath(path), fromPathRef(path); !reflect.DeepEqual(got, want) {
			t.Fatalf("path %v:\n got %+v\nwant %+v", path, got, want)
		}
	})
}

// TestFromPathMatchesReference runs the fuzz property over a seeded
// sweep of random paths in every id domain.
func TestFromPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20000; trial++ {
		data := make([]byte, 1+rng.Intn(64))
		rng.Read(data)
		path := fuzzPath(data)
		if got, want := FromPath(path), fromPathRef(path); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d, path %v:\n got %+v\nwant %+v", trial, path, got, want)
		}
	}
}

// bytesPerRun reports the average heap bytes fn allocates per call,
// after one warm-up call.
func bytesPerRun(runs int, fn func()) uint64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestFromPathHostileIDsAllocs pins that inversion costs O(path), not
// O(max block id): a warm call on 16 blocks near 2^32 allocates far
// less than any table indexed by raw id would.
func TestFromPathHostileIDsAllocs(t *testing.T) {
	path := make(wpp.PathTrace, 16)
	for i := range path {
		path[i] = math.MaxUint32 - cfg.BlockID(i%5)
	}
	if got := bytesPerRun(100, func() { FromPath(path) }); got >= 64<<10 {
		t.Errorf("warm FromPath on 16 hostile ids allocates %d bytes per call, want < 64 KiB", got)
	}
}

// TestStreamHostileIDsMatchesBatch streams a WPP whose block ids sit
// just below 2^32 through trace.Demux into a StreamCompactor — the
// path ingest takes — and checks the result equals the batch pipeline
// on the same WPP.
func TestStreamHostileIDsMatchesBatch(t *testing.T) {
	const top = math.MaxUint32
	b := trace.NewBuilder([]string{"main", "f"})
	b.EnterCall(0)
	b.Block(top)
	for i := 0; i < 4; i++ {
		b.Block(top - 1)
		b.EnterCall(1)
		for _, id := range []cfg.BlockID{top - 7, top - 8, top - 9, top - 8, top - 9, top - 10} {
			b.Block(id - cfg.BlockID(i%2))
		}
		b.ExitCall()
		b.Block(top - 2)
	}
	b.Block(top - 3)
	b.ExitCall()
	w := b.Finish()

	s := NewStreamCompactor(w.FuncNames)
	d := &trace.Demux{Sink: s, NumFuncs: len(w.FuncNames)}
	for _, sym := range w.Linear() {
		if err := d.Feed(sym); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c, wantStats := wpp.CompactWorkers(w, 2)
	want := FromCompactedWorkers(c, 2)
	if gotStats != wantStats {
		t.Errorf("stats: stream %+v != batch %+v", gotStats, wantStats)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed TWPP differs from batch")
	}
	if len(want.Funcs[1].Traces) != 2 || want.Funcs[1].CallCount != 4 {
		t.Errorf("f: %d unique traces over %d calls, want 2 over 4", len(want.Funcs[1].Traces), want.Funcs[1].CallCount)
	}
	if got := want.Funcs[0].Traces[0].Blocks[0].Block; got != top {
		t.Errorf("main's first block = %d, want %d", got, cfg.BlockID(top))
	}
}
