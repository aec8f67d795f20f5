package wpp

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"twpp/internal/cfg"
)

// fuzzTrace maps fuzz bytes to a trace of non-negative block ids (the
// domain every format carries; id -1 is the reference's multi
// sentinel). data[0] picks the id domain and alphabet size, each later
// byte one block: a small dense alphabet from 0, sparse ids, ids just
// below 2^32, or ids spread over [2^31, 2^32). core's kernel_test.go
// holds the same generator for FuzzFromPath.
func fuzzTrace(data []byte) PathTrace {
	if len(data) == 0 {
		return PathTrace{}
	}
	mode, alpha := data[0]%4, 1+int(data[0]/4)%12
	tr := make(PathTrace, len(data)-1)
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

// FuzzCompactTrace checks the dense DBB kernel against the map-based
// reference it replaced: same compacted trace, same dictionary.
func FuzzCompactTrace(f *testing.F) {
	for _, s := range [][]byte{
		{},
		{4 * 2, 5},                          // single block
		{4 * 2, 1, 1, 1, 1},                 // self-loop
		{4*3 + 2, 1, 2, 1, 2, 1},            // loop ending mid-chain, ids near 2^32
		{4 * 3, 2, 3, 1, 2, 3},              // re-enters its first block
		{4*3 + 1, 0, 1, 2, 0, 1, 2, 0},      // sparse, re-enters its first block
		{4*11 + 3, 1, 2, 7, 8, 9, 6, 2, 10}, // ids in [2^31, 2^32), chain into a loop
		{4 * 11, 1, 2, 7, 8, 9, 6, 2, 7, 8, 9, 6, 2, 7, 8, 9, 6, 10}, // the paper's loop
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzTrace(data)
		gotTr, gotDict := compactTrace(tr)
		wantTr, wantDict := compactTraceRef(tr)
		if !reflect.DeepEqual(gotTr, wantTr) || !reflect.DeepEqual(gotDict, wantDict) {
			t.Fatalf("trace %v:\n got %v %v\nwant %v %v", tr, gotTr, gotDict, wantTr, wantDict)
		}
	})
}

// TestCompactTraceMatchesReference runs the fuzz property over a
// seeded sweep of random traces in every id domain, so plain `go test`
// covers far more shapes than the seed corpus.
func TestCompactTraceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20000; trial++ {
		data := make([]byte, 1+rng.Intn(48))
		rng.Read(data)
		tr := fuzzTrace(data)
		gotTr, gotDict := compactTrace(tr)
		wantTr, wantDict := compactTraceRef(tr)
		if !reflect.DeepEqual(gotTr, wantTr) || !reflect.DeepEqual(gotDict, wantDict) {
			t.Fatalf("trial %d, trace %v:\n got %v %v\nwant %v %v", trial, tr, gotTr, gotDict, wantTr, wantDict)
		}
	}
}

// TestNumberingGrowsAndResets drives one Numbering through traces that
// force table growth and then shrink back, and across a wrap of its
// generation stamp, checking every numbering against a map.
func TestNumberingGrowsAndResets(t *testing.T) {
	var n Numbering
	rng := rand.New(rand.NewSource(5))
	for step, distinct := range []int{1, 3, 40, 500, 7, 2000, 2, 9, 30} {
		if step == 7 {
			n.gen = math.MaxUint32 // the next two traces wrap the stamp
		}
		tr := make(PathTrace, 3*distinct)
		for i := range tr {
			tr[i] = cfg.BlockID(rng.Int63n(1 << 40))
			if i >= distinct {
				tr[i] = tr[rng.Intn(distinct)]
			}
		}
		n.Number(tr)
		local := map[cfg.BlockID]int32{}
		count := map[cfg.BlockID]int32{}
		var ids []cfg.BlockID
		for _, id := range tr {
			if _, ok := local[id]; !ok {
				local[id] = int32(len(ids))
				ids = append(ids, id)
			}
			count[id]++
		}
		if !reflect.DeepEqual(n.IDs, ids) {
			t.Fatalf("%d distinct: IDs differ", distinct)
		}
		for i, id := range tr {
			if n.Local[i] != local[id] {
				t.Fatalf("%d distinct: Local[%d] = %d, want %d", distinct, i, n.Local[i], local[id])
			}
		}
		for j, id := range ids {
			if n.Count[j] != count[id] {
				t.Fatalf("%d distinct: Count[%d] = %d, want %d", distinct, j, n.Count[j], count[id])
			}
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

// TestCompactTraceHostileIDsAllocs pins that the DBB kernel's cost is
// O(trace), not O(max block id): a warm call on 16 blocks near 2^32,
// the top of what trace.Demux passes through, allocates far less than
// any table indexed by raw id would.
func TestCompactTraceHostileIDsAllocs(t *testing.T) {
	tr := make(PathTrace, 16)
	for i := range tr {
		tr[i] = math.MaxUint32 - cfg.BlockID(i%5)
	}
	if got := bytesPerRun(100, func() { compactTrace(tr) }); got >= 64<<10 {
		t.Errorf("warm compactTrace on 16 hostile ids allocates %d bytes per call, want < 64 KiB", got)
	}
}
