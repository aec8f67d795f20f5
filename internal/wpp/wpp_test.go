package wpp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"twpp/internal/cfg"
	"twpp/internal/trace"
)

// paperWPP builds the running example of the paper's Figures 1-5:
// main's loop calls f five times; f takes one of two paths, each with
// a 3-iteration inner loop.
func paperWPP() *trace.RawWPP {
	b := trace.NewBuilder([]string{"main", "f"})
	pathA := []cfg.BlockID{1, 2, 7, 8, 9, 6, 2, 7, 8, 9, 6, 2, 7, 8, 9, 6, 10}
	pathB := []cfg.BlockID{1, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 10}
	calls := [][]cfg.BlockID{pathA, pathA, pathB, pathA, pathB}

	b.EnterCall(0)
	b.Block(1)
	for _, tr := range calls {
		b.Block(2)
		b.Block(3)
		b.EnterCall(1)
		for _, id := range tr {
			b.Block(id)
		}
		b.ExitCall()
		b.Block(4)
	}
	b.Block(6)
	b.ExitCall()
	return b.Finish()
}

func TestCompactPaperExample(t *testing.T) {
	w := paperWPP()
	c, stats := Compact(w)

	// Redundancy removal: f's 5 calls produce exactly 2 unique traces.
	f := &c.Funcs[1]
	if len(f.Traces) != 2 {
		t.Fatalf("f unique traces = %d, want 2", len(f.Traces))
	}
	if f.CallCount != 5 {
		t.Errorf("f call count = %d, want 5", f.CallCount)
	}
	main := &c.Funcs[0]
	if len(main.Traces) != 1 || main.CallCount != 1 {
		t.Errorf("main: %d traces, %d calls", len(main.Traces), main.CallCount)
	}

	// Dictionary creation: the paper's Figure 5 compacts f's two
	// traces to 1.2.2.2.6.10 style sequences with chains 2.7.8.9 /
	// 2.3.4.5 in the dictionaries. Expanding must reproduce the
	// originals.
	pathA := PathTrace{1, 2, 7, 8, 9, 6, 2, 7, 8, 9, 6, 2, 7, 8, 9, 6, 10}
	pathB := PathTrace{1, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 10}
	got0 := f.Expand(0)
	got1 := f.Expand(1)
	if !reflect.DeepEqual(got0, pathA) || !reflect.DeepEqual(got1, pathB) {
		t.Errorf("expanded traces mismatch:\n%v\n%v", got0, got1)
	}
	// The chains must actually compact: compacted traces shorter than
	// the originals, with the loop body folded into the head id 2.
	for i, tr := range f.Traces {
		if len(tr) >= f.OrigLen[i] {
			t.Errorf("trace %d not compacted: %v (orig len %d)", i, tr, f.OrigLen[i])
		}
	}
	// The maximal chain through the loop body is 2.7.8.9.6: block 6 is
	// always entered from 9 and the chain is always exited at 6 (which
	// then branches back to 2 or on to 10).
	dict0 := f.Dicts[f.DictOf[0]]
	if chain, ok := dict0[2]; !ok || !reflect.DeepEqual(chain, PathTrace{2, 7, 8, 9, 6}) {
		t.Errorf("dict chain for 2 = %v, want [2 7 8 9 6]", chain)
	}
	// Compacted form of pathA: 1 [27896] [27896] [27896] 10 — the same
	// shape as the paper's main-trace example 1.2.2.2.2.2.6.
	if want := (PathTrace{1, 2, 2, 2, 10}); !reflect.DeepEqual(f.Traces[0], want) {
		t.Errorf("compacted trace = %v, want %v", f.Traces[0], want)
	}

	// Stats: raw = 5*17+12 blocks... main trace: 1 + 5*(2,3,4) + 6 =
	// 17 blocks; f: 5*17 = 85. Total 102 blocks -> 408 bytes.
	if stats.RawTraceBytes != 4*(17+85) {
		t.Errorf("RawTraceBytes = %d", stats.RawTraceBytes)
	}
	// After redundancy: main 17 + 2 unique f traces of 17 = 51 blocks.
	if stats.AfterRedundancy != 4*51 {
		t.Errorf("AfterRedundancy = %d, want %d", stats.AfterRedundancy, 4*51)
	}
	if stats.UniqueTraces != 3 || stats.Calls != 6 {
		t.Errorf("UniqueTraces=%d Calls=%d", stats.UniqueTraces, stats.Calls)
	}
	if stats.AfterDictionary >= stats.AfterRedundancy {
		t.Errorf("dictionaries did not shrink: %d >= %d", stats.AfterDictionary, stats.AfterRedundancy)
	}
}

func TestReconstructPaperExample(t *testing.T) {
	w := paperWPP()
	c, _ := Compact(w)
	back := c.Reconstruct()
	if !trace.Equal(w, back) {
		t.Errorf("reconstruction mismatch:\n got %v\nwant %v", back.Linear(), w.Linear())
	}
}

func TestCompactTraceEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		in   PathTrace
	}{
		{"empty", PathTrace{}},
		{"single", PathTrace{1}},
		{"straight line", PathTrace{1, 2, 3, 4, 5}},
		{"pure loop pair", PathTrace{1, 2, 1, 2}},
		{"loop ending mid-chain", PathTrace{1, 2, 1, 2, 1}},
		{"self loop", PathTrace{1, 1, 1, 1}},
		{"first block re-entered", PathTrace{2, 3, 1, 2, 3}},
		{"last block chain head", PathTrace{1, 2, 3, 1, 2}},
		{"branchy", PathTrace{1, 2, 4, 1, 3, 4, 1, 2, 4}},
		{"nested repetition", PathTrace{1, 2, 3, 2, 3, 2, 3, 4, 1, 2, 3, 2, 3, 4}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			compacted, dict := compactTrace(c.in)
			// Expand back.
			var out PathTrace
			for _, id := range compacted {
				if chain, ok := dict[id]; ok {
					out = append(out, chain...)
				} else {
					out = append(out, id)
				}
			}
			if len(c.in) == 0 && len(out) == 0 {
				return
			}
			if !reflect.DeepEqual(out, c.in) {
				t.Errorf("round trip: got %v, want %v (compacted %v, dict %v)",
					out, c.in, compacted, dict)
			}
			// Chains are length >= 2 and disjoint from each other by
			// construction of heads; every chain interior block never
			// appears in the compacted trace.
			interior := map[cfg.BlockID]bool{}
			for _, chain := range dict {
				if len(chain) < 2 {
					t.Errorf("dictionary chain of length %d", len(chain))
				}
				for _, id := range chain[1:] {
					interior[id] = true
				}
			}
			for _, id := range compacted {
				if interior[id] {
					t.Errorf("interior block %d appears in compacted trace %v (dict %v)", id, compacted, dict)
				}
			}
		})
	}
}

func TestStraightLineCollapsesToHead(t *testing.T) {
	compacted, dict := compactTrace(PathTrace{1, 2, 3, 4, 5})
	if !reflect.DeepEqual(compacted, PathTrace{1}) {
		t.Errorf("compacted = %v, want [1]", compacted)
	}
	if !reflect.DeepEqual(dict[1], PathTrace{1, 2, 3, 4, 5}) {
		t.Errorf("dict = %v", dict)
	}
}

func TestLoopBodyCollapses(t *testing.T) {
	// 1 (2 3 4)x3 5: chain (2,3,4) repeated; compacted 1 2 2 2 5...
	// and 1,5 may merge into chains with the loop structure: verify by
	// expansion only, plus that 3 and 4 vanish.
	in := PathTrace{1, 2, 3, 4, 2, 3, 4, 2, 3, 4, 5}
	compacted, dict := compactTrace(in)
	for _, id := range compacted {
		if id == 3 || id == 4 {
			t.Errorf("interior ids survive: %v", compacted)
		}
	}
	var out PathTrace
	for _, id := range compacted {
		if chain, ok := dict[id]; ok {
			out = append(out, chain...)
		} else {
			out = append(out, id)
		}
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round trip failed: %v", out)
	}
}

// randomTrace builds a random path trace that looks like control flow
// (limited alphabet, loopy structure).
func randomTrace(rng *rand.Rand, n int) PathTrace {
	alphabet := 2 + rng.Intn(8)
	tr := make(PathTrace, n)
	for i := range tr {
		tr[i] = cfg.BlockID(1 + rng.Intn(alphabet))
	}
	return tr
}

func TestCompactTraceRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 500; trial++ {
		in := randomTrace(rng, 1+rng.Intn(60))
		compacted, dict := compactTrace(in)
		var out PathTrace
		for _, id := range compacted {
			if chain, ok := dict[id]; ok {
				out = append(out, chain...)
			} else {
				out = append(out, id)
			}
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("trial %d: round trip failed\n in %v\nout %v\ncompacted %v\ndict %v",
				trial, in, out, compacted, dict)
		}
	}
}

func TestCompactTraceQuick(t *testing.T) {
	f := func(raw []byte) bool {
		in := make(PathTrace, len(raw))
		for i, b := range raw {
			in[i] = cfg.BlockID(1 + b%6)
		}
		compacted, dict := compactTrace(in)
		var out PathTrace
		for _, id := range compacted {
			if chain, ok := dict[id]; ok {
				out = append(out, chain...)
			} else {
				out = append(out, id)
			}
		}
		if len(in) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// randomWPP builds a random multi-call WPP.
func randomWPP(rng *rand.Rand) *trace.RawWPP {
	numFuncs := 2 + rng.Intn(4)
	names := make([]string, numFuncs)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	b := trace.NewBuilder(names)
	var emit func(f, depth int)
	emit = func(f, depth int) {
		b.EnterCall(cfg.FuncID(f))
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			b.Block(cfg.BlockID(1 + rng.Intn(6)))
			if depth < 3 && rng.Intn(6) == 0 {
				emit(rng.Intn(numFuncs), depth+1)
			}
		}
		b.ExitCall()
	}
	emit(0, 0)
	return b.Finish()
}

func TestCompactReconstructRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		w := randomWPP(rng)
		c, stats := Compact(w)
		if stats.AfterRedundancy > stats.RawTraceBytes {
			t.Fatalf("trial %d: redundancy removal grew the trace", trial)
		}
		back := c.Reconstruct()
		if !trace.Equal(w, back) {
			t.Fatalf("trial %d: reconstruction mismatch", trial)
		}
	}
}

func TestUniqueTraceDistribution(t *testing.T) {
	w := paperWPP()
	c, _ := Compact(w)
	uniques, calls := c.UniqueTraceDistribution()
	if len(uniques) != 2 || len(calls) != 2 {
		t.Fatalf("distribution sizes: %v %v", uniques, calls)
	}
	totalCalls := calls[0] + calls[1]
	if totalCalls != 6 {
		t.Errorf("total calls = %d, want 6", totalCalls)
	}
}

func TestDictionaryWordsAndIdentity(t *testing.T) {
	d1 := Dictionary{2: PathTrace{2, 7, 8, 9}}
	d2 := Dictionary{2: PathTrace{2, 7, 8, 9}}
	d3 := Dictionary{2: PathTrace{2, 3, 4, 5}}
	if HashDict(d1) != HashDict(d2) || !DictsEqual(d1, d2) {
		t.Error("equal dictionaries have different identities")
	}
	if DictsEqual(d1, d3) {
		t.Error("different dictionaries compare equal")
	}
	if HashDict(d1) == HashDict(d3) {
		t.Error("different dictionaries share a hash (FNV collision in a 4-word input)")
	}
	// A decoded dictionary may hold an empty chain; a head with one is
	// still a different dictionary from another head with one.
	if DictsEqual(Dictionary{5: PathTrace{}}, Dictionary{6: PathTrace{}}) {
		t.Error("dictionaries with different heads compare equal")
	}
	// Map iteration order varies from one range loop to the next, so a
	// hash that depended on it would disagree with itself here.
	d4 := Dictionary{2: PathTrace{2, 7}, 30: PathTrace{30, 31, 32}, 40: PathTrace{40, 2}}
	want := HashDict(d4)
	for range 20 {
		if HashDict(d4) != want {
			t.Fatal("a three-chain dictionary's hash depends on map order")
		}
	}
	if d1.Words() != 6 { // head + len + 4 chain ids
		t.Errorf("Words = %d, want 6", d1.Words())
	}
}
