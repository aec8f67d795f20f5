package dataflow

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"twpp/internal/bench"
	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/wpp"
)

// fuzzPath maps fuzz bytes to a path of non-negative block ids, as the
// core and wpp kernel tests do: data[0] picks the id domain and
// alphabet size, each later byte one block. The domains are a small
// dense alphabet from 0, sparse ids, ids just below 2^32, and ids
// spread over [2^31, 2^32).
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

// splitIterations cuts path at the kernel's iteration bounds, in the
// shape the reference split returns.
func splitIterations(path wpp.PathTrace, bounds []int32) [][]int {
	var iters [][]int
	for m := 0; m+1 < len(bounds); m++ {
		it := []int{}
		for _, b := range path[bounds[m]:bounds[m+1]] {
			it = append(it, int(b))
		}
		iters = append(iters, it)
	}
	return iters
}

// checkAgainstReference requires unique trace i of ft, expanded, to
// give the reference dynamic CFG (node order, series, and Succs/Preds
// order) and the reference loop iterations.
func checkAgainstReference(t *testing.T, ft *core.FunctionTWPP, i int) {
	t.Helper()
	path, err := ft.Expand(i)
	if err != nil {
		t.Fatal(err)
	}
	// An empty path has no nodes either way; the reference's are nil.
	g, ref := BuildFromPath(path), buildFromPathRef(path)
	if g.Len != ref.Len || (len(ref.Nodes) > 0 || len(g.Nodes) > 0) && !reflect.DeepEqual(g.Nodes, ref.Nodes) {
		t.Fatalf("trace %d, path %v: dynamic CFG differs from the reference", i, path)
	}
	for _, n := range g.Nodes {
		if g.Node(n.Block) != n {
			t.Fatalf("trace %d: Node(%d) is not its node", i, n.Block)
		}
	}
	want, err := iterationsRef(context.Background(), ft, i)
	if err != nil {
		t.Fatal(err)
	}
	if got := splitIterations(path, core.NewDynamicGraph(path).Iters); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace %d, path %v: iterations\n got %v\nwant %v", i, path, got, want)
	}
}

// oneTrace wraps path as the one unique trace of a function with an
// empty dictionary, and of a one-function TWPP.
func oneTrace(path wpp.PathTrace) *core.TWPP {
	return &core.TWPP{Funcs: []core.FunctionTWPP{{
		Traces: []*core.Trace{core.FromPath(path)},
		Dicts:  []wpp.Dictionary{{}},
		DictOf: []int{0},
	}}}
}

// FuzzDynamicGraph checks core.NewDynamicGraph against the three map
// kernels it replaced: the dynamic CFG that BuildFromPath builds on
// it, kpaths' iteration split, and Table 6's edge count. Seeds cover
// self-loops, single-block paths, paths that re-enter their first
// block, and each id domain.
func FuzzDynamicGraph(f *testing.F) {
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
		tw := oneTrace(fuzzPath(data))
		checkAgainstReference(t, &tw.Funcs[0], 0)
		n, e := tw.DynamicGraphStats()
		if rn, re := dynamicGraphStatsRef(tw); n != rn || e != re {
			t.Fatalf("DynamicGraphStats = %d, %d; reference %d, %d", n, e, rn, re)
		}
	})
}

// TestDynamicGraphSweep runs the fuzz property over a seeded sweep of
// random paths in every id domain.
func TestDynamicGraphSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5000; trial++ {
		data := make([]byte, 1+rng.Intn(64))
		rng.Read(data)
		tw := oneTrace(fuzzPath(data))
		checkAgainstReference(t, &tw.Funcs[0], 0)
		n, e := tw.DynamicGraphStats()
		if rn, re := dynamicGraphStatsRef(tw); n != rn || e != re {
			t.Fatalf("trial %d: DynamicGraphStats = %d, %d; reference %d, %d", trial, n, e, rn, re)
		}
	}
}

// TestDynamicGraphMatchesReference runs every unique trace of the five
// benchmark profiles at scale 0.03 through the kernel and through the
// reference map kernels: expanded, for the dynamic CFG and kpaths'
// iterations, and compacted, for Table 6.
func TestDynamicGraphMatchesReference(t *testing.T) {
	for _, p := range bench.Profiles() {
		r, err := bench.Run(p, 0.03, "")
		if err != nil {
			t.Fatal(err)
		}
		for f := range r.TWPP.Funcs {
			ft := &r.TWPP.Funcs[f]
			for i := range ft.Traces {
				checkAgainstReference(t, ft, i)
			}
		}
		n, e := r.TWPP.DynamicGraphStats()
		if rn, re := dynamicGraphStatsRef(r.TWPP); n != rn || e != re {
			t.Errorf("%s: DynamicGraphStats = %d, %d; reference %d, %d", p.Name, n, e, rn, re)
		}
	}
}
