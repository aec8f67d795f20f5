// kpaths: k-iteration Ball-Larus path profiles computed from the
// timestamp series the containers already store (the PAPERS.md
// follow-on to the paper: Ball-Larus profiling across multiple loop
// iterations). A classic acyclic path profile ends every path at a
// back edge, so a hot *sequence* of iterations — the alternation
// A,B,A,B against the run A,A,B,B — is invisible at k=1. This pass
// splits each unique trace's expanded path into its loop iterations
// (a new iteration starts at the first repeated block of the current
// one, i.e. at the dynamic back edge), then counts every window of k
// consecutive iterations, weighted by how many calls used that trace
// (recovered from the dynamic call graph, exactly the hot-path walk
// the stats surfaces use). At k=1 this degenerates to the per-
// iteration acyclic profile, so for a loop-free function every path
// count equals the call count reported by stats.

package passes

import (
	"context"
	"encoding/binary"
	"sort"

	"twpp/internal/cfg"
	"twpp/internal/cli"
	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/wppfile"
)

// MaxK bounds the window length: windows are materialized as block
// sequences, so k is capped well below anything a real loop nest
// needs.
const MaxK = 64

func init() {
	Register(&Pass{
		Name:    "kpaths",
		Summary: "k-iteration Ball-Larus path profile: hot windows of k consecutive loop iterations",
		Params: []ParamDoc{
			{Name: "func", Kind: "int", Required: true, Doc: "function id"},
			{Name: "k", Kind: "int", Doc: "window length in loop iterations (default 1, max 64)"},
			{Name: "top", Kind: "int", Doc: "keep only the top N paths (default: all)"},
		},
		Run: runKPaths,
	})
}

func runKPaths(ctx context.Context, c wppfile.Container, p Params) (any, error) {
	fn, err := p.Func()
	if err != nil {
		return nil, err
	}
	k, err := p.Int("k", 1)
	if err != nil {
		return nil, err
	}
	if k < 1 || k > MaxK {
		return nil, cli.Usagef("bad k %d: want 1..%d", k, MaxK)
	}
	top, err := p.Int("top", 0)
	if err != nil {
		return nil, err
	}
	if top < 0 {
		return nil, cli.Usagef("bad top %d: want >= 0", top)
	}

	ft, release, err := Extract(ctx, c, fn)
	if err != nil {
		return nil, err
	}
	defer release()
	// Window storage is O(expanded blocks × k): every block lands in up
	// to k distinct windows, each deep-copied on first sight. Bound the
	// product, not just the expansion, so a large k cannot multiply an
	// in-limit container past the allocation budget.
	if err := checkExpandScaled(ft, -1, int64(k)); err != nil {
		return nil, err
	}

	uses, err := traceUses(c, fn, len(ft.Traces))
	if err != nil {
		return nil, err
	}

	res := &KPathsResult{
		File:  p.Source,
		Func:  int(fn),
		Name:  funcName(c, fn),
		K:     k,
		Calls: ft.CallCount,
		Paths: []KPathEntry{},
	}
	acc := map[string]*KPathEntry{}
	for i := range ft.Traces {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if uses[i] == 0 {
			continue
		}
		iters, err := iterations(ctx, ft, i)
		if err != nil {
			return nil, err
		}
		res.Iterations += uses[i] * len(iters)
		for w := 0; w+k <= len(iters); w++ {
			// A single trace at the expansion cap yields millions of
			// windows; poll periodically so deadlines and cancellation
			// bound the pass's longest step, not just its trace loop.
			if w&0xfff == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			win := iters[w : w+k]
			key := windowKey(win)
			e, ok := acc[key]
			if !ok {
				seq := make([][]int, k)
				for j, it := range win {
					seq[j] = append([]int(nil), it...)
				}
				e = &KPathEntry{Seq: seq}
				acc[key] = e
			}
			e.Count += uses[i]
			res.Windows += uses[i]
		}
	}

	for _, e := range acc {
		res.Paths = append(res.Paths, *e)
	}
	sort.Slice(res.Paths, func(a, b int) bool {
		pa, pb := res.Paths[a], res.Paths[b]
		if pa.Count != pb.Count {
			return pa.Count > pb.Count
		}
		return lessSeq(pa.Seq, pb.Seq)
	})
	if top > 0 && len(res.Paths) > top {
		res.Paths = res.Paths[:top]
	}
	return res, nil
}

// iterations expands unique trace i and splits it into loop iterations
// at core.NewDynamicGraph's bounds: the dynamic back edges, where
// Ball-Larus acyclic paths terminate. The iterations share one backing
// array. Expansion and split each take linear time; ctx is checked
// between them, and the window loop polls it.
func iterations(ctx context.Context, ft *core.FunctionTWPP, i int) ([][]int, error) {
	path, err := ft.Expand(i)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bounds := core.NewDynamicGraph(path).Iters
	blocks := make([]int, len(path))
	for n, b := range path {
		blocks[n] = int(b)
	}
	iters := make([][]int, len(bounds)-1)
	for m := range iters {
		iters[m] = blocks[bounds[m]:bounds[m+1]:bounds[m+1]]
	}
	return iters, nil
}

// traceUses counts, per unique trace of fn, how many invocations used
// it, one DCG row at a time. A call of fn that names a trace outside
// fn's n traces is corrupt, as it is to ReadAll and diff.
func traceUses(c wppfile.Container, fn cfg.FuncID, n int) ([]int, error) {
	uses := make([]int, n)
	dcg, err := c.ReadDCG()
	if err != nil {
		return nil, err
	}
	for i, f := range dcg.Fn {
		if f != fn {
			continue
		}
		ti := dcg.Trace[i]
		if ti < 0 || ti >= n {
			return nil, encoding.Errf(encoding.CodeCorrupt, 0,
				"kpaths: DCG node references function %d trace %d, not in container", fn, ti)
		}
		uses[ti]++
	}
	return uses, nil
}

// windowKey builds a map key for a window of iterations: each
// iteration is its block count as a varint followed by its block ids
// as varints. Length-prefix framing makes the key uniquely decodable;
// a terminator byte cannot, because varints for block ids >= 128 can
// *begin* with any continuation byte (ids ≡ 127 mod 128 start with
// 0xff), which let distinct windows such as [[1],[1,255]] and
// [[1,255],[1]] encode identically.
func windowKey(win [][]int) string {
	n := 0
	for _, it := range win {
		n += len(it)*2 + 1
	}
	b := make([]byte, 0, n)
	for _, it := range win {
		b = binary.AppendUvarint(b, uint64(len(it)))
		for _, blk := range it {
			b = binary.AppendUvarint(b, uint64(blk))
		}
	}
	return string(b)
}

// lessSeq orders equal-count windows deterministically: lexicographic
// over the flattened (block id, iteration boundary) form.
func lessSeq(a, b [][]int) bool {
	fa, fb := flatten(a), flatten(b)
	for i := 0; i < len(fa) && i < len(fb); i++ {
		if fa[i] != fb[i] {
			return fa[i] < fb[i]
		}
	}
	return len(fa) < len(fb)
}

func flatten(seq [][]int) []int {
	out := make([]int, 0, len(seq)*4)
	for _, it := range seq {
		out = append(out, it...)
		out = append(out, -1)
	}
	return out
}
