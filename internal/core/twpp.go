package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"twpp/internal/cfg"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// BlockTimes associates one dynamic basic block (identified by its
// head's static block id) with the compacted set of timestamps at
// which it executed within a path trace.
type BlockTimes struct {
	Block cfg.BlockID
	Times Seq
}

// Trace is one path trace in TWPP form: the B -> P(T) mapping of the
// paper, with blocks listed in order of first execution. Len is the
// trace length (the largest timestamp).
type Trace struct {
	Blocks []BlockTimes
	Len    int
}

// invertScratch is the pooled working state of FromPath and
// NewDynamicGraph.
type invertScratch struct {
	num   wpp.Numbering
	next  []int32     // counting-sort cursor per local block index
	times []Timestamp // positions grouped by block, ascending within a group
	ents  Seq         // every block's series entries, block after block
	ends  []int       // ents offset just past each block's entries
	mark  []int32     // per local block index: the stamp of the last node or iteration that saw it
	adj   []int32     // adjacency lists or iteration starts under construction
}

var invertPool = sync.Pool{New: func() any { return new(invertScratch) }}

// FromPath converts a (dictionary-compacted) path trace into TWPP
// form. Timestamps are 1-based positions in the path. The positions
// are counting-sorted by dense local block index (wpp.Numbering), so
// each block's timestamps come out as one ascending sub-slice that
// CompactSeries folds; the blocks' series share one exactly sized
// backing array, each capped at its own length.
func FromPath(path wpp.PathTrace) *Trace {
	sc := invertPool.Get().(*invertScratch)
	defer invertPool.Put(sc)
	return sc.invert(path)
}

// invert is FromPath over sc. It leaves sc.num numbering path, and
// sc.times holding each block's positions grouped by local index, the
// group of block j ending at sc.next[j].
func (sc *invertScratch) invert(path wpp.PathTrace) *Trace {
	sc.num.Number(path)
	ids, loc, count := sc.num.IDs, sc.num.Local, sc.num.Count
	k := len(ids)

	next := slices.Grow(sc.next[:0], k)[:k]
	off := int32(0)
	for j, c := range count {
		next[j] = off
		off += c
	}
	times := slices.Grow(sc.times[:0], len(path))[:len(path)]
	for i, l := range loc {
		times[next[l]] = Timestamp(i + 1)
		next[l]++
	}
	// next[j] is now the end of block j's group, and the start of
	// block j+1's.
	ents, ends := sc.ents[:0], slices.Grow(sc.ends[:0], k)[:k]
	lo := int32(0)
	for j := range ends {
		ents = appendSeries(ents, times[lo:next[j]])
		ends[j] = len(ents)
		lo = next[j]
	}
	sc.next, sc.times, sc.ents, sc.ends = next, times, ents, ends

	all := make(Seq, len(ents))
	copy(all, ents)
	tr := &Trace{Len: len(path), Blocks: make([]BlockTimes, k)}
	prev := 0
	for j, end := range ends {
		tr.Blocks[j] = BlockTimes{Block: ids[j], Times: all[prev:end:end]}
		prev = end
	}
	return tr
}

// DynamicGraph is the dynamic control flow graph of one path trace
// (paper §4.1): its nodes are the path's distinct blocks, its edges
// the distinct pairs of consecutive blocks. Node j is Trace.Blocks[j],
// so nodes are numbered in order of first execution.
type DynamicGraph struct {
	// Trace is the path in TWPP form, exactly as FromPath returns it.
	Trace *Trace
	// Succs[j] and Preds[j] list node j's successors and predecessors
	// as node indices, in the order the path first takes each edge.
	Succs, Preds [][]int32
	// Edges is the number of distinct edges.
	Edges int
	// Iters bounds the loop iterations, iteration m being
	// path[Iters[m]:Iters[m+1]]. One starts at each block already
	// executed in the current iteration: the dynamic back edge, where a
	// Ball-Larus acyclic path ends.
	Iters []int32
}

// NewDynamicGraph builds the dynamic CFG of path in O(len(path) +
// nodes) with no map. It inverts path as FromPath does, then reads
// each node's neighbours off the counting sort's position groups, where
// node j's positions ascend, dropping repeats with a per-node stamp.
func NewDynamicGraph(path wpp.PathTrace) *DynamicGraph {
	sc := invertPool.Get().(*invertScratch)
	defer invertPool.Put(sc)
	tr := sc.invert(path)
	k := len(tr.Blocks)
	sc.mark = slices.Grow(sc.mark[:0], k)[:k]
	lists := make([][]int32, 2*k)
	g := &DynamicGraph{Trace: tr, Succs: lists[:k:k], Preds: lists[k:]}
	// Successor lists go through scratch; each edge is one successor
	// and one predecessor, so predecessors fill the rest of adj exactly.
	sc.adj = sc.adjacency(sc.adj[:0], g.Succs, 1)
	g.Edges = len(sc.adj)
	adj := make([]int32, 0, 2*g.Edges)
	for j, l := range g.Succs {
		adj = append(adj, l...)
		g.Succs[j] = adj[len(adj)-len(l) : len(adj) : len(adj)]
	}
	sc.adjacency(adj, g.Preds, -1)

	// mark[l] == cur: block l already executed in iteration cur. The
	// first block starts iteration 1, since every stamp is cleared.
	mark, iters, cur := sc.mark, sc.adj[:0], int32(0)
	clear(mark)
	for i, l := range sc.num.Local {
		if mark[l] == cur {
			cur++
			iters = append(iters, int32(i))
		}
		mark[l] = cur
	}
	g.Iters = append(append(make([]int32, 0, len(iters)+1), iters...), int32(len(path)))
	sc.adj = iters
	return g
}

// adjacency appends to adj, node by node, the distinct nodes at offset
// dir (1: successors, -1: predecessors) from each node's positions, in
// order of first appearance, and sets lists[j] to node j's run.
func (sc *invertScratch) adjacency(adj []int32, lists [][]int32, dir int) []int32 {
	loc, mark := sc.num.Local, sc.mark
	clear(mark)
	lo := int32(0)
	for j, hi := range sc.next {
		start, stamp := len(adj), int32(j+1)
		for _, t := range sc.times[lo:hi] {
			if q := int(t) - 1 + dir; q >= 0 && q < len(loc) && mark[loc[q]] != stamp {
				mark[loc[q]] = stamp
				adj = append(adj, loc[q])
			}
		}
		lists[j] = adj[start:len(adj):len(adj)]
		lo = hi
	}
	return adj
}

// ToPath inverts FromPath, reconstructing the path trace. The declared
// length and every series entry are validated before the output is
// allocated, so a corrupt trace whose Len field was inflated (or whose
// entries don't actually cover Len timestamps) fails without a
// length-proportional allocation.
func (t *Trace) ToPath() (wpp.PathTrace, error) {
	if t.Len < 0 {
		return nil, corruptf("core: negative trace length %d", t.Len)
	}
	var total int64
	for _, bt := range t.Blocks {
		for _, e := range bt.Times {
			if e.Step < 1 || e.Lo < 1 || e.Hi < e.Lo {
				return nil, corruptf("core: malformed entry %s for block %d", e, bt.Block)
			}
			if e.Hi > Timestamp(t.Len) {
				return nil, corruptf("core: timestamp %d outside [1,%d] for block %d", e.Hi, t.Len, bt.Block)
			}
			cnt := (e.Hi-e.Lo)/e.Step + 1
			total += cnt
			if total > int64(t.Len) {
				return nil, corruptf("core: %d timestamps exceed declared length %d", total, t.Len)
			}
		}
	}
	if total != int64(t.Len) {
		return nil, corruptf("core: %d of %d timestamps unassigned", int64(t.Len)-total, t.Len)
	}
	out := make(wpp.PathTrace, t.Len)
	for _, bt := range t.Blocks {
		for _, e := range bt.Times {
			for ts := e.Lo; ts <= e.Hi; ts += e.Step {
				if out[ts-1] != 0 {
					return nil, corruptf("core: timestamp %d claimed by blocks %d and %d", ts, out[ts-1], bt.Block)
				}
				out[ts-1] = bt.Block
			}
		}
	}
	return out, nil
}

// TimesOf returns the timestamp set of the given block (empty if the
// block never executed in this trace).
func (t *Trace) TimesOf(b cfg.BlockID) Seq {
	for _, bt := range t.Blocks {
		if bt.Block == b {
			return bt.Times
		}
	}
	return nil
}

// BlockAt returns the block executing at timestamp ts (0 if out of
// range).
func (t *Trace) BlockAt(ts Timestamp) cfg.BlockID {
	for _, bt := range t.Blocks {
		if bt.Times.Contains(ts) {
			return bt.Block
		}
	}
	return 0
}

// Words reports the storage size of the TWPP trace in 32-bit words
// under the paper's accounting: per block, the block id, an entry
// count, and the sign-terminated timestamp values; plus a two-word
// trace header (block count, length).
func (t *Trace) Words() int {
	n := 2
	for _, bt := range t.Blocks {
		n += 2 + bt.Times.Words()
	}
	return n
}

// FunctionTWPP holds the TWPP form of all of one function's unique
// traces, alongside the dictionaries carried over unchanged from the
// wpp stage.
type FunctionTWPP struct {
	Fn cfg.FuncID
	// Traces[i] is the TWPP form of the function's i-th unique trace.
	Traces []*Trace
	// Dicts and DictOf mirror wpp.FunctionTraces.
	Dicts     []wpp.Dictionary
	DictOf    []int
	CallCount int
}

// Dict returns the dictionary of trace i. A trace index out of range
// is an error; a dictionary index out of range is corrupt content.
func (ft *FunctionTWPP) Dict(i int) (wpp.Dictionary, error) {
	if i < 0 || i >= len(ft.Traces) {
		return nil, fmt.Errorf("core: trace index %d out of range (%d traces)", i, len(ft.Traces))
	}
	if i >= len(ft.DictOf) || ft.DictOf[i] < 0 || ft.DictOf[i] >= len(ft.Dicts) {
		return nil, corruptf("core: trace %d has no dictionary of %d", i, len(ft.Dicts))
	}
	return ft.Dicts[ft.DictOf[i]], nil
}

// Expand returns unique trace i in its original (pre-dictionary)
// block sequence: the one dictionary expansion that materializes a
// path.
func (ft *FunctionTWPP) Expand(i int) (wpp.PathTrace, error) {
	dict, err := ft.Dict(i)
	if err != nil {
		return nil, err
	}
	compacted, err := ft.Traces[i].ToPath()
	if err != nil {
		return nil, err
	}
	return dict.Expand(make(wpp.PathTrace, 0, ft.ExpandedLen(i)), compacted), nil
}

// ExpandedLen returns trace i's length after dictionary expansion
// without materializing it: the sum over its blocks of count × chain
// length. Trace i and its dictionary index must be in range.
func (ft *FunctionTWPP) ExpandedLen(i int) int64 {
	dict := ft.Dicts[ft.DictOf[i]]
	var n int64
	for _, bt := range ft.Traces[i].Blocks {
		chain := 1
		if c, ok := dict[bt.Block]; ok {
			chain = len(c)
		}
		n += int64(bt.Times.Count()) * int64(chain)
	}
	return n
}

// TWPP is a fully compacted, timestamped whole program path: the
// compacted DCG referencing per-function TWPP traces (paper Figure 7).
type TWPP struct {
	FuncNames []string
	DCG       trace.DCG
	Funcs     []FunctionTWPP
}

// FromCompacted converts a dictionary-compacted WPP into TWPP form,
// sequentially.
func FromCompacted(c *wpp.Compacted) *TWPP {
	return FromCompactedWorkers(c, 1)
}

// FromCompactedWorkers is FromCompacted with the per-function
// timestamp inversion fanned out over a bounded worker pool.
// workers <= 0 selects runtime.GOMAXPROCS(0). Functions are converted
// independently and each worker writes only its own t.Funcs[f] slot,
// so the result is identical to the sequential path for any worker
// count.
func FromCompactedWorkers(c *wpp.Compacted, workers int) *TWPP {
	t, err := FromCompactedWorkersCtx(context.Background(), c, workers)
	if err != nil {
		// Background is never canceled; no other error source exists.
		panic(err)
	}
	return t
}

// FromCompactedWorkersCtx is FromCompactedWorkers with cooperative
// cancellation: workers check ctx between functions, so inverting a
// very large compacted WPP can be abandoned promptly. On cancellation
// the partial TWPP is discarded and ctx.Err() is returned.
func FromCompactedWorkersCtx(ctx context.Context, c *wpp.Compacted, workers int) (*TWPP, error) {
	t := &TWPP{
		FuncNames: c.FuncNames,
		DCG:       c.DCG,
		Funcs:     make([]FunctionTWPP, len(c.Funcs)),
	}
	convert := func(f int) {
		ft := &c.Funcs[f]
		out := &t.Funcs[f]
		out.Fn = ft.Fn
		out.Dicts = ft.Dicts
		out.DictOf = ft.DictOf
		out.CallCount = ft.CallCount
		out.Traces = make([]*Trace, len(ft.Traces))
		for i, path := range ft.Traces {
			out.Traces[i] = FromPath(path)
		}
	}
	if err := wpp.RunJobs(ctx, len(c.Funcs), workers, convert); err != nil {
		return nil, err
	}
	return t, nil
}

// ToCompacted inverts FromCompacted.
func (t *TWPP) ToCompacted() (*wpp.Compacted, error) {
	c := &wpp.Compacted{
		FuncNames: t.FuncNames,
		DCG:       t.DCG,
		Funcs:     make([]wpp.FunctionTraces, len(t.Funcs)),
	}
	for f := range t.Funcs {
		in := &t.Funcs[f]
		out := &c.Funcs[f]
		out.Fn = in.Fn
		out.Dicts = in.Dicts
		out.DictOf = in.DictOf
		out.CallCount = in.CallCount
		out.Traces = make([]wpp.PathTrace, len(in.Traces))
		out.OrigLen = make([]int, len(in.Traces))
		for i, tr := range in.Traces {
			path, err := tr.ToPath()
			if err != nil {
				return nil, fmt.Errorf("function %d trace %d: %w", f, i, err)
			}
			out.Traces[i] = path
			out.OrigLen[i] = int(in.ExpandedLen(i))
		}
	}
	return c, nil
}

// SizeStats reports the TWPP's component sizes in bytes (4 bytes per
// word, the paper's accounting): trace words and dictionary words.
func (t *TWPP) SizeStats() (traceBytes, dictBytes int) {
	for f := range t.Funcs {
		ft := &t.Funcs[f]
		for _, tr := range ft.Traces {
			traceBytes += 4 * tr.Words()
		}
		for _, d := range ft.Dicts {
			dictBytes += 4 * d.Words()
		}
	}
	return traceBytes, dictBytes
}

// VectorStats reports, over every block entry of every unique trace,
// the average timestamp vector length after compaction (entries) and
// before (raw timestamps) — the last column of the paper's Table 6.
func (t *TWPP) VectorStats() (avgCompacted, avgRaw float64) {
	entries, raw, n := 0, 0, 0
	for f := range t.Funcs {
		for _, tr := range t.Funcs[f].Traces {
			for _, bt := range tr.Blocks {
				entries += len(bt.Times)
				raw += bt.Times.Count()
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(entries) / float64(n), float64(raw) / float64(n)
}

// DynamicGraphStats counts the nodes and edges of the dynamic control
// flow graphs of all unique traces (paper Table 6). Each unique trace
// of each function contributes one dynamic CFG whose nodes are the
// distinct blocks it executes and whose edges are the distinct
// consecutive block pairs, both at dynamic-basic-block granularity:
// the graph of the compacted path, not of its expansion.
func (t *TWPP) DynamicGraphStats() (nodes, edges int) {
	for f := range t.Funcs {
		for _, tr := range t.Funcs[f].Traces {
			nodes += len(tr.Blocks)
			path, err := tr.ToPath()
			if err != nil {
				continue
			}
			edges += NewDynamicGraph(path).Edges
		}
	}
	return nodes, edges
}

// SortedBlockIDs returns the block ids present in the trace, ascending
// (a convenience for deterministic display).
func (t *Trace) SortedBlockIDs() []cfg.BlockID {
	ids := make([]cfg.BlockID, len(t.Blocks))
	for i, bt := range t.Blocks {
		ids[i] = bt.Block
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
