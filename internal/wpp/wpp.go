// Package wpp implements the first three compaction transformations of
// Zhang & Gupta (PLDI 2001, §2) on a raw whole program path:
//
//  1. partitioning the WPP into per-function path traces linked by the
//     dynamic call graph (Figure 2);
//  2. eliminating redundant (duplicate) path traces produced by
//     different calls to the same function (Figure 3);
//  3. replacing dynamic basic blocks — chains of static blocks that a
//     path trace always enters at the head and leaves at the tail —
//     with their head id, recording the chains in per-trace
//     dictionaries (Figures 4 and 5).
//
// The result, Compacted, preserves enough information to reconstruct
// the original WPP exactly, and is the input to the timestamp
// transformation in internal/core.
package wpp

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"twpp/internal/cfg"
	"twpp/internal/trace"
)

// PathTrace is a block id sequence: either an original per-call trace
// or a dictionary-compacted one. Dedup of traces and dictionaries is
// by 64-bit content hash with verified equality (see intern.go); the
// earlier string-key scheme allocated per call and was the pipeline's
// hottest allocation.
type PathTrace []cfg.BlockID

// Dictionary maps a dynamic-basic-block head to the full chain of
// static block ids it replaces (chains always have length >= 2; heads
// not present expand to themselves).
type Dictionary map[cfg.BlockID]PathTrace

// Words reports the dictionary's size in 32-bit words (head + length +
// chain entries per chain), the unit the paper's tables use.
func (d Dictionary) Words() int {
	n := 0
	for _, chain := range d {
		n += 2 + len(chain)
	}
	return n
}

// FunctionTraces holds all stored trace data for one function: its
// deduplicated compacted traces and their dictionaries.
type FunctionTraces struct {
	Fn cfg.FuncID
	// Traces are the unique path traces in dictionary-compacted form,
	// in order of first occurrence.
	Traces []PathTrace
	// OrigLen[i] is the length (block count) of Traces[i] before
	// dictionary compaction.
	OrigLen []int
	// Dicts are the function's unique dictionaries.
	Dicts []Dictionary
	// DictOf[i] is the index into Dicts of the dictionary for
	// Traces[i].
	DictOf []int
	// CallCount is the number of invocations of this function in the
	// WPP.
	CallCount int
}

// Expand returns unique trace i in its original (pre-dictionary)
// block sequence.
func (ft *FunctionTraces) Expand(i int) PathTrace {
	tr := ft.Traces[i]
	dict := ft.Dicts[ft.DictOf[i]]
	out := make(PathTrace, 0, ft.OrigLen[i])
	for _, id := range tr {
		if chain, ok := dict[id]; ok {
			out = append(out, chain...)
		} else {
			out = append(out, id)
		}
	}
	return out
}

// CallNode is an invocation in the compacted DCG: it references one of
// the callee function's unique traces rather than owning a trace.
type CallNode struct {
	Fn       cfg.FuncID
	TraceIdx int // index into Funcs[Fn].Traces
	Children []*CallNode
	// ChildPos[i] is the child's call position counted in blocks of
	// this call's *original* (expanded) trace, exactly as in
	// trace.CallNode.
	ChildPos []int
}

// Compacted is the fully compacted WPP of the paper's Figure 5.
type Compacted struct {
	FuncNames []string
	Root      *CallNode
	// Funcs holds per-function trace blocks, indexed by FuncID. A
	// function never called has a zero-value entry.
	Funcs []FunctionTraces
}

// Stats captures the per-stage sizes reported in Table 2, all in
// bytes with the paper's 4-bytes-per-block-id accounting.
type Stats struct {
	// RawTraceBytes is the size of all per-call traces before any
	// compaction.
	RawTraceBytes int
	// AfterRedundancy is the size after duplicate trace elimination.
	AfterRedundancy int
	// AfterDictionary is the size after DBB compaction: compacted
	// traces plus dictionaries.
	AfterDictionary int
	// DictionaryBytes is the dictionaries' share of AfterDictionary.
	DictionaryBytes int
	// UniqueTraces counts unique traces across all functions.
	UniqueTraces int
	// Calls counts invocations.
	Calls int
}

// Compact runs partitioning, redundancy elimination, and DBB
// dictionary creation over a raw WPP, sequentially.
func Compact(w *trace.RawWPP) (*Compacted, Stats) {
	return CompactWorkers(w, 1)
}

// CompactWorkers is Compact with the per-function DBB-discovery stage
// fanned out over a bounded worker pool. workers <= 0 selects
// runtime.GOMAXPROCS(0). The output is deterministic: per-function
// results are merged in function order, so the Compacted value and the
// accumulated Stats are identical to the sequential (workers == 1)
// path for any worker count.
func CompactWorkers(w *trace.RawWPP, workers int) (*Compacted, Stats) {
	c, stats, err := CompactWorkersCtx(context.Background(), w, workers)
	if err != nil {
		// Background is never canceled; no other error source exists.
		panic(err)
	}
	return c, stats
}

// CompactWorkersCtx is CompactWorkers with cooperative cancellation:
// the DCG walk checks ctx every few thousand nodes and the
// per-function pool checks it between functions, so a canceled
// context abandons a large compaction promptly. On cancellation the
// partial Compacted is discarded and ctx.Err() is returned.
func CompactWorkersCtx(ctx context.Context, w *trace.RawWPP, workers int) (*Compacted, Stats, error) {
	// Count each function's calls. Functions can appear in the DCG
	// beyond the name table when names are absent, so the table is
	// sized by this scan too.
	var perFunc []int
	w.Walk(func(n *trace.CallNode) {
		for int(n.Fn) >= len(perFunc) {
			perFunc = append(perFunc, 0)
		}
		perFunc[n.Fn]++
	})
	numFuncs := max(len(w.FuncNames), len(perFunc))

	c := &Compacted{
		FuncNames: w.FuncNames,
		Funcs:     make([]FunctionTraces, numFuncs),
	}
	for f := range c.Funcs {
		c.Funcs[f].Fn = cfg.FuncID(f)
	}

	var stats Stats
	stats.RawTraceBytes = 4 * w.NumBlocks()

	// Stage 1: partition. The sequential walk builds the compacted DCG
	// and lists each function's calls in preorder, function f's in
	// calls[first[f]:first[f+1]]; until stage 2 interns it, a node's
	// TraceIdx holds its raw trace index (into w.Traces). The walk
	// polls ctx every stride nodes; once canceled it unwinds without
	// visiting further children.
	first := make([]int, numFuncs+1)
	copy(first[1:], perFunc)
	for f := range numFuncs {
		first[f+1] += first[f]
	}
	calls := make([]*CallNode, first[numFuncs])
	next := slices.Clone(first[:numFuncs])
	const cancelStride = 1 << 12
	canceled := false
	var build func(n *trace.CallNode) *CallNode
	build = func(n *trace.CallNode) *CallNode {
		if canceled {
			return nil
		}
		stats.Calls++
		if stats.Calls%cancelStride == 0 && ctx.Err() != nil {
			canceled = true
			return nil
		}
		cn := &CallNode{Fn: n.Fn, TraceIdx: n.Trace}
		calls[next[n.Fn]] = cn
		next[n.Fn]++
		if len(n.Children) > 0 {
			cn.Children = make([]*CallNode, len(n.Children))
			cn.ChildPos = slices.Clone(n.ChildPos[:len(n.Children)])
			for i, ch := range n.Children {
				cn.Children[i] = build(ch)
			}
		}
		return cn
	}
	c.Root = build(w.Root)
	if canceled || ctx.Err() != nil {
		return nil, Stats{}, ctx.Err()
	}

	// Stages 2 and 3, per function: deduplicate the function's traces
	// (interning by hash with verified equality) in preorder, which
	// keeps unique traces in first-occurrence order; then per unique
	// trace discover DBBs and compact, and deduplicate dictionaries.
	// Functions are mutually independent here, so the work fans out
	// over a bounded pool; each job writes only its own c.Funcs[f]
	// slot, partial-stats slot and call nodes, and the partials are
	// summed in function order afterwards so the Stats accumulate
	// identically to a sequential run.
	partial := make([]Stats, numFuncs)
	compactFunc := func(f int) {
		ft := &c.Funcs[f]
		ps := &partial[f]
		fcalls := calls[first[f]:first[f+1]]
		ft.CallCount = len(fcalls)
		seen := newInterner()
		var orig []PathTrace
		for _, cn := range fcalls {
			tr := PathTrace(w.Traces[cn.TraceIdx])
			h := hashTrace(tr)
			idx, ok := seen.lookup(h, func(i int) bool { return tracesEqual(orig[i], tr) })
			if !ok {
				idx = len(orig)
				seen.insert(h, idx)
				orig = append(orig, tr)
			}
			cn.TraceIdx = idx
		}
		dictSeen := newInterner()
		for _, tr := range orig {
			ps.AfterRedundancy += 4 * len(tr)
			compacted, dict := compactTrace(tr)
			dh := hashDict(dict)
			di, ok := dictSeen.lookup(dh, func(i int) bool { return dictsEqual(ft.Dicts[i], dict) })
			if !ok {
				di = len(ft.Dicts)
				dictSeen.insert(dh, di)
				ft.Dicts = append(ft.Dicts, dict)
			}
			ft.Traces = append(ft.Traces, compacted)
			ft.OrigLen = append(ft.OrigLen, len(tr))
			ft.DictOf = append(ft.DictOf, di)
			ps.UniqueTraces++
		}
		for _, tr := range ft.Traces {
			ps.AfterDictionary += 4 * len(tr)
		}
		for _, d := range ft.Dicts {
			ps.DictionaryBytes += 4 * d.Words()
		}
	}
	if err := RunJobs(ctx, numFuncs, workers, compactFunc); err != nil {
		return nil, Stats{}, err
	}
	for f := range partial {
		ps := &partial[f]
		stats.AfterRedundancy += ps.AfterRedundancy
		stats.AfterDictionary += ps.AfterDictionary
		stats.DictionaryBytes += ps.DictionaryBytes
		stats.UniqueTraces += ps.UniqueTraces
	}
	stats.AfterDictionary += stats.DictionaryBytes
	return c, stats, nil
}

// dbbScratch is compactTrace's pooled working state. Every slice but
// chain is indexed by the trace's dense local block index.
type dbbScratch struct {
	num        Numbering
	succ, pred []int32 // unique dynamic successor/predecessor, noBlock, or multiBlock
	start, end []int32 // a chain head's [start, end) in chain; start -1 for non-heads
	seen       []int32 // the head whose chain walk last visited the block
	chain      []int32 // every chain's members, chain after chain
}

var dbbPool = sync.Pool{New: func() any { return new(dbbScratch) }}

// Sentinels of succ and pred; local indices are >= 0.
const (
	noBlock    int32 = -1
	multiBlock int32 = -2
)

// compactTrace finds the dynamic basic blocks of one path trace and
// returns the compacted trace along with the dictionary of chains.
// All per-block state is kept by dense local index (see Numbering);
// only the returned Dictionary is a map.
func compactTrace(tr PathTrace) (PathTrace, Dictionary) {
	if len(tr) == 0 {
		return PathTrace{}, Dictionary{}
	}
	sc := dbbPool.Get().(*dbbScratch)
	defer dbbPool.Put(sc)
	sc.num.Number(tr)
	ids, loc, count := sc.num.IDs, sc.num.Local, sc.num.Count
	k := len(ids)

	// Dynamic CFG: each block's unique successor and predecessor
	// within this trace, or multiBlock once it has several.
	succ, pred := fill(sc.succ, k, noBlock), fill(sc.pred, k, noBlock)
	sc.succ, sc.pred = succ, pred
	for i := 0; i+1 < len(loc); i++ {
		u, v := loc[i], loc[i+1]
		if s := succ[u]; s == noBlock {
			succ[u] = v
		} else if s != v {
			succ[u] = multiBlock
		}
		if p := pred[v]; p == noBlock {
			pred[v] = u
		} else if p != u {
			pred[v] = multiBlock
		}
	}

	// chainEdge(u) returns v when the edge u -> v can be inside a DBB:
	// v is u's unique dynamic successor, u is v's unique dynamic
	// predecessor, and v != u. Otherwise it returns noBlock.
	chainEdge := func(u int32) int32 {
		v := succ[u]
		if v < 0 || v == u || pred[v] != u {
			return noBlock
		}
		return v
	}
	// "Always entered from the first block": the trace's first block
	// (local index 0) must begin a chain, so any chain edge entering
	// it is severed. "Always exited from the last block": the trace's
	// last block must end a chain, so its outgoing chain edge is
	// severed.
	first, last := int32(0), loc[len(loc)-1]
	outgoingChain := func(u int32) int32 {
		if u == last {
			return noBlock
		}
		if v := chainEdge(u); v != first {
			return v
		}
		return noBlock
	}
	hasIncomingChain := func(v int32) bool {
		if v == first {
			return false
		}
		u := pred[v]
		return u >= 0 && u != last && chainEdge(u) == v
	}

	// Heads: blocks that start a maximal chain — an outgoing chain edge
	// and no (unsevered) incoming one. Walk each head's chain. Cycles
	// are impossible here: a cycle has no head (every node has an
	// incoming chain edge) unless severed — and severing is what
	// created this head.
	start, end := fill(sc.start, k, -1), slices.Grow(sc.end[:0], k)[:k]
	seen := fill(sc.seen, k, -1)
	chain := sc.chain[:0]
	heads, saved := 0, 0
	for b := int32(0); b < int32(k); b++ {
		if outgoingChain(b) < 0 || hasIncomingChain(b) {
			continue
		}
		start[b] = int32(len(chain))
		chain = append(chain, b)
		seen[b] = b
		for u := b; ; {
			v := outgoingChain(u)
			if v < 0 || seen[v] == b {
				break
			}
			chain = append(chain, v)
			seen[v] = b
			u = v
		}
		end[b] = int32(len(chain))
		heads++
		// Every occurrence of the head is followed by the rest of its
		// chain, which the compacted trace drops.
		saved += int(count[b]) * int(end[b]-start[b]-1)
	}
	sc.start, sc.end, sc.seen, sc.chain = start, end, seen, chain

	// The dictionary's chains share one exactly sized backing array,
	// each capped at its own length.
	dict := make(Dictionary, heads)
	if heads > 0 {
		all := make(PathTrace, len(chain))
		for j, m := range chain {
			all[j] = ids[m]
		}
		for b := 0; b < k; b++ {
			if lo, hi := start[b], end[b]; lo >= 0 {
				dict[ids[b]] = all[lo:hi:hi]
			}
		}
	}

	// Rewrite the trace: each occurrence of a chain head is followed by
	// the full chain (guaranteed by construction); emit the head and
	// skip the rest.
	out := make(PathTrace, 0, len(tr)-saved)
	for i := 0; i < len(tr); {
		u := loc[i]
		out = append(out, tr[i])
		lo, hi := start[u], end[u]
		if lo < 0 {
			i++
			continue
		}
		// Defensive check: the construction guarantees a full
		// occurrence.
		for j, m := range chain[lo:hi] {
			if i+j >= len(tr) || loc[i+j] != m {
				panic(fmt.Sprintf("wpp: partial DBB occurrence of %v at %d in %v", dict[tr[i]], i, tr))
			}
		}
		i += int(hi - lo)
	}
	return out, dict
}

// fill returns s resliced to length n with every element set to v,
// reallocating only when its capacity is short.
func fill(s []int32, n int, v int32) []int32 {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// Reconstruct inverts the compaction, rebuilding the raw WPP (DCG with
// one trace per call). The result is Linear-equal to the input of
// Compact.
func (c *Compacted) Reconstruct() *trace.RawWPP {
	w := &trace.RawWPP{FuncNames: c.FuncNames}
	var rec func(n *CallNode) *trace.CallNode
	rec = func(n *CallNode) *trace.CallNode {
		ft := &c.Funcs[n.Fn]
		tn := &trace.CallNode{Fn: n.Fn, Trace: len(w.Traces)}
		w.Traces = append(w.Traces, ft.Expand(n.TraceIdx))
		for i, ch := range n.Children {
			tn.Children = append(tn.Children, rec(ch))
			tn.ChildPos = append(tn.ChildPos, n.ChildPos[i])
		}
		return tn
	}
	w.Root = rec(c.Root)
	return w
}

// UniqueTraceDistribution returns, for each function that is called at
// least once, the pair (unique trace count, call count) — the data
// behind Figure 8's redundancy CDF.
func (c *Compacted) UniqueTraceDistribution() (uniques, calls []int) {
	for f := range c.Funcs {
		ft := &c.Funcs[f]
		if ft.CallCount == 0 {
			continue
		}
		uniques = append(uniques, len(ft.Traces))
		calls = append(calls, ft.CallCount)
	}
	return uniques, calls
}
