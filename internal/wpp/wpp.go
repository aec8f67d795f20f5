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
// by 64-bit content hash with verified equality (see intern.go).
type PathTrace []cfg.BlockID

// Dictionary maps a dynamic-basic-block head to the full chain of
// static block ids it replaces (chains always have length >= 2; heads
// not present expand to themselves).
type Dictionary map[cfg.BlockID]PathTrace

// Expand appends the compacted path tr to dst with every head in d
// replaced by its chain, and returns the extended slice. It is the one
// loop that materializes a dictionary expansion.
func (d Dictionary) Expand(dst, tr PathTrace) PathTrace {
	for _, id := range tr {
		if chain, ok := d[id]; ok {
			dst = append(dst, chain...)
		} else {
			dst = append(dst, id)
		}
	}
	return dst
}

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
	return ft.Dicts[ft.DictOf[i]].Expand(make(PathTrace, 0, ft.OrigLen[i]), ft.Traces[i])
}

// Compacted is the fully compacted WPP of the paper's Figure 5.
type Compacted struct {
	FuncNames []string
	// DCG is the compacted dynamic call graph: each call references one
	// of its function's unique traces (Funcs[Fn].Traces) rather than
	// owning a trace, and its position counts blocks of its caller's
	// original (expanded) trace, exactly as in the raw DCG.
	DCG trace.DCG
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

// add accumulates o's sizes and counts into s.
func (s *Stats) add(o Stats) {
	s.RawTraceBytes += o.RawTraceBytes
	s.AfterRedundancy += o.AfterRedundancy
	s.AfterDictionary += o.AfterDictionary
	s.DictionaryBytes += o.DictionaryBytes
	s.UniqueTraces += o.UniqueTraces
	s.Calls += o.Calls
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
// the per-function pool checks ctx between functions, so a canceled
// context abandons a large compaction promptly. On cancellation the
// partial Compacted is discarded and ctx.Err() is returned.
func CompactWorkersCtx(ctx context.Context, w *trace.RawWPP, workers int) (*Compacted, Stats, error) {
	// Functions can appear in the DCG beyond the name table when names
	// are absent, so the table is sized by the DCG too.
	d := &w.DCG
	numFuncs := len(w.FuncNames)
	for _, f := range d.Fn {
		numFuncs = max(numFuncs, int(f)+1)
	}

	// Stage 1: partition. The compacted DCG is the raw one with each
	// call's trace index still to be interned; a counting sort over Fn
	// lists each function's calls in preorder, function f's in
	// rows[first[f]:first[f+1]].
	c := &Compacted{
		FuncNames: w.FuncNames,
		DCG:       d.Clone(),
		Funcs:     make([]FunctionTraces, numFuncs),
	}
	for f := range c.Funcs {
		c.Funcs[f].Fn = cfg.FuncID(f)
	}
	first := make([]int, numFuncs+1)
	for _, f := range d.Fn {
		first[f+1]++
	}
	for f := range numFuncs {
		first[f+1] += first[f]
	}
	rows := make([]int, d.Len())
	next := slices.Clone(first[:numFuncs])
	for i, f := range d.Fn {
		rows[next[f]] = i
		next[f]++
	}

	var stats Stats
	stats.RawTraceBytes = 4 * w.NumBlocks()
	stats.Calls = d.Len()

	// Stages 2 and 3, per function: intern the function's traces in
	// preorder, which keeps unique traces in first-occurrence order,
	// then compact each unique trace and assemble the function.
	// Functions are mutually independent here, so the work fans out
	// over a bounded pool; each job writes only its own c.Funcs[f]
	// slot, partial-stats slot and its function's rows of c.DCG.Trace,
	// and the partials are summed in function order afterwards so the
	// Stats accumulate identically to a sequential run.
	partial := make([]Stats, numFuncs)
	compactFunc := func(f int) {
		frows := rows[first[f]:first[f+1]]
		c.Funcs[f].CallCount = len(frows)
		var set traceSet
		for _, r := range frows {
			c.DCG.Trace[r], _ = set.intern(w.Traces[d.Trace[r]])
		}
		for _, u := range set.uniq {
			u.compact()
		}
		partial[f] = assemble(&c.Funcs[f], set.uniq)
	}
	if err := RunJobs(ctx, numFuncs, workers, compactFunc); err != nil {
		return nil, Stats{}, err
	}
	for _, ps := range partial {
		stats.add(ps)
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
// one trace per call, numbered in row order). The result is
// Linear-equal to the input of Compact.
func (c *Compacted) Reconstruct() *trace.RawWPP {
	w := &trace.RawWPP{FuncNames: c.FuncNames, DCG: c.DCG.Clone(), Traces: make([][]cfg.BlockID, c.DCG.Len())}
	for i, f := range c.DCG.Fn {
		w.Traces[i] = c.Funcs[f].Expand(c.DCG.Trace[i])
		w.DCG.Trace[i] = i
	}
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
