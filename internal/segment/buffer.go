// Buffer: the pooled arena for Set.ExtractFunctionInto. It holds one
// wppfile.ExtractBuffer per segment a function may span, plus the
// merged-result slices and the two wpp.Table dedup tables, so the
// spanning-merge path performs zero heap allocations once warm — the
// same contract single-file pooled extraction keeps.

package segment

import (
	"sync"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// Buffer is a reusable extraction arena for Set.ExtractFunctionInto.
// Results alias the buffer and are valid only until its next use. A
// Buffer must not be used concurrently; pool them with
// GetBuffer/PutBuffer.
type Buffer struct {
	// parts holds one lazily-acquired decode buffer per segment the
	// current function spans; they are retained across calls and
	// returned to the wppfile pool by PutBuffer.
	parts   []*wppfile.ExtractBuffer
	results []*core.FunctionTWPP

	// Merged-result arenas, truncated (not freed) between calls.
	ptrs   []*core.Trace
	dictOf []int
	dicts  []wpp.Dictionary

	// Per-part scratch: each part dictionary's hash (computed once per
	// dictionary, not once per trace) and its remapped merged index.
	dictHash  []uint64
	dictRemap []int

	traceTab wpp.Table
	dictTab  wpp.Table

	ft core.FunctionTWPP
}

var bufPool = sync.Pool{New: func() any { return &Buffer{} }}

// GetBuffer returns a pooled Buffer.
func GetBuffer() *Buffer { return bufPool.Get().(*Buffer) }

// PutBuffer returns b (and its per-segment sub-buffers) to the pools.
// Results previously extracted into b must no longer be referenced.
func PutBuffer(b *Buffer) {
	if b == nil {
		return
	}
	for i, eb := range b.parts {
		if eb != nil {
			wppfile.PutExtractBuffer(eb)
			b.parts[i] = nil
		}
	}
	bufPool.Put(b)
}

// part returns the i-th per-segment decode buffer, acquiring it from
// the wppfile pool on first use.
func (b *Buffer) part(i int) *wppfile.ExtractBuffer {
	for len(b.parts) <= i {
		b.parts = append(b.parts, nil)
	}
	if b.parts[i] == nil {
		b.parts[i] = wppfile.GetExtractBuffer()
	}
	return b.parts[i]
}

// partResults returns the scratch slice for per-segment extraction
// results, sized n.
func (b *Buffer) partResults(n int) []*core.FunctionTWPP {
	if cap(b.results) < n {
		b.results = make([]*core.FunctionTWPP, n)
	}
	return b.results[:n]
}

// hashTWPPTrace hashes a decoded TWPP trace's full content: length,
// block ids, and every timestamp run.
func hashTWPPTrace(tr *core.Trace) uint64 {
	h := wpp.Mix64(wpp.Mix64(wpp.HashStart, uint64(tr.Len)), uint64(len(tr.Blocks)))
	for _, bt := range tr.Blocks {
		h = wpp.Mix64(h, uint64(bt.Block))
		h = wpp.Mix64(h, uint64(len(bt.Times)))
		for _, e := range bt.Times {
			h = wpp.Mix64(h, uint64(e.Lo))
			h = wpp.Mix64(h, uint64(e.Hi))
			h = wpp.Mix64(h, uint64(e.Step))
		}
	}
	return h
}

// twppTracesEqual reports deep equality of two decoded TWPP traces.
func twppTracesEqual(a, b *core.Trace) bool {
	if a.Len != b.Len || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i := range a.Blocks {
		x, y := &a.Blocks[i], &b.Blocks[i]
		if x.Block != y.Block || len(x.Times) != len(y.Times) {
			return false
		}
		for j := range x.Times {
			if x.Times[j] != y.Times[j] {
				return false
			}
		}
	}
	return true
}

// mergeParts merges a function's per-segment extraction results in
// manifest order with keep-first deduplication of traces, re-deriving
// the deduplicated dictionary list in merged first-use order — exactly
// the set-global trace numbering the DCG references. With buf nil it
// allocates a standalone result (sharing the immutable per-segment
// Trace and Dictionary values); with buf non-nil it reuses buf's
// arenas and allocates nothing once warm.
//
// disjoint asserts the parts are trace windows of one write session:
// the (trace, dictionary) pair determines the original path, so a
// session's unique-trace list holds no duplicate pairs and windows
// partitioning it cannot overlap. The merge then skips per-trace
// hashing entirely — traces concatenate, only dictionaries dedup —
// producing the identical result at a fraction of the cost.
func mergeParts(fn cfg.FuncID, parts []*core.FunctionTWPP, disjoint bool, buf *Buffer) *core.FunctionTWPP {
	ntr, nd, calls := 0, 0, 0
	for _, p := range parts {
		ntr += len(p.Traces)
		nd += len(p.Dicts)
		calls += p.CallCount
	}

	var (
		ptrs      []*core.Trace
		dictOf    []int
		dicts     []wpp.Dictionary
		dictHash  []uint64
		dictRemap []int
		traceTab  *wpp.Table
		dictTab   *wpp.Table
	)
	if buf != nil {
		ptrs = buf.ptrs[:0]
		dictOf = buf.dictOf[:0]
		dicts = buf.dicts[:0]
		dictHash = buf.dictHash[:0]
		dictRemap = buf.dictRemap[:0]
		traceTab, dictTab = &buf.traceTab, &buf.dictTab
	} else {
		ptrs = make([]*core.Trace, 0, ntr)
		dictOf = make([]int, 0, ntr)
		dicts = make([]wpp.Dictionary, 0, nd)
		traceTab, dictTab = new(wpp.Table), new(wpp.Table)
	}
	if !disjoint {
		traceTab.Reset(ntr)
	}
	dictTab.Reset(nd)

	// mergeDict interns one part dictionary (hash dh) into the merged
	// list, returning its merged index. Part dictionary lists are in
	// first-use order, so interning them part by part preserves the
	// merged first-use order byte-for-byte.
	mergeDict := func(d wpp.Dictionary, dh uint64) int {
		di, ok := dictTab.Find(dh, func(pos int) bool {
			return wpp.DictsEqual(dicts[pos], d)
		})
		if !ok {
			di = len(dicts)
			dictTab.Insert(dh, di)
			dicts = append(dicts, d)
		}
		return di
	}

	for _, p := range parts {
		if disjoint {
			// Pure concatenation: every trace is a first occurrence.
			// Only dictionaries dedup — a dictionary shared across a
			// window split was re-emitted in the continuation window.
			dictRemap = dictRemap[:0]
			for _, d := range p.Dicts {
				dictRemap = append(dictRemap, mergeDict(d, wpp.HashDict(d)))
			}
			ptrs = append(ptrs, p.Traces...)
			for _, pd := range p.DictOf {
				dictOf = append(dictOf, dictRemap[pd])
			}
			continue
		}
		// Hash each part dictionary once, not once per trace.
		dictHash = dictHash[:0]
		for _, d := range p.Dicts {
			dictHash = append(dictHash, wpp.HashDict(d))
		}
		for i, tr := range p.Traces {
			d := p.Dicts[p.DictOf[i]]
			dh := dictHash[p.DictOf[i]]
			// A trace's identity is the (compacted trace, dictionary)
			// pair: distinct original paths can compact to equal trace
			// bytes under different dictionaries, so keep-first dedup
			// must compare both.
			h := wpp.Mix64(hashTWPPTrace(tr), dh)
			if _, ok := traceTab.Find(h, func(pos int) bool {
				return twppTracesEqual(ptrs[pos], tr) && wpp.DictsEqual(dicts[dictOf[pos]], d)
			}); !ok {
				traceTab.Insert(h, len(ptrs))
				ptrs = append(ptrs, tr)
				dictOf = append(dictOf, mergeDict(d, dh))
			}
		}
	}

	if buf != nil {
		buf.ptrs, buf.dictOf, buf.dicts = ptrs, dictOf, dicts
		buf.dictHash, buf.dictRemap = dictHash, dictRemap
		buf.ft = core.FunctionTWPP{Fn: fn, Traces: ptrs, Dicts: dicts, DictOf: dictOf, CallCount: calls}
		return &buf.ft
	}
	return &core.FunctionTWPP{Fn: fn, Traces: ptrs, Dicts: dicts, DictOf: dictOf, CallCount: calls}
}
