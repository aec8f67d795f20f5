// Extraction memory: ExtractBuffer owns every piece of memory a
// function-block decode needs, so a warm decode performs zero heap
// allocations. There is one decoder, and it always decodes into a
// buffer. The pooled path (ExtractFunctionInto) hands the caller the
// buffer-backed result; the owned path (ExtractFunction, or
// ExtractFunctionInto with a nil buffer) decodes into a pooled buffer
// and copies the result into exactly sized memory of its own (see
// own). Both paths therefore return identical results and identical
// structured errors on identical inputs.
//
// # Ownership contract
//
// A *core.FunctionTWPP returned by ExtractFunctionInto aliases the
// buffer it was decoded into: its trace, dictionary, and timestamp
// storage live in the buffer's arenas. It remains valid until the next
// ExtractFunctionInto call with the same buffer (or until the buffer
// is returned to the pool), at which point its contents are
// overwritten. Callers that need the block past that point must use
// ExtractFunction instead. Cache hits are the one exception: when the
// decode cache holds the block, ExtractFunctionInto returns the shared
// cached block, the buffer is untouched, and the usual read-only
// cache-sharing rules apply. Blocks decoded into a caller buffer are
// deliberately never inserted into the decode cache — the cache must
// only hold blocks it owns.

package wppfile

import (
	"context"
	"sync"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/wpp"
)

// ExtractBuffer holds reusable decode storage for ExtractFunctionInto.
// The zero value is ready to use; buffers grow to the largest block
// they have decoded and stay there. A buffer must not be used by more
// than one goroutine at a time.
type ExtractBuffer struct {
	// block holds the raw bytes of the function block read from the
	// backend.
	block []byte
	// svals is the signed-varint scratch a block's timestamp values
	// are batch-decoded into before series parsing.
	svals []int64
	// traces backs the *core.Trace values of the result; ptrs holds
	// the pointer slice handed out as FunctionTWPP.Traces.
	traces []core.Trace
	ptrs   []*core.Trace
	dictOf []int
	// dicts retains the dictionary maps across decodes: maps are
	// cleared (buckets kept) rather than reallocated, so warm decodes
	// insert into pre-grown tables.
	dicts []wpp.Dictionary
	// chains, times, and entries are bump arenas carved into the
	// result's chain, block-times, and timestamp-entry slices.
	chains  []cfg.BlockID
	times   []core.BlockTimes
	entries core.Seq
	// ft is the result header, reused across decodes.
	ft core.FunctionTWPP
}

// extractBufPool recycles ExtractBuffers for callers that do not want
// to manage their own.
var extractBufPool = sync.Pool{New: func() any { return new(ExtractBuffer) }}

// GetExtractBuffer returns a pooled ExtractBuffer. Pair with
// PutExtractBuffer once the results decoded into it are dead.
func GetExtractBuffer() *ExtractBuffer {
	return extractBufPool.Get().(*ExtractBuffer)
}

// PutExtractBuffer returns a buffer to the pool. The caller must not
// touch the buffer — or any FunctionTWPP decoded into it — afterwards.
func PutExtractBuffer(b *ExtractBuffer) {
	if b != nil {
		extractBufPool.Put(b)
	}
}

// reset truncates the arenas for a fresh decode. Previously returned
// results alias the underlying arrays and are invalidated.
func (b *ExtractBuffer) reset() {
	b.chains = b.chains[:0]
	b.times = b.times[:0]
	b.entries = b.entries[:0]
}

// blockBuf returns the reusable raw-block read buffer, sized to n.
func (b *ExtractBuffer) blockBuf(n int) []byte {
	if cap(b.block) < n {
		b.block = make([]byte, n)
	}
	b.block = b.block[:n]
	return b.block
}

// funcSlot returns the buffer's reused result header for fn.
func (b *ExtractBuffer) funcSlot(fn cfg.FuncID) *core.FunctionTWPP {
	b.ft = core.FunctionTWPP{Fn: fn}
	return &b.ft
}

// signedVals returns an int64 scratch slice of length n.
func (b *ExtractBuffer) signedVals(n int) []int64 {
	if cap(b.svals) < n {
		b.svals = make([]int64, n)
	}
	b.svals = b.svals[:n]
	return b.svals
}

// allocDicts returns the dictionary slice of length n, retaining any
// previously built maps for reuse.
func (b *ExtractBuffer) allocDicts(n int) []wpp.Dictionary {
	if cap(b.dicts) < n {
		nd := make([]wpp.Dictionary, n)
		copy(nd, b.dicts[:cap(b.dicts)])
		b.dicts = nd
	}
	b.dicts = b.dicts[:n]
	return b.dicts
}

// allocTraces returns the trace-pointer and dictionary-index slices of
// length n. The pointers address the buffer's trace arena, so the
// values are reused in place.
func (b *ExtractBuffer) allocTraces(n int) ([]*core.Trace, []int) {
	if cap(b.traces) < n {
		b.traces = make([]core.Trace, n)
	}
	b.traces = b.traces[:n]
	if cap(b.ptrs) < n {
		b.ptrs = make([]*core.Trace, n)
	}
	b.ptrs = b.ptrs[:n]
	for i := range b.ptrs {
		b.ptrs[i] = &b.traces[i]
	}
	if cap(b.dictOf) < n {
		b.dictOf = make([]int, n)
	}
	b.dictOf = b.dictOf[:n]
	return b.ptrs, b.dictOf
}

// allocChain carves an n-element chain from the chains arena. When the
// arena is full it is replaced with a larger one; slices carved
// earlier keep the old backing array, so they stay valid.
func (b *ExtractBuffer) allocChain(n int) wpp.PathTrace {
	if cap(b.chains)-len(b.chains) < n {
		b.chains = make([]cfg.BlockID, 0, 2*cap(b.chains)+n)
	}
	l := len(b.chains)
	b.chains = b.chains[: l+n : cap(b.chains)]
	return wpp.PathTrace(b.chains[l : l+n : l+n])
}

// allocTimes carves an n-element block-times slice from the arena.
func (b *ExtractBuffer) allocTimes(n int) []core.BlockTimes {
	if cap(b.times)-len(b.times) < n {
		b.times = make([]core.BlockTimes, 0, 2*cap(b.times)+n)
	}
	l := len(b.times)
	b.times = b.times[: l+n : cap(b.times)]
	return b.times[l : l+n : l+n]
}

// reserveEntries returns a zero-length Seq with capacity for n entries
// carved from the entries arena; commitEntries records how many of
// them the decode actually produced. A stream of n signed values
// decodes to at most n entries (every entry consumes at least one
// value), so the reservation never overflows.
func (b *ExtractBuffer) reserveEntries(n int) core.Seq {
	if cap(b.entries)-len(b.entries) < n {
		b.entries = make(core.Seq, 0, 2*cap(b.entries)+n)
	}
	l := len(b.entries)
	return b.entries[l : l : l+n]
}

// commitEntries advances the entries arena past the seq just decoded.
func (b *ExtractBuffer) commitEntries(s core.Seq) {
	b.entries = b.entries[:len(b.entries)+len(s)]
}

// own copies a block decoded into an ExtractBuffer into exactly sized
// memory the caller owns: one array each for the traces, their
// pointers, DictOf, the block-times, the timestamp entries and the
// chain ids, plus one map per dictionary. Each sub-slice is capped at
// its own length, so appending to one reallocates rather than writing
// into its neighbour. An empty timestamp set stays nil; every other
// slice is non-nil, even when empty.
func own(src *core.FunctionTWPP) *core.FunctionTWPP {
	nchain, nblocks, nents := 0, 0, 0
	for _, d := range src.Dicts {
		for _, chain := range d {
			nchain += len(chain)
		}
	}
	for _, tr := range src.Traces {
		nblocks += len(tr.Blocks)
		for _, bt := range tr.Blocks {
			nents += len(bt.Times)
		}
	}
	ft := &core.FunctionTWPP{
		Fn:        src.Fn,
		Traces:    make([]*core.Trace, len(src.Traces)),
		Dicts:     make([]wpp.Dictionary, len(src.Dicts)),
		DictOf:    make([]int, len(src.DictOf)),
		CallCount: src.CallCount,
	}
	copy(ft.DictOf, src.DictOf)
	chains := make(wpp.PathTrace, nchain)
	for i, d := range src.Dicts {
		od := make(wpp.Dictionary, len(d))
		for h, chain := range d {
			n := copy(chains, chain)
			od[h] = chains[:n:n]
			chains = chains[n:]
		}
		ft.Dicts[i] = od
	}
	traces := make([]core.Trace, len(src.Traces))
	times := make([]core.BlockTimes, nblocks)
	ents := make(core.Seq, nents)
	for i, tr := range src.Traces {
		nb := len(tr.Blocks)
		blocks := times[:nb:nb]
		times = times[nb:]
		for j, bt := range tr.Blocks {
			blocks[j].Block = bt.Block
			if len(bt.Times) > 0 {
				n := copy(ents, bt.Times)
				blocks[j].Times = ents[:n:n]
				ents = ents[n:]
			}
		}
		traces[i] = core.Trace{Blocks: blocks, Len: tr.Len}
		ft.Traces[i] = &traces[i]
	}
	return ft
}

// ExtractFunctionInto is ExtractFunction decoding into buf's reusable
// storage: a warm extract (buffer already grown to the block's shape)
// performs zero heap allocations. See the package comment on the
// ownership contract — the result is only valid until buf's next use.
// A nil buf is allowed and behaves like ExtractFunction without cache
// insertion: the result is owned by the caller.
func (cf *CompactedFile) ExtractFunctionInto(fn cfg.FuncID, buf *ExtractBuffer) (*core.FunctionTWPP, error) {
	return cf.ExtractFunctionIntoCtx(context.Background(), fn, buf)
}

// ExtractFunctionIntoCtx is ExtractFunctionInto with cooperative
// cancellation, mirroring ExtractFunctionCtx.
func (cf *CompactedFile) ExtractFunctionIntoCtx(ctx context.Context, fn cfg.FuncID, buf *ExtractBuffer) (*core.FunctionTWPP, error) {
	return cf.extractCtx(ctx, fn, buf, false)
}
