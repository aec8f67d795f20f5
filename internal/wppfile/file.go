// CompactedFile: the random-access handle over a compacted container,
// reading through a pluggable storage.Backend. Open reads only the
// header/index (plus, for v2, the trailer directory); per-function
// extraction is one positioned read at the function's block offset.

package wppfile

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/lzw"
	"twpp/internal/storage"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// CompactedFile provides indexed access to a compacted TWPP file.
// Open reads only the header and index; per-function extraction reads
// directly at the function's block offset.
//
// Concurrency contract: a CompactedFile is safe for concurrent use by
// multiple goroutines. All access after Open uses positioned ReadAt
// I/O on the shared backend (never Seek+Read, which would race on a
// file position), and the header, index, and order fields are
// immutable once Open returns. When the decode cache is enabled
// (OpenOptions.CacheEntries > 0), ExtractFunction may return the same
// *core.FunctionTWPP to several goroutines: callers must treat
// extracted blocks as read-only.
type CompactedFile struct {
	b storage.Backend
	// format is the container format the file was written in
	// (FormatV1 or FormatV2), fixed at Open.
	format    int
	FuncNames []string
	index     map[cfg.FuncID]indexEntry
	// order preserves the on-disk (hotness) order of the index.
	order []cfg.FuncID
	// dcgOffset/dcgLen locate the encoded DCG; dcgCodec says how it
	// is stored (always CodecLZW for files this package writes).
	dcgOffset int64
	dcgLen    int
	dcgCodec  uint64
	// dcgCRC is the stored DCG section checksum (v2 only);
	// dcgVerified flips once it has been checked so repeated ReadDCG
	// calls do not re-hash. For v1 files it starts true.
	dcgCRC      uint32
	dcgVerified atomic.Bool
	// blocksOffset/blocksLen bound the blocks section; blocksCRC is
	// the stored whole-section checksum (v2 only), verified by the
	// eager path. size is the total file size.
	blocksOffset int64
	blocksLen    int64
	blocksCRC    uint32
	// dirCRC is the v2 trailer directory checksum. The directory
	// stores every section's CRC, so dirCRC is a free whole-container
	// content hash (ContentHash).
	dirCRC uint32
	size   int64
	// secHeader/secDCG/secBlocks are the SectionSizes breakdown,
	// computed once when the header parse finishes.
	secHeader, secDCG, secBlocks int64
	// lim holds the resolved decode resource limits from OpenOptions.
	lim limits
	// cache, when non-nil, holds recently decoded function blocks.
	cache *decodeCache
	// inst, when non-nil, receives decode-path events (OpenOptions.Instrument).
	inst *Instrument
	// closeOnce/closed make Close idempotent and let extraction fail
	// fast (wrapping os.ErrClosed) instead of racing the backend.
	closeOnce sync.Once
	closeErr  error
	closed    atomic.Bool
}

// NoLimit disables an OpenOptions resource limit (a zero value selects
// the default instead).
const NoLimit = -1

// Default decode resource limits. They are far above anything the
// encoder produces for real profiles, so hitting one means the input
// is hostile or corrupt, not large.
const (
	// DefaultMaxTraceBytes caps a single function block's encoded
	// length and the decompressed DCG size (1 GiB).
	DefaultMaxTraceBytes = int64(1) << 30
	// DefaultMaxFuncTraces caps the declared unique-trace count of one
	// function block.
	DefaultMaxFuncTraces = 1 << 21
	// DefaultMaxSeqValues caps a declared trace length and a declared
	// per-block timestamp value count, bounding the allocation a single
	// length field can demand before any of its values decode.
	DefaultMaxSeqValues = 1 << 24
)

// ErrNoFunction matches (errors.Is) extraction of a function absent
// from the file's index — a lookup miss, not a decode failure. Serving
// surfaces map it to "not found" rather than "bad input".
var ErrNoFunction = errors.New("function not present in WPP")

// Instrument carries optional decode-path callbacks, the hook the
// observability layer uses to count cache behaviour and decode volume
// without the file depending on any metrics package. Callbacks may be
// invoked concurrently and must be cheap and non-blocking; nil fields
// are skipped.
type Instrument struct {
	// OnDecode fires after a function block is read and decoded from
	// disk (with caching enabled, a cache miss), with the block's
	// encoded length in bytes.
	OnDecode func(fn cfg.FuncID, encodedBytes int)
	// OnCacheHit fires when an extraction is served from the decode
	// cache.
	OnCacheHit func(fn cfg.FuncID)
}

// OpenOptions configures OpenCompactedOptions.
type OpenOptions struct {
	// Backend selects how the container bytes are accessed: buffered
	// positioned reads on a file descriptor (KindFile, the zero
	// value), a read-only memory mapping (KindMmap), or an in-memory
	// copy (KindMemory).
	Backend storage.Kind

	// VerifyChecksums forces eager verification of every v2 section
	// checksum at Open, including the whole BLOCKS section. Without
	// it, sections verify lazily: META and the directory at Open, the
	// DCG on first read, and each function block (against its index
	// CRC) on each uncached extraction. No effect on v1 files, which
	// carry no checksums.
	VerifyChecksums bool

	// CacheEntries sizes the sharded LRU cache of decoded function
	// blocks. 0 disables caching (every extraction decodes afresh).
	CacheEntries int

	// Instrument, when non-nil, receives decode-path events (cache
	// hits, block decodes) for metrics.
	Instrument *Instrument

	// MaxTraceBytes caps a single function block's encoded length (as
	// declared by the index) and the decompressed size of the DCG.
	// 0 selects DefaultMaxTraceBytes; NoLimit disables the cap.
	MaxTraceBytes int64
	// MaxFuncTraces caps the unique-trace count a function block may
	// declare. 0 selects DefaultMaxFuncTraces; NoLimit disables.
	MaxFuncTraces int
	// MaxSeqValues caps declared trace lengths and per-block timestamp
	// value counts before anything is allocated for them. 0 selects
	// DefaultMaxSeqValues; NoLimit disables.
	MaxSeqValues int
}

// limits is an OpenOptions with defaults resolved: every field is a
// directly comparable bound.
type limits struct {
	maxTraceBytes int64
	maxFuncTraces uint64
	maxSeqValues  uint64
}

func (o OpenOptions) resolve() limits {
	l := limits{
		maxTraceBytes: o.MaxTraceBytes,
		maxFuncTraces: uint64(o.MaxFuncTraces),
		maxSeqValues:  uint64(o.MaxSeqValues),
	}
	switch {
	case o.MaxTraceBytes == 0:
		l.maxTraceBytes = DefaultMaxTraceBytes
	case o.MaxTraceBytes < 0:
		l.maxTraceBytes = math.MaxInt64
	}
	switch {
	case o.MaxFuncTraces == 0:
		l.maxFuncTraces = DefaultMaxFuncTraces
	case o.MaxFuncTraces < 0:
		l.maxFuncTraces = math.MaxUint64
	}
	switch {
	case o.MaxSeqValues == 0:
		l.maxSeqValues = DefaultMaxSeqValues
	case o.MaxSeqValues < 0:
		l.maxSeqValues = math.MaxUint64
	}
	return l
}

// OpenCompacted opens a compacted TWPP file with caching disabled,
// reading header and index only.
func OpenCompacted(path string) (*CompactedFile, error) {
	return OpenCompactedOptions(path, OpenOptions{})
}

// OpenCompactedOptions opens a compacted TWPP file through the backend
// selected by opts.Backend, reading header and index only (plus a full
// checksum pass when opts.VerifyChecksums is set).
func OpenCompactedOptions(path string, opts OpenOptions) (*CompactedFile, error) {
	b, err := storage.Open(path, opts.Backend)
	if err != nil {
		return nil, err
	}
	cf, err := OpenCompactedBackend(b, opts)
	if err != nil {
		b.Close()
		return nil, err
	}
	return cf, nil
}

// OpenCompactedBytes opens a compacted container held in memory —
// the in-process path for verification and tests. data must not be
// mutated while the file is in use.
func OpenCompactedBytes(data []byte, opts OpenOptions) (*CompactedFile, error) {
	return OpenCompactedBackend(storage.FromBytes(data), opts)
}

// OpenCompactedBackend opens a compacted container over an
// already-open backend. On success the returned file owns b (Close
// closes it); on error the caller still owns b.
func OpenCompactedBackend(b storage.Backend, opts OpenOptions) (*CompactedFile, error) {
	cf := &CompactedFile{
		b:     b,
		index: make(map[cfg.FuncID]indexEntry),
		size:  b.Size(),
		lim:   opts.resolve(),
		cache: newDecodeCache(opts.CacheEntries),
		inst:  opts.Instrument,
	}
	if err := cf.parseHeader(); err != nil {
		return nil, err
	}
	// Precompute the Table 3 section breakdown: the DCG and blocks
	// sections are located, everything else (header, index/META, v2
	// directory and footer) is overhead.
	cf.secDCG = int64(cf.dcgLen)
	cf.secBlocks = cf.blocksLen
	cf.secHeader = cf.size - cf.secDCG - cf.secBlocks
	if opts.VerifyChecksums {
		if err := cf.verifyAllSections(); err != nil {
			return nil, err
		}
	}
	return cf, nil
}

// Close releases the underlying backend. It is idempotent and safe to
// call concurrently with extractions: the first call closes the
// backend and records the result, later calls return that same
// result, and extractions started after Close fail with an error
// wrapping os.ErrClosed.
func (cf *CompactedFile) Close() error {
	cf.closeOnce.Do(func() {
		cf.closed.Store(true)
		cf.closeErr = cf.b.Close()
	})
	return cf.closeErr
}

// FormatVersion reports the container format the file was written in
// (FormatV1 or FormatV2).
func (cf *CompactedFile) FormatVersion() int { return cf.format }

// Functions returns the function ids present, hottest first.
func (cf *CompactedFile) Functions() []cfg.FuncID {
	out := make([]cfg.FuncID, len(cf.order))
	copy(out, cf.order)
	return out
}

// CallCount reports the recorded invocation count of fn (0 if absent).
func (cf *CompactedFile) CallCount(fn cfg.FuncID) int {
	return cf.index[fn].CallCount
}

// ExtractFunction reads exactly one function's block: one positioned
// read plus one decode. This is the fast path of Table 4. With the
// decode cache enabled, repeated extractions of a hot function skip
// both the read and the decode; the returned block is then shared and
// must be treated as read-only.
func (cf *CompactedFile) ExtractFunction(fn cfg.FuncID) (*core.FunctionTWPP, error) {
	return cf.ExtractFunctionCtx(context.Background(), fn)
}

// ExtractFunctionCtx is ExtractFunction with cooperative cancellation:
// ctx is checked before the positioned read and before the decode, so
// an expired per-request deadline skips the remaining work with
// ctx.Err(). Cache hits are returned regardless of ctx — they cost
// nothing. On v2 files the block bytes are CRC-checked against the
// index before decoding, so extraction verifies exactly the bytes it
// read without touching the rest of the file.
func (cf *CompactedFile) ExtractFunctionCtx(ctx context.Context, fn cfg.FuncID) (*core.FunctionTWPP, error) {
	return cf.extractCtx(ctx, fn, nil, true)
}

// extractCtx is the one extraction implementation behind both
// ExtractFunctionCtx (buf == nil, cacheable) and
// ExtractFunctionIntoCtx (caller buffer, never cached: the cache must
// only hold blocks it owns, and a buffer-decoded block is overwritten
// by the buffer's next use). With a nil ebuf the block decodes into a
// pooled buffer and the result is an owned copy of it.
func (cf *CompactedFile) extractCtx(ctx context.Context, fn cfg.FuncID, ebuf *ExtractBuffer, cacheable bool) (*core.FunctionTWPP, error) {
	if cf.closed.Load() {
		return nil, fmt.Errorf("wppfile: extract function %d: %w", fn, os.ErrClosed)
	}
	if cf.cache != nil {
		if ft, ok := cf.cache.get(fn); ok {
			if cf.inst != nil && cf.inst.OnCacheHit != nil {
				cf.inst.OnCacheHit(fn)
			}
			return ft, nil
		}
	}
	e, ok := cf.index[fn]
	if !ok {
		return nil, fmt.Errorf("wppfile: function %d: %w", fn, ErrNoFunction)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	owned := ebuf == nil
	if owned {
		ebuf = GetExtractBuffer()
		defer PutExtractBuffer(ebuf)
	}
	ebuf.reset()
	buf := ebuf.blockBuf(e.Length)
	if _, err := cf.b.ReadAt(buf, cf.blocksOffset+int64(e.Offset)); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, encoding.Wrap(encoding.CodeTruncated, cf.blocksOffset+int64(e.Offset), err,
				fmt.Sprintf("wppfile: short read of function %d block", fn))
		}
		return nil, err
	}
	if cf.format == FormatV2 {
		if got := Checksum(buf); got != e.CRC {
			return nil, checksumErr(fmt.Sprintf("function %d block", fn),
				cf.blocksOffset+int64(e.Offset), e.CRC, got)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ft, err := decodeFunctionBlockInto(buf, fn, cf.lim, ebuf)
	if err != nil {
		return nil, err
	}
	if owned {
		ft = own(ft)
	}
	if cf.inst != nil && cf.inst.OnDecode != nil {
		cf.inst.OnDecode(fn, e.Length)
	}
	if cacheable && cf.cache != nil {
		cf.cache.put(fn, ft)
	}
	return ft, nil
}

// BlockLength reports the encoded on-disk length of fn's block (0 if
// the function is absent) — the per-function cost a serving layer can
// report without decoding.
func (cf *CompactedFile) BlockLength(fn cfg.FuncID) int {
	return cf.index[fn].Length
}

// CacheStats reports the decode cache's cumulative hit and miss
// counts (both zero when the cache is disabled).
func (cf *CompactedFile) CacheStats() (hits, misses uint64) {
	if cf.cache == nil {
		return 0, 0
	}
	return cf.cache.stats()
}

// CacheShardStats reports per-shard decode-cache hit/miss counts, or
// nil when the cache is disabled. Counters are shard-local (padded,
// never shared between shards), so reading them is contention-free.
func (cf *CompactedFile) CacheShardStats() []CacheShardStats {
	if cf.cache == nil {
		return nil
	}
	return cf.cache.shardStats()
}

// ContentHash returns a stable hash identifying the container's
// content, derived from the v2 trailer: the directory CRC32-C (which
// covers every section's stored CRC, so any payload change propagates
// into it) combined with the file size. ok is false for v1 files,
// which carry no checksums. The serving layer uses this as the basis
// for HTTP ETags.
func (cf *CompactedFile) ContentHash() (uint64, bool) {
	if cf.format != FormatV2 {
		return 0, false
	}
	return uint64(cf.dirCRC)<<32 | uint64(uint32(cf.size)), true
}

// dcgScratch is ReadDCG's pooled working memory: the stored section
// bytes, their decompression and the decoder's stack of open calls.
// The decoded DCG references none of them.
type dcgScratch struct {
	stored, raw []byte
	stack       []dcgFrame
}

var dcgScratchPool = sync.Pool{New: func() any { return new(dcgScratch) }}

// ReadDCG reads and decodes the dynamic call graph into fresh columns
// the caller owns. On v2 files the section checksum is verified the
// first time (racing first readers may both verify; the check is
// idempotent). The decompressed size is capped by
// OpenOptions.MaxTraceBytes, so a hostile DCG section cannot balloon
// (LZW expands up to ~65000x).
func (cf *CompactedFile) ReadDCG() (trace.DCG, error) {
	if cf.closed.Load() {
		return trace.DCG{}, fmt.Errorf("wppfile: read DCG: %w", os.ErrClosed)
	}
	s := dcgScratchPool.Get().(*dcgScratch)
	defer dcgScratchPool.Put(s)
	if cap(s.stored) < cf.dcgLen {
		s.stored = make([]byte, cf.dcgLen)
	}
	buf := s.stored[:cf.dcgLen]
	if _, err := cf.b.ReadAt(buf, cf.dcgOffset); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return trace.DCG{}, encoding.Wrap(encoding.CodeTruncated, cf.dcgOffset, err, "wppfile: short read of DCG section")
		}
		return trace.DCG{}, err
	}
	if !cf.dcgVerified.Load() {
		if got := Checksum(buf); got != cf.dcgCRC {
			return trace.DCG{}, checksumErr("DCG section", cf.dcgOffset, cf.dcgCRC, got)
		}
		cf.dcgVerified.Store(true)
	}
	raw := buf
	if cf.dcgCodec == CodecLZW {
		max := cf.lim.maxTraceBytes
		if max > math.MaxInt {
			max = math.MaxInt
		}
		var err error
		raw, err = lzw.AppendDecompress(s.raw[:0], buf, int(max))
		if err != nil {
			return trace.DCG{}, encoding.Wrap(encoding.CodeCorrupt, cf.dcgOffset, err, "wppfile: DCG")
		}
		s.raw = raw
	}
	return s.decodeDCG(raw)
}

// ReadAll reconstructs the complete TWPP from the file, decoding the
// DCG and every function block in parallel (see Assemble).
func (cf *CompactedFile) ReadAll() (*core.TWPP, error) {
	return Assemble(cf.FuncNames, cf.order, cf.ReadDCG, cf.ExtractFunction,
		func(fn cfg.FuncID, traceIdx int) error {
			return encoding.Errf(encoding.CodeCorrupt, cf.dcgOffset,
				"wppfile: DCG node references function %d trace %d, not in file", fn, traceIdx)
		})
}

// Assemble builds a complete TWPP from one DCG decode and one block
// per function of order, which must list each function once. The DCG
// is job 0 and order[i] is job i+1 of one wpp.RunJobs call at
// GOMAXPROCS, so at GOMAXPROCS 1 the jobs run inline in that order.
// Each job writes only its own result slot and records its own error;
// a job is skipped once an earlier job has failed, and the first
// error in job order is returned: the error a sequential decode
// reports. After the jobs, every DCG row's (function, trace)
// reference is validated against the decoded blocks, so downstream
// walkers (reconstruction, slicing, queries) can index Funcs and
// Traces without re-checking corrupt input; badRef builds the error
// for the first row that fails.
func Assemble(names []string, order []cfg.FuncID,
	readDCG func() (trace.DCG, error),
	extract func(cfg.FuncID) (*core.FunctionTWPP, error),
	badRef func(fn cfg.FuncID, traceIdx int) error) (*core.TWPP, error) {
	maxFn := len(names)
	for _, fn := range order {
		if int(fn) >= maxFn {
			maxFn = int(fn) + 1
		}
	}
	t := &core.TWPP{FuncNames: names, Funcs: make([]core.FunctionTWPP, maxFn)}
	for f := range t.Funcs {
		t.Funcs[f].Fn = cfg.FuncID(f)
	}
	errs := make([]error, len(order)+1)
	var firstFailed atomic.Int64
	firstFailed.Store(int64(len(errs)))
	// RunJobs fails only on a canceled context, and Background never is.
	_ = wpp.RunJobs(context.Background(), len(errs), 0, func(i int) {
		if int64(i) > firstFailed.Load() {
			return
		}
		var err error
		if i == 0 {
			t.DCG, err = readDCG()
		} else {
			var ft *core.FunctionTWPP
			if ft, err = extract(order[i-1]); err == nil {
				t.Funcs[order[i-1]] = *ft
			}
		}
		if err == nil {
			return
		}
		errs[i] = err
		for {
			cur := firstFailed.Load()
			if int64(i) >= cur || firstFailed.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, fn := range t.DCG.Fn {
		if ti := t.DCG.Trace[i]; fn < 0 || int(fn) >= len(t.Funcs) || ti < 0 || ti >= len(t.Funcs[fn].Traces) {
			return nil, badRef(fn, ti)
		}
	}
	return t, nil
}

// SectionSizes reports the on-disk sizes of the compacted file's
// components for the Table 3 breakdown: everything that is not DCG or
// blocks payload (header, index/META, and in v2 the directory and
// footer), the encoded DCG, and the function blocks. The values are
// computed once at Open and never touch the backend, so the call is
// safe and free concurrently with extractions.
func (cf *CompactedFile) SectionSizes() (header, dcg, blocks int64, err error) {
	return cf.secHeader, cf.secDCG, cf.secBlocks, nil
}
