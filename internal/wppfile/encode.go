// Compacted-format writer: one encoder assembles the file image in
// memory, byte-identical at any worker count. Every container write —
// single files, the streaming pipeline, and segment seals — goes
// through it. It writes format v2; its FormatV1 branch is kept only to
// generate legacy inputs for the v1 reader's tests.

package wppfile

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/lzw"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// indexEntry describes one function's block in the file.
type indexEntry struct {
	Fn        cfg.FuncID
	CallCount int
	Offset    int // relative to the start of the blocks section
	Length    int
	// CRC is the CRC32-C of the encoded block bytes. Stored in the v2
	// index (and verified on every extraction); zero for v1 files.
	CRC uint32
}

// checkFormat resolves a requested format: 0 selects FormatV2.
func checkFormat(format int) (int, error) {
	switch format {
	case 0:
		return FormatV2, nil
	case FormatV1, FormatV2:
		return format, nil
	default:
		return 0, fmt.Errorf("wppfile: unknown container format %d", format)
	}
}

// WriteCompacted serializes a TWPP in the compacted indexed format.
func WriteCompacted(path string, t *core.TWPP) error {
	return WriteCompactedFormat(path, t, 1, FormatV2)
}

// WriteCompactedFormat is WriteCompacted with per-function block
// encoding fanned out over workers goroutines (<= 0 selects
// runtime.GOMAXPROCS(0)), writing the given container format
// (FormatV2, or 0 for it; FormatV1 only for tests of the v1 reader).
func WriteCompactedFormat(path string, t *core.TWPP, workers, format int) error {
	data, err := EncodeCompactedFormat(t, workers, format)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// encodeBufPool recycles per-function encode buffers across
// EncodeCompactedWorkers calls.
var encodeBufPool = sync.Pool{New: func() any { return new([]byte) }}

// EncodeCompactedWorkers produces the compacted file image in memory,
// with the per-function blocks encoded concurrently into pooled
// buffers. The index and final
// image are assembled sequentially in hotness order, so the output is
// byte-identical to the sequential (workers == 1) path for any worker
// count.
func EncodeCompactedWorkers(t *core.TWPP, workers int) ([]byte, error) {
	return EncodeCompactedFormat(t, workers, FormatV2)
}

// EncodeCompactedFormat is EncodeCompactedWorkers emitting the given
// container format: FormatV2 (or 0 for it), or FormatV1, which only
// tests of the v1 reader write.
func EncodeCompactedFormat(t *core.TWPP, workers, format int) ([]byte, error) {
	format, err := checkFormat(format)
	if err != nil {
		return nil, err
	}

	// Per-function blocks, hottest function first (the paper stores
	// the most frequently called function's traces first).
	order := hotOrder(t)

	// Encode each function's block into its own pooled buffer,
	// concurrently when workers allow. Blocks only ever append to
	// their buffer, so the per-function bytes are independent of
	// scheduling. RunJobs fails only on a canceled context, and
	// Background never is.
	parts := make([]*[]byte, len(order))
	_ = wpp.RunJobs(context.Background(), len(order), workers, func(i int) {
		bp := encodeBufPool.Get().(*[]byte)
		*bp = encodeFunctionBlock((*bp)[:0], &t.Funcs[order[i]])
		parts[i] = bp
	})

	// Assemble the blocks section and its index sequentially in
	// hotness order, returning buffers to the pool as they are
	// consumed.
	total := 0
	for _, bp := range parts {
		total += len(*bp)
	}
	blocks := make([]byte, 0, total)
	index := make([]indexEntry, 0, len(order))
	for i, f := range order {
		start := len(blocks)
		blocks = append(blocks, *parts[i]...)
		e := indexEntry{
			Fn:        f,
			CallCount: t.Funcs[f].CallCount,
			Offset:    start,
			Length:    len(blocks) - start,
		}
		if format == FormatV2 {
			e.CRC = Checksum(blocks[start:])
		}
		index = append(index, e)
		encodeBufPool.Put(parts[i])
		parts[i] = nil
	}

	dcg := lzw.Compress(EncodeDCG(&t.DCG))
	return assembleImage(t.FuncNames, index, dcg, blocks, format), nil
}

// assembleImage lays out a container image from its encoded parts: the
// name table, the index, the compressed DCG and the concatenated
// function blocks.
func assembleImage(names []string, index []indexEntry, dcg, blocks []byte, format int) []byte {
	if format == FormatV1 {
		// v1: header, names, index, DCG, blocks — implicit layout.
		buf := appendCompactedHeader(nil, names, index, len(dcg))
		buf = append(buf, dcg...)
		return append(buf, blocks...)
	}

	// v2: magic/version, META, DCG, BLOCKS, then the trailer
	// directory locating and checksumming all three.
	buf := appendV2Prefix(nil)
	metaOff := len(buf)
	buf = appendMetaV2(buf, names, index)
	meta := section{ID: SecMeta, Codec: CodecRaw, Offset: int64(metaOff),
		Length: int64(len(buf) - metaOff), CRC: Checksum(buf[metaOff:])}
	dcgOff := len(buf)
	buf = append(buf, dcg...)
	dcgSec := section{ID: SecDCG, Codec: CodecLZW, Offset: int64(dcgOff),
		Length: int64(len(dcg)), CRC: Checksum(dcg)}
	blocksOff := len(buf)
	buf = append(buf, blocks...)
	blocksSec := section{ID: SecBlocks, Codec: CodecRaw, Offset: int64(blocksOff),
		Length: int64(len(blocks)), CRC: Checksum(blocks)}
	return appendDirectory(buf, []section{meta, dcgSec, blocksSec})
}

// appendV2Prefix appends the fixed v2 prefix: magic plus the version
// varint — exactly V2HeaderLen bytes.
func appendV2Prefix(buf []byte) []byte {
	buf = encoding.PutUint32(buf, MagicCompacted)
	return encoding.PutUvarint(buf, FormatV2)
}

// appendCompactedHeader appends the v1 header, name table, index, and
// DCG length prefix — everything that precedes the compressed DCG
// bytes in a v1 file.
func appendCompactedHeader(buf []byte, names []string, index []indexEntry, dcgLen int) []byte {
	buf = encoding.PutUint32(buf, MagicCompacted)
	buf = encoding.PutUvarint(buf, FormatV1)
	buf = encoding.PutUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = encoding.PutString(buf, n)
	}
	buf = encoding.PutUvarint(buf, uint64(len(index)))
	for _, e := range index {
		buf = encoding.PutUvarint(buf, uint64(e.Fn))
		buf = encoding.PutUvarint(buf, uint64(e.CallCount))
		buf = encoding.PutUvarint(buf, uint64(e.Offset))
		buf = encoding.PutUvarint(buf, uint64(e.Length))
	}
	return encoding.PutUvarint(buf, uint64(dcgLen))
}

// appendMetaV2 appends the v2 META section payload: name table and the
// per-function index, each entry carrying its block's CRC32-C.
func appendMetaV2(buf []byte, names []string, index []indexEntry) []byte {
	buf = encoding.PutUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = encoding.PutString(buf, n)
	}
	buf = encoding.PutUvarint(buf, uint64(len(index)))
	for _, e := range index {
		buf = encoding.PutUvarint(buf, uint64(e.Fn))
		buf = encoding.PutUvarint(buf, uint64(e.CallCount))
		buf = encoding.PutUvarint(buf, uint64(e.Offset))
		buf = encoding.PutUvarint(buf, uint64(e.Length))
		buf = encoding.PutUint32(buf, e.CRC)
	}
	return buf
}

// encodeFunctionBlock appends one function's dictionaries and TWPP
// traces.
func encodeFunctionBlock(buf []byte, ft *core.FunctionTWPP) []byte {
	buf = encoding.PutUvarint(buf, uint64(ft.CallCount))
	buf = encoding.PutUvarint(buf, uint64(len(ft.Dicts)))
	for _, d := range ft.Dicts {
		buf = AppendDictionary(buf, d)
	}
	buf = encoding.PutUvarint(buf, uint64(len(ft.Traces)))
	for i, tr := range ft.Traces {
		buf = AppendTraceRecord(buf, ft.DictOf[i], tr)
	}
	return buf
}

// AppendDictionary appends one dictionary's canonical encoding (chains
// in ascending head order). The segment writer uses it to size
// trace-window splits with the exact bytes the block encoder emits.
func AppendDictionary(buf []byte, d wpp.Dictionary) []byte {
	heads := make([]cfg.BlockID, 0, len(d))
	for h := range d {
		heads = append(heads, h)
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	buf = encoding.PutUvarint(buf, uint64(len(heads)))
	for _, h := range heads {
		chain := d[h]
		buf = encoding.PutUvarint(buf, uint64(h))
		buf = encoding.PutUvarint(buf, uint64(len(chain)))
		for _, id := range chain {
			buf = encoding.PutUvarint(buf, uint64(id))
		}
	}
	return buf
}

// AppendTraceRecord appends one TWPP trace record (dictionary index,
// original length, per-block timestamp series) — the per-trace unit of
// a function block. Each block's series is its value count followed by
// every entry's sign-terminated values (core.Entry.Signed), emitted
// straight into buf.
func AppendTraceRecord(buf []byte, dictIdx int, tr *core.Trace) []byte {
	buf = encoding.PutUvarint(buf, uint64(dictIdx))
	buf = encoding.PutUvarint(buf, uint64(tr.Len))
	buf = encoding.PutUvarint(buf, uint64(len(tr.Blocks)))
	for _, bt := range tr.Blocks {
		buf = encoding.PutUvarint(buf, uint64(bt.Block))
		buf = encoding.PutUvarint(buf, uint64(bt.Times.Words()))
		for _, e := range bt.Times {
			vals, n := e.Signed()
			for _, v := range vals[:n] {
				buf = encoding.PutVarint(buf, v)
			}
		}
	}
	return buf
}

// TraceRecordLen returns the length of the trace record
// AppendTraceRecord would append, without encoding it.
func TraceRecordLen(dictIdx int, tr *core.Trace) int {
	n := encoding.UvarintLen(uint64(dictIdx)) + encoding.UvarintLen(uint64(tr.Len)) + encoding.UvarintLen(uint64(len(tr.Blocks)))
	for _, bt := range tr.Blocks {
		n += encoding.UvarintLen(uint64(bt.Block)) + encoding.UvarintLen(uint64(bt.Times.Words()))
		for _, e := range bt.Times {
			vals, k := e.Signed()
			for _, v := range vals[:k] {
				n += encoding.UvarintLen(encoding.ZigZag(v))
			}
		}
	}
	return n
}

// EncodeDCG serializes the compacted DCG in preorder: per call its
// function, unique trace index and child count, then per child its
// position delta before the child's own encoding. These are the bytes
// a container stores LZW-compressed.
func EncodeDCG(d *trace.DCG) []byte {
	var buf []byte
	// The open calls' subtree ends and last child positions.
	type open struct{ end, prev int }
	var stack []open
	for i := 0; i < d.Len(); i++ {
		for len(stack) > 0 && stack[len(stack)-1].end <= i {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := &stack[len(stack)-1]
			buf = encoding.PutUvarint(buf, uint64(d.Pos[i]-p.prev))
			p.prev = d.Pos[i]
		}
		kids := 0
		for c := i + 1; c < d.End[i]; c = d.End[c] {
			kids++
		}
		buf = encoding.PutUvarint(buf, uint64(d.Fn[i]))
		buf = encoding.PutUvarint(buf, uint64(d.Trace[i]))
		buf = encoding.PutUvarint(buf, uint64(kids))
		stack = append(stack, open{end: d.End[i]})
	}
	return buf
}

// hotOrder returns the called functions hottest-first (call count
// descending, id ascending) — the on-disk block order.
func hotOrder(t *core.TWPP) []cfg.FuncID {
	order := make([]cfg.FuncID, 0, len(t.Funcs))
	for f := range t.Funcs {
		if t.Funcs[f].CallCount > 0 {
			order = append(order, cfg.FuncID(f))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := &t.Funcs[order[i]], &t.Funcs[order[j]]
		if a.CallCount != b.CallCount {
			return a.CallCount > b.CallCount
		}
		return order[i] < order[j]
	})
	return order
}

// HotOrder is the exported form of hotOrder: the called functions
// hottest-first (call count descending, id ascending), the canonical
// on-disk block order. The segment writer and merger use it so every
// sealed segment ranks its own blocks exactly as a single-file encode
// would.
func HotOrder(t *core.TWPP) []cfg.FuncID { return hotOrder(t) }
