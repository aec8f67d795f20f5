// The bounded-memory raw-file reader: replays an uncompacted WPP file
// as trace events through a bounded buffer, never slurping the file.
// Together with wpp.StreamCompactor, core.StreamCompactor, and the
// encoder in encode.go these close the streaming ingestion pipeline:
// raw file -> events -> online compaction -> compacted file. Only the
// input is bounded; the compacted file image is assembled in memory.

package wppfile

import (
	"context"
	"io"
	"math"

	"twpp/internal/cfg"
	"twpp/internal/encoding"
	"twpp/internal/sequitur"
	"twpp/internal/trace"
)

// RawStreamReader reads an uncompacted WPP file incrementally. The
// header (magic, version, function names) is consumed at construction;
// Replay then demultiplexes the symbol stream into any trace.EventSink
// one buffered read at a time, so memory stays constant no matter the
// trace length. Errors — including on truncated or corrupt input — are
// identical to ReadRaw's, which is itself built on this reader.
type RawStreamReader struct {
	c     *encoding.StreamCursor
	names []string
	demux trace.Demux
}

// NewRawStreamReader starts reading an uncompacted WPP stream from r.
// size is the total byte size of the stream, or < 0 when unknown (a
// known size gives corrupt length fields crisper errors; parsing is
// identical either way).
func NewRawStreamReader(r io.Reader, size int64) (*RawStreamReader, error) {
	c := encoding.NewStreamCursor(r, size)
	names, err := readRawHeader(c)
	if err != nil {
		return nil, err
	}
	return &RawStreamReader{c: c, names: names}, nil
}

// Names returns the function name table from the file header.
func (rr *RawStreamReader) Names() []string { return rr.names }

// Replay decodes the remaining symbol stream and feeds it into sink as
// validated trace events, consuming the reader.
func (rr *RawStreamReader) Replay(sink trace.EventSink) error {
	return rr.ReplayCtx(context.Background(), sink)
}

// ReplayCtx is Replay with cooperative cancellation, polled every few
// thousand symbols so a canceled context abandons an arbitrarily long
// stream promptly. The header declares every function, so the demux is
// armed with that bound (trace.Demux.NumFuncs): an ENTER beyond the
// name table is rejected as a structured *trace.StreamError before any
// sink sizes per-function state by an attacker-controlled id.
func (rr *RawStreamReader) ReplayCtx(ctx context.Context, sink trace.EventSink) error {
	rr.demux = trace.Demux{Sink: sink, NumFuncs: len(rr.names)}
	// Symbols are batch-decoded from the cursor's buffered window (at
	// most replayBatch per outer iteration, so cancellation stays
	// prompt) and fed to the demux as one slice, which delivers block
	// runs. A symbol whose varint straddles the buffer edge — or is
	// malformed — falls through to the per-value path, which reports
	// errors with exact parity to the historical symbol-at-a-time loop.
	const replayBatch = 512
	var vals [replayBatch]uint64
	var offs [replayBatch]int
	var syms [replayBatch]uint32
	for !rr.c.Done() {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		k := rr.c.UvarintBatchBuffered(vals[:], offs[:])
		if k == 0 {
			offs[0] = rr.c.Pos()
			v, err := rr.c.Uvarint()
			if err != nil {
				return err
			}
			vals[0], k = v, 1
		}
		// Validate the decoded symbols, feed the valid prefix, and only
		// then report an invalid symbol, so a demux error earlier in the
		// batch still wins.
		n := 0
		var bad error
		for ; n < k; n++ {
			if syms[n], bad = rr.checkSym(vals[n], offs[n], rr.demux.Accepted()+n); bad != nil {
				break
			}
		}
		if err := rr.demux.Feed(syms[:n]...); err != nil {
			return err
		}
		if bad != nil {
			return bad
		}
	}
	return rr.demux.Close()
}

// Accepted reports how many symbols the last replay fed to its sink
// without error.
func (rr *RawStreamReader) Accepted() int { return rr.demux.Accepted() }

// checkSym validates one decoded symbol: symAt is the stream offset of
// its first byte, pos its 0-based position in the symbol stream.
func (rr *RawStreamReader) checkSym(sym uint64, symAt, pos int) (uint32, error) {
	if sym > math.MaxUint32 {
		return 0, encoding.Errf(encoding.CodeCorrupt, int64(symAt), "wppfile: symbol %d out of range", sym)
	}
	// A header with an empty name table declares no callable
	// functions at all; Demux treats NumFuncs == 0 as "no bound", so
	// keep the historical strictness here.
	if f, ok := sequitur.IsEnter(uint32(sym)); ok && len(rr.names) == 0 {
		return 0, &trace.StreamError{Kind: trace.StreamUnknownFunc, Pos: pos, Sym: uint32(sym), Func: cfg.FuncID(f)}
	}
	return uint32(sym), nil
}
