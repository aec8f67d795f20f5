package twpp

import (
	"context"
	"io"
	"os"

	"twpp/internal/core"
	"twpp/internal/segment"
	"twpp/internal/wppfile"
)

// StreamResult reports what a streaming compaction produced.
type StreamResult struct {
	// Stats carries the per-stage compaction sizes (Table 2 data),
	// identical to what CompactOpts reports for the same trace.
	Stats CompactStats
	// TraceBytes and DictBytes are the in-memory TWPP section sizes
	// (TWPP.SizeStats of the compacted result).
	TraceBytes int
	DictBytes  int
	// BytesWritten is the size of the emitted compacted file.
	BytesWritten int64
}

// StreamCompact reads a raw WPP stream from r and writes the compacted
// indexed format to w, running the whole pipeline online: the input is
// consumed through a bounded buffer, each call's path trace is deduped
// by hash the moment the call returns, new unique traces are
// DBB-compacted in background batches, and the timestamp inversion
// runs once per unique trace when the stream ends. The file image is
// then encoded in memory and written with one Write. Peak memory is
// O(unique traces + open call stack + dynamic call graph), not
// O(trace length); the image is a small share of it.
//
// The bytes written are identical to ReadRawFile + CompactOpts +
// WriteFileOpts on the same input, at any opts.Workers value, and
// malformed input fails with the same errors as ReadRawFile.
func StreamCompact(r io.Reader, w io.Writer, opts CompactOptions) (*StreamResult, error) {
	return StreamCompactContext(context.Background(), r, w, opts)
}

// StreamCompactContext is StreamCompact with cooperative cancellation:
// ctx is polled every few thousand input symbols and between
// per-function assembly steps, so canceling abandons the ingestion
// promptly with ctx.Err().
func StreamCompactContext(ctx context.Context, r io.Reader, w io.Writer, opts CompactOptions) (*StreamResult, error) {
	tw, res, err := streamTWPP(ctx, r)
	if err != nil {
		return nil, err
	}
	data, err := wppfile.EncodeCompactedFormat(tw, opts.Workers, FormatV2)
	if err != nil {
		return nil, err
	}
	n, err := w.Write(data)
	if err != nil {
		return nil, err
	}
	res.BytesWritten = int64(n)
	return res, nil
}

// StreamCompactSegmentedFileContext runs the streaming pipeline but
// seals the compacted result into a segmented container directory
// instead of one file: the ingestion is the same bounded-memory
// replay, and the flushed compaction feeds segment sealing directly.
// BytesWritten totals the sealed segment files.
func StreamCompactSegmentedFileContext(ctx context.Context, inPath, dir string, segOpts SegmentOptions, opts CompactOptions) (*StreamResult, error) {
	in, err := os.Open(inPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	tw, res, err := streamTWPP(ctx, in)
	if err != nil {
		return nil, err
	}
	if segOpts.Workers == 0 {
		segOpts.Workers = opts.Workers
	}
	man, err := segment.Write(dir, tw, segOpts)
	if err != nil {
		return nil, err
	}
	for _, e := range man.Segments {
		res.BytesWritten += e.Size
	}
	return res, nil
}

// streamTWPP replays the raw WPP stream r through the streaming
// compactor and returns the compacted TWPP with a result carrying its
// stats and section sizes; the caller encodes it and fills in
// BytesWritten.
func streamTWPP(ctx context.Context, r io.Reader) (*TWPP, *StreamResult, error) {
	rr, err := wppfile.NewRawStreamReader(r, streamSize(r))
	if err != nil {
		return nil, nil, err
	}
	s := core.NewStreamCompactor(rr.Names())
	if err := rr.ReplayCtx(ctx, s); err != nil {
		return nil, nil, err
	}
	tw, stats, err := s.FinishCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	traceB, dictB := tw.SizeStats()
	return tw, &StreamResult{Stats: stats, TraceBytes: traceB, DictBytes: dictB}, nil
}

// StreamCompactFile is StreamCompact over named files.
func StreamCompactFile(inPath, outPath string, opts CompactOptions) (*StreamResult, error) {
	return StreamCompactFileContext(context.Background(), inPath, outPath, opts)
}

// StreamCompactFileContext is StreamCompactFile with cooperative
// cancellation; on any failure (including cancellation) the partial
// output file is removed.
func StreamCompactFileContext(ctx context.Context, inPath, outPath string, opts CompactOptions) (*StreamResult, error) {
	in, err := os.Open(inPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	res, err := StreamCompactContext(ctx, in, out, opts)
	if err != nil {
		out.Close()
		os.Remove(outPath)
		return nil, err
	}
	if err := out.Close(); err != nil {
		os.Remove(outPath)
		return nil, err
	}
	return res, nil
}

// streamSize recovers the total stream size when r can report it
// (files and byte readers), so corrupt length fields fail with the
// same errors as the whole-file reader; -1 means unknown.
func streamSize(r io.Reader) int64 {
	switch v := r.(type) {
	case io.Seeker:
		cur, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		end, err := v.Seek(0, io.SeekEnd)
		if err != nil {
			return -1
		}
		if _, err := v.Seek(cur, io.SeekStart); err != nil {
			return -1
		}
		return end - cur
	case interface{ Len() int }:
		return int64(v.Len())
	}
	return -1
}
