// The uncompacted WPP format: the linear control flow trace as a
// varint symbol stream behind a name-table header. Reading always
// streams through a bounded buffer (RawStreamReader in stream.go);
// the Kind variants select the storage backend the stream is read
// from.

package wppfile

import (
	"os"

	"twpp/internal/cfg"
	"twpp/internal/encoding"
	"twpp/internal/storage"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// EncodeRaw produces the uncompacted linear file image in memory.
func EncodeRaw(w *trace.RawWPP) []byte {
	buf := encoding.PutUint32(nil, MagicRaw)
	buf = encoding.PutUvarint(buf, Version)
	buf = encoding.PutUvarint(buf, uint64(len(w.FuncNames)))
	for _, n := range w.FuncNames {
		buf = encoding.PutString(buf, n)
	}
	for _, sym := range w.Linear() {
		buf = encoding.PutUvarint(buf, uint64(sym))
	}
	return buf
}

// WriteRaw serializes a raw WPP as the uncompacted linear format.
func WriteRaw(path string, w *trace.RawWPP) error {
	return os.WriteFile(path, EncodeRaw(w), 0o644)
}

// ReadRaw parses an uncompacted WPP file, streaming it through a
// bounded buffer rather than loading it whole.
func ReadRaw(path string) (*trace.RawWPP, error) {
	return ReadRawKind(path, storage.KindFile)
}

// ReadRawKind is ReadRaw reading through the given storage backend.
func ReadRawKind(path string, kind storage.Kind) (*trace.RawWPP, error) {
	b, err := storage.Open(path, kind)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	rr, err := NewRawStreamReader(storage.Reader(b), b.Size())
	if err != nil {
		return nil, err
	}
	bld := trace.NewBuilder(rr.Names())
	if err := rr.Replay(bld); err != nil {
		return nil, err
	}
	return bld.Finish(), nil
}

// rawHeaderCursor is the cursor subset the raw header decoder needs;
// both encoding.Cursor and encoding.StreamCursor satisfy it.
type rawHeaderCursor interface {
	Uint32() (uint32, error)
	Uvarint() (uint64, error)
	String() (string, error)
	Len() int
	Pos() int
}

func readRawHeader(c rawHeaderCursor) ([]string, error) {
	magic, err := c.Uint32()
	if err != nil {
		return nil, err
	}
	if magic != MagicRaw {
		return nil, encoding.Errf(encoding.CodeBadMagic, 0, "wppfile: bad raw magic %#x", magic)
	}
	verAt := c.Pos()
	ver, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, encoding.Errf(encoding.CodeBadVersion, int64(verAt), "wppfile: unsupported raw version %d", ver)
	}
	nfAt := c.Pos()
	nf, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if nf > uint64(c.Len()) {
		return nil, encoding.Errf(encoding.CodeCorrupt, int64(nfAt), "wppfile: function count %d exceeds file size", nf)
	}
	// Grow incrementally with a capped initial capacity: a corrupt
	// count from a size-unknown stream then fails on a truncated read
	// instead of a giant allocation.
	capHint := int(nf)
	if capHint > 1<<12 {
		capHint = 1 << 12
	}
	names := make([]string, 0, capHint)
	for i := uint64(0); i < nf; i++ {
		s, err := c.String()
		if err != nil {
			return nil, err
		}
		names = append(names, s)
	}
	return names, nil
}

// scanSink is the trace.EventSink behind ScanRawForFunction: it keeps
// only the open-call stack and collects the traces of the one target
// function. Structural validation (balanced calls, blocks inside
// calls, ENTER ids within the declared table) is the Demux's job.
type scanSink struct {
	target cfg.FuncID
	stack  []scanFrame
	out    []wpp.PathTrace
}

type scanFrame struct {
	isTarget bool
	tr       wpp.PathTrace
}

func (s *scanSink) EnterCall(f cfg.FuncID) {
	s.stack = append(s.stack, scanFrame{isTarget: f == s.target})
}

func (s *scanSink) Blocks(ids []cfg.BlockID) {
	top := &s.stack[len(s.stack)-1]
	if top.isTarget {
		top.tr = append(top.tr, ids...)
	}
}

func (s *scanSink) ExitCall() {
	top := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	if top.isTarget {
		s.out = append(s.out, top.tr)
	}
}

// ScanRawForFunction extracts every path trace of function fn from an
// uncompacted WPP file. As in the paper, this must scan the whole
// file — it is the slow baseline of Table 4 — but the scan streams
// through a bounded buffer, holding only the open-call stack and the
// target function's traces. The stream is validated by trace.Demux,
// so malformed input fails with the same structured errors
// (*encoding.Error, *trace.StreamError) as every other decode surface.
func ScanRawForFunction(path string, fn cfg.FuncID) ([]wpp.PathTrace, error) {
	return ScanRawForFunctionKind(path, fn, storage.KindFile)
}

// ScanRawForFunctionKind is ScanRawForFunction reading through the
// given storage backend.
func ScanRawForFunctionKind(path string, fn cfg.FuncID, kind storage.Kind) ([]wpp.PathTrace, error) {
	b, err := storage.Open(path, kind)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	rr, err := NewRawStreamReader(storage.Reader(b), b.Size())
	if err != nil {
		return nil, err
	}
	sink := &scanSink{target: fn}
	if err := rr.Replay(sink); err != nil {
		return nil, err
	}
	return sink.out, nil
}
