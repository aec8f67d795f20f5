package encoding

import (
	"bufio"
	"io"
)

// maxChunk bounds single allocations made on behalf of length fields
// decoded from untrusted streams whose total size is unknown: reads
// are filled chunk by chunk so a corrupt length hits EOF before it can
// force a giant allocation.
const maxChunk = 1 << 20

// StreamCursor decodes the same varint vocabulary as Cursor but from
// an io.Reader through a fixed-size buffer, so decoding a stream never
// materializes it in memory. When the total input size is known
// (files, in-memory readers) it is supplied at construction and Len
// reports remaining bytes exactly; otherwise Len reports a value large
// enough that size-based sanity checks pass and chunked reads bound
// allocations instead.
//
// Error values and messages match Cursor byte for byte: ErrTruncated /
// ErrOverflow wrapped as "at offset %d: ...", so a consumer switched
// from slurp-and-Cursor to StreamCursor reports identical failures on
// identical inputs.
type StreamCursor struct {
	r    *bufio.Reader
	pos  int
	size int64 // total input size in bytes; < 0 when unknown
}

// NewStreamCursor returns a cursor over r. size is the total number of
// bytes r will yield, or < 0 when unknown.
func NewStreamCursor(r io.Reader, size int64) *StreamCursor {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	return &StreamCursor{r: br, size: size}
}

// Pos reports the number of bytes consumed so far.
func (c *StreamCursor) Pos() int { return c.pos }

// Len reports the number of unread bytes when the input size is known;
// with unknown size it returns a conservative maximum so callers'
// "count exceeds remaining input" checks never reject valid streams.
func (c *StreamCursor) Len() int {
	if c.size < 0 {
		return int(^uint(0) >> 1) // max int
	}
	n := c.size - int64(c.pos)
	if n < 0 {
		return 0
	}
	return int(n)
}

// Done reports whether the input is exhausted.
func (c *StreamCursor) Done() bool {
	_, err := c.r.Peek(1)
	return err == io.EOF
}

// Uvarint reads the next unsigned LEB128 varint.
func (c *StreamCursor) Uvarint() (uint64, error) {
	start := c.pos
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		b, err := c.r.ReadByte()
		if err != nil {
			if err == io.EOF {
				return 0, truncatedAt(start)
			}
			return 0, err
		}
		c.pos++
		if i == maxVarintLen64 {
			return 0, overflowAt(start)
		}
		if b < 0x80 {
			if i == maxVarintLen64-1 && b > 1 {
				return 0, overflowAt(start)
			}
			return v | uint64(b)<<shift, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
}

// Varint reads the next zigzag-encoded signed varint.
func (c *StreamCursor) Varint() (int64, error) {
	u, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	return UnZigZag(u), nil
}

// Uint32 reads a fixed-width little-endian uint32.
func (c *StreamCursor) Uint32() (uint32, error) {
	start := c.pos
	var b [4]byte
	n, err := io.ReadFull(c.r, b[:])
	c.pos += n
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, truncatedAt(start)
		}
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// Uint64 reads a fixed-width little-endian uint64.
func (c *StreamCursor) Uint64() (uint64, error) {
	lo, err := c.Uint32()
	if err != nil {
		return 0, err
	}
	hi, err := c.Uint32()
	if err != nil {
		return 0, err
	}
	return uint64(lo) | uint64(hi)<<32, nil
}

// Bytes reads exactly n raw bytes. Unlike Cursor.Bytes the returned
// slice is owned by the caller.
func (c *StreamCursor) Bytes(n int) ([]byte, error) {
	if n < 0 || c.Len() < n {
		return nil, Errf(CodeTruncated, int64(c.pos), "need %d bytes, have %d: %v", n, c.Len(), ErrTruncated)
	}
	// Fill in bounded chunks: when the input size is unknown the Len
	// check above cannot reject a lying length field, so never allocate
	// more than one chunk beyond what the stream has actually yielded.
	buf := make([]byte, 0, minInt(n, maxChunk))
	for len(buf) < n {
		chunk := minInt(n-len(buf), maxChunk)
		start := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		m, err := io.ReadFull(c.r, buf[start:])
		c.pos += m
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, Errf(CodeTruncated, int64(c.pos-m-start),
					"need %d bytes, have %d: %v", n, start+m, ErrTruncated)
			}
			return nil, err
		}
	}
	return buf, nil
}

// String reads a uvarint length followed by that many bytes.
func (c *StreamCursor) String() (string, error) {
	n, err := c.Uvarint()
	if err != nil {
		return "", err
	}
	b, err := c.Bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
