// Package encoding provides the low-level integer codecs shared by the
// WPP/TWPP file formats: unsigned LEB128 varints, zigzag-encoded signed
// varints, and a cursor type for decoding streams of them.
//
// The formats in this repository store almost everything as varints so
// that small block ids and small timestamp deltas (the common case by
// far) take one byte.
package encoding

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrTruncated is returned when a decode runs off the end of its input.
var ErrTruncated = errors.New("encoding: truncated input")

// ErrOverflow is returned when a varint does not terminate within the
// maximum width for its type.
var ErrOverflow = errors.New("encoding: varint overflows 64 bits")

// maxVarintLen64 is the maximum number of bytes of a 64-bit varint.
const maxVarintLen64 = 10

// PutUvarint appends the unsigned LEB128 encoding of v to dst and
// returns the extended slice.
func PutUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// UvarintLen returns the length in bytes of v's unsigned LEB128
// encoding, as PutUvarint would append it.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Uvarint decodes an unsigned LEB128 varint from the front of src. It
// returns the value and the number of bytes consumed.
func Uvarint(src []byte) (uint64, int, error) {
	var v uint64
	var shift uint
	for i, b := range src {
		if i == maxVarintLen64 {
			return 0, 0, ErrOverflow
		}
		if b < 0x80 {
			if i == maxVarintLen64-1 && b > 1 {
				return 0, 0, ErrOverflow
			}
			return v | uint64(b)<<shift, i + 1, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0, ErrTruncated
}

// ZigZag maps a signed integer to an unsigned one so that values of
// small magnitude (of either sign) encode to small varints.
func ZigZag(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// PutVarint appends the zigzag varint encoding of v to dst.
func PutVarint(dst []byte, v int64) []byte {
	return PutUvarint(dst, ZigZag(v))
}

// Varint decodes a zigzag varint from the front of src.
func Varint(src []byte) (int64, int, error) {
	u, n, err := Uvarint(src)
	if err != nil {
		return 0, 0, err
	}
	return UnZigZag(u), n, nil
}

// PutUint32 appends v to dst in little-endian order (fixed width).
func PutUint32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Uint32 decodes a fixed-width little-endian uint32 from src.
func Uint32(src []byte) (uint32, error) {
	if len(src) < 4 {
		return 0, ErrTruncated
	}
	return uint32(src[0]) | uint32(src[1])<<8 | uint32(src[2])<<16 | uint32(src[3])<<24, nil
}

// PutUint64 appends v to dst in little-endian order (fixed width).
func PutUint64(dst []byte, v uint64) []byte {
	dst = PutUint32(dst, uint32(v))
	return PutUint32(dst, uint32(v>>32))
}

// Uint64 decodes a fixed-width little-endian uint64 from src.
func Uint64(src []byte) (uint64, error) {
	lo, err := Uint32(src)
	if err != nil {
		return 0, err
	}
	hi, err := Uint32(src[4:])
	if err != nil {
		return 0, err
	}
	return uint64(lo) | uint64(hi)<<32, nil
}

// Cursor decodes a sequence of varints from a byte slice, tracking the
// read position. The zero Cursor over a nil slice is empty but valid.
type Cursor struct {
	buf []byte
	pos int
}

// NewCursor returns a cursor positioned at the start of buf.
func NewCursor(buf []byte) *Cursor {
	return &Cursor{buf: buf}
}

// Pos reports the current byte offset of the cursor.
func (c *Cursor) Pos() int { return c.pos }

// Len reports the number of unread bytes.
func (c *Cursor) Len() int { return len(c.buf) - c.pos }

// Done reports whether the cursor has consumed all input.
func (c *Cursor) Done() bool { return c.pos >= len(c.buf) }

// Uvarint reads the next unsigned varint.
func (c *Cursor) Uvarint() (uint64, error) {
	v, n, err := Uvarint(c.buf[c.pos:])
	if err != nil {
		return 0, cursorErr(err, c.pos)
	}
	c.pos += n
	return v, nil
}

// Varint reads the next zigzag-encoded signed varint.
func (c *Cursor) Varint() (int64, error) {
	v, n, err := Varint(c.buf[c.pos:])
	if err != nil {
		return 0, cursorErr(err, c.pos)
	}
	c.pos += n
	return v, nil
}

// Uint32 reads a fixed-width little-endian uint32.
func (c *Cursor) Uint32() (uint32, error) {
	v, err := Uint32(c.buf[c.pos:])
	if err != nil {
		return 0, cursorErr(err, c.pos)
	}
	c.pos += 4
	return v, nil
}

// Uint64 reads a fixed-width little-endian uint64.
func (c *Cursor) Uint64() (uint64, error) {
	v, err := Uint64(c.buf[c.pos:])
	if err != nil {
		return 0, cursorErr(err, c.pos)
	}
	c.pos += 8
	return v, nil
}

// cursorErr lifts a sentinel from the slice-level decoders into a
// structured *Error carrying the cursor offset.
func cursorErr(err error, pos int) error {
	switch err {
	case ErrTruncated:
		return truncatedAt(pos)
	case ErrOverflow:
		return overflowAt(pos)
	}
	return fmt.Errorf("at offset %d: %w", pos, err)
}

// Bytes reads exactly n raw bytes. The returned slice aliases the
// cursor's buffer; callers must not modify it.
func (c *Cursor) Bytes(n int) ([]byte, error) {
	if n < 0 || c.Len() < n {
		return nil, Errf(CodeTruncated, int64(c.pos), "need %d bytes, have %d: %v", n, c.Len(), ErrTruncated)
	}
	b := c.buf[c.pos : c.pos+n]
	c.pos += n
	return b, nil
}

// Skip advances the cursor by n bytes.
func (c *Cursor) Skip(n int) error {
	if n < 0 || c.Len() < n {
		return Errf(CodeTruncated, int64(c.pos), "cannot skip %d bytes, have %d: %v", n, c.Len(), ErrTruncated)
	}
	c.pos += n
	return nil
}

// String reads a uvarint length followed by that many bytes.
func (c *Cursor) String() (string, error) {
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

// PutString appends a uvarint-length-prefixed string to dst.
func PutString(dst []byte, s string) []byte {
	dst = PutUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}
