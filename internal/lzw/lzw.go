// Package lzw implements the Lempel-Ziv-Welch dictionary compression
// algorithm (Welch, "A Technique for High-Performance Data Compression",
// IEEE Computer 1984). The paper uses LZW to compress the dynamic call
// graph component of a compacted TWPP (Zhang & Gupta, PLDI 2001, §2,
// "Compacting the DCG").
//
// The codec uses variable-width codes starting at 9 bits and growing to
// maxWidth bits; when the dictionary fills, a clear code resets it, which
// keeps compression adaptive on long inputs whose statistics drift.
package lzw

import (
	"errors"
	"fmt"
	"sync"
)

const (
	// literalCodes is the number of single-byte codes (0..255).
	literalCodes = 256
	// clearCode resets the dictionary.
	clearCode = 256
	// eofCode terminates the stream.
	eofCode = 257
	// firstCode is the first dynamically assigned code.
	firstCode = 258
	// minWidth is the initial code width in bits.
	minWidth = 9
	// maxWidth is the largest code width; the dictionary holds at most
	// 1<<maxWidth entries before a clear is emitted.
	maxWidth = 16
)

// ErrCorrupt is returned by Decompress when the input is not a valid
// LZW stream produced by Compress.
var ErrCorrupt = errors.New("lzw: corrupt input")

// bitWriter packs codes of varying width, LSB first.
type bitWriter struct {
	out  []byte
	bits uint32
	n    uint // number of valid bits in bits
}

func (w *bitWriter) write(code uint32, width uint) {
	w.bits |= code << w.n
	w.n += width
	for w.n >= 8 {
		w.out = append(w.out, byte(w.bits))
		w.bits >>= 8
		w.n -= 8
	}
}

func (w *bitWriter) flush() {
	if w.n > 0 {
		w.out = append(w.out, byte(w.bits))
		w.bits = 0
		w.n = 0
	}
}

// bitReader unpacks codes of varying width, LSB first.
type bitReader struct {
	in   []byte
	pos  int
	bits uint32
	n    uint
}

func (r *bitReader) read(width uint) (uint32, error) {
	for r.n < width {
		if r.pos >= len(r.in) {
			return 0, ErrCorrupt
		}
		r.bits |= uint32(r.in[r.pos]) << r.n
		r.pos++
		r.n += 8
	}
	code := r.bits & (1<<width - 1)
	r.bits >>= width
	r.n -= width
	return code, nil
}

// Compress returns the LZW encoding of src. The empty input encodes to
// a stream containing just the clear and EOF codes.
func Compress(src []byte) []byte {
	w := &bitWriter{}
	// The dictionary maps (prefix code, next byte) -> code. Packing the
	// key into a uint32 avoids string allocation on the hot path.
	dict := make(map[uint32]uint32, 4096)
	next := uint32(firstCode)
	width := uint(minWidth)

	w.write(clearCode, width)
	if len(src) == 0 {
		w.write(eofCode, width)
		w.flush()
		return w.out
	}

	cur := uint32(src[0])
	for _, b := range src[1:] {
		key := cur<<8 | uint32(b)
		if code, ok := dict[key]; ok {
			cur = code
			continue
		}
		w.write(cur, width)
		dict[key] = next
		next++
		// Grow the width when the next code to be assigned no longer
		// fits. The decoder mirrors this exactly.
		if next == 1<<width && width < maxWidth {
			width++
		}
		if next == 1<<maxWidth {
			w.write(clearCode, width)
			dict = make(map[uint32]uint32, 4096)
			next = firstCode
			width = minWidth
		}
		cur = uint32(b)
	}
	w.write(cur, width)
	w.write(eofCode, width)
	w.flush()
	return w.out
}

// decodeTables is the decoder's working state: prefix[c] and suffix[c]
// describe dynamically assigned codes (code c expands to the expansion
// of prefix[c] followed by suffix[c]); expandBuf is the scratch the
// expansions are built in. At ~384 KiB it dominates the decoder's
// allocation cost, so instances are pooled across calls.
type decodeTables struct {
	prefix    [1 << maxWidth]uint32
	suffix    [1 << maxWidth]byte
	expandBuf [1 << maxWidth]byte
}

// expansion builds the byte expansion of code right-aligned in
// expandBuf and returns it as a sub-slice. next bounds the codes the
// dictionary has assigned so far.
func (t *decodeTables) expansion(code, next uint32) ([]byte, error) {
	n := len(t.expandBuf)
	for code >= firstCode {
		if code >= next {
			return nil, fmt.Errorf("%w: code %d out of range (next=%d)", ErrCorrupt, code, next)
		}
		n--
		t.expandBuf[n] = t.suffix[code]
		code = t.prefix[code]
	}
	if code >= literalCodes {
		return nil, fmt.Errorf("%w: expansion reaches reserved code %d", ErrCorrupt, code)
	}
	n--
	t.expandBuf[n] = byte(code)
	return t.expandBuf[n:], nil
}

var tablePool = sync.Pool{New: func() any { return new(decodeTables) }}

// AppendDecompress inverts Compress, appending the decompressed bytes
// to dst (which may be nil, or a recycled buffer truncated to zero
// length) and returning the extended slice. It returns ErrCorrupt
// (possibly wrapped) if src is not a valid stream. max caps the
// appended bytes, not dst's prior contents: when the output would
// exceed it the decode fails with a wrapped ErrCorrupt instead of
// allocating further, bounding the memory a hostile stream (LZW
// expands up to ~65000x) can force; max <= 0 disables the cap. The
// decoder's working tables are pooled, so a decompress into a dst
// with sufficient spare capacity performs no allocations.
func AppendDecompress(dst, src []byte, max int) ([]byte, error) {
	r := &bitReader{in: src}
	out := dst
	base := len(dst)

	t := tablePool.Get().(*decodeTables)
	defer tablePool.Put(t)

	next := uint32(firstCode)
	width := uint(minWidth)
	const noPrev = uint32(1 << 30)
	prev := noPrev

	for {
		code, err := r.read(width)
		if err != nil {
			return nil, err
		}
		switch {
		case code == eofCode:
			return out, nil
		case code == clearCode:
			next = firstCode
			width = minWidth
			prev = noPrev
			continue
		case code > next || (code == next && prev == noPrev):
			return nil, fmt.Errorf("%w: code %d ahead of dictionary (next=%d)", ErrCorrupt, code, next)
		}

		var exp []byte
		if code == next {
			// The KwKwK case: the code being defined by this very step.
			// Its expansion is expansion(prev) + first byte of same.
			pexp, err := t.expansion(prev, next)
			if err != nil {
				return nil, err
			}
			out = append(out, pexp...)
			out = append(out, pexp[0])
			exp = out[len(out)-len(pexp)-1:]
		} else {
			exp, err = t.expansion(code, next)
			if err != nil {
				return nil, err
			}
			out = append(out, exp...)
		}
		if max > 0 && len(out)-base > max {
			return nil, fmt.Errorf("%w: decompressed output exceeds %d bytes", ErrCorrupt, max)
		}

		if prev != noPrev && next < 1<<maxWidth {
			t.prefix[next] = prev
			t.suffix[next] = exp[0]
			next++
			// The decoder's dictionary lags the encoder's by exactly one
			// entry (the entry for the code just read is created by the
			// encoder before it writes the *next* code), so the width
			// grows one entry early relative to the encoder's test.
			if next == 1<<width-1 && width < maxWidth {
				width++
			}
		}
		prev = code
	}
}
