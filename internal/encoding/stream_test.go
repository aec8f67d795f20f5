package encoding

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

func streamOver(data []byte) *StreamCursor {
	return NewStreamCursor(bytes.NewReader(data), int64(len(data)))
}

func TestStreamCursorSequence(t *testing.T) {
	var buf []byte
	buf = PutUvarint(buf, 300)
	buf = PutVarint(buf, -7)
	buf = PutUint32(buf, 99)
	buf = PutString(buf, "hello")
	buf = PutUint64(buf, 1<<40)

	c := streamOver(buf)
	if u, err := c.Uvarint(); err != nil || u != 300 {
		t.Fatalf("Uvarint = %d, %v", u, err)
	}
	if v, err := c.Varint(); err != nil || v != -7 {
		t.Fatalf("Varint = %d, %v", v, err)
	}
	if v, err := c.Uint32(); err != nil || v != 99 {
		t.Fatalf("Uint32 = %d, %v", v, err)
	}
	if s, err := c.String(); err != nil || s != "hello" {
		t.Fatalf("String = %q, %v", s, err)
	}
	if v, err := c.Uint64(); err != nil || v != 1<<40 {
		t.Fatalf("Uint64 = %d, %v", v, err)
	}
	if !c.Done() {
		t.Errorf("cursor not done: pos=%d len=%d", c.Pos(), c.Len())
	}
	if c.Pos() != len(buf) || c.Len() != 0 {
		t.Errorf("Pos=%d Len=%d, want %d,0", c.Pos(), c.Len(), len(buf))
	}
}

// A StreamCursor over an already-buffered reader must adopt it rather
// than double-buffer.
func TestStreamCursorAdoptsBufio(t *testing.T) {
	br := bufio.NewReader(strings.NewReader("\x05"))
	c := NewStreamCursor(br, 1)
	if v, err := c.Uvarint(); err != nil || v != 5 {
		t.Fatalf("Uvarint = %d, %v", v, err)
	}
}

// With unknown total size, Len must report a value large enough that
// count-vs-remaining sanity checks never reject a valid stream, and
// Bytes must still terminate with a truncation error on lying lengths.
func TestStreamCursorUnknownSize(t *testing.T) {
	c := NewStreamCursor(strings.NewReader("abc"), -1)
	if c.Len() != int(^uint(0)>>1) {
		t.Fatalf("unknown-size Len = %d, want max int", c.Len())
	}
	b, err := c.Bytes(3)
	if err != nil || string(b) != "abc" {
		t.Fatalf("Bytes = %q, %v", b, err)
	}
	// The stream is exhausted; a declared length beyond it must yield a
	// structured truncation error, not an allocation or a hang.
	c = NewStreamCursor(strings.NewReader("ab"), -1)
	if _, err := c.Bytes(10); !IsCode(err, CodeTruncated) {
		t.Fatalf("lying length: want truncated, got %v", err)
	}
}

func TestStreamCursorErrors(t *testing.T) {
	t.Run("truncated uvarint", func(t *testing.T) {
		c := streamOver([]byte{0x80})
		if _, err := c.Uvarint(); !IsCode(err, CodeTruncated) {
			t.Fatalf("want truncated, got %v", err)
		}
	})
	t.Run("overflow uvarint", func(t *testing.T) {
		c := streamOver(bytes.Repeat([]byte{0xff}, 11))
		if _, err := c.Uvarint(); !IsCode(err, CodeOverflow) {
			t.Fatalf("want overflow, got %v", err)
		}
	})
	t.Run("overflow on tenth byte value", func(t *testing.T) {
		// Nine continuation bytes plus a terminator > 1 exceeds 64 bits.
		buf := append(bytes.Repeat([]byte{0xff}, 9), 0x02)
		c := streamOver(buf)
		if _, err := c.Uvarint(); !IsCode(err, CodeOverflow) {
			t.Fatalf("want overflow, got %v", err)
		}
	})
	t.Run("truncated varint propagates", func(t *testing.T) {
		c := streamOver([]byte{0x80})
		if _, err := c.Varint(); !IsCode(err, CodeTruncated) {
			t.Fatalf("want truncated, got %v", err)
		}
	})
	t.Run("truncated uint32", func(t *testing.T) {
		c := streamOver([]byte{1, 2})
		if _, err := c.Uint32(); !IsCode(err, CodeTruncated) {
			t.Fatalf("want truncated, got %v", err)
		}
	})
	t.Run("truncated uint64 second half", func(t *testing.T) {
		c := streamOver([]byte{1, 2, 3, 4, 5, 6})
		if _, err := c.Uint64(); !IsCode(err, CodeTruncated) {
			t.Fatalf("want truncated, got %v", err)
		}
	})
	t.Run("negative byte count", func(t *testing.T) {
		c := streamOver([]byte{1})
		if _, err := c.Bytes(-1); !IsCode(err, CodeTruncated) {
			t.Fatalf("want truncated, got %v", err)
		}
	})
	t.Run("bytes beyond known size", func(t *testing.T) {
		c := streamOver([]byte{1, 2})
		if _, err := c.Bytes(5); !IsCode(err, CodeTruncated) {
			t.Fatalf("want truncated, got %v", err)
		}
	})
	t.Run("string with truncated body", func(t *testing.T) {
		c := streamOver(append(PutUvarint(nil, 40), 'x'))
		if _, err := c.String(); !IsCode(err, CodeTruncated) {
			t.Fatalf("want truncated, got %v", err)
		}
	})
	t.Run("string with truncated length", func(t *testing.T) {
		c := streamOver([]byte{0x80})
		if _, err := c.String(); !IsCode(err, CodeTruncated) {
			t.Fatalf("want truncated, got %v", err)
		}
	})
}

// A read that the declared size allows but the underlying stream
// cannot satisfy must surface as a structured truncation error: the
// declared size header lied.
func TestStreamCursorBytesLyingSize(t *testing.T) {
	c := NewStreamCursor(strings.NewReader("ab"), 10)
	if _, err := c.Bytes(5); !IsCode(err, CodeTruncated) {
		t.Fatalf("want truncated, got %v", err)
	}
}

// Batch and stream cursors must produce byte-identical error strings
// on identical corrupt inputs — the parity contract the wppfile decode
// paths rely on.
func TestCursorStreamErrorParity(t *testing.T) {
	inputs := map[string][]byte{
		"truncated uvarint": {0x80, 0x80},
		"overflow uvarint":  bytes.Repeat([]byte{0xff}, 11),
		"short uint32":      {9},
		"empty":             nil,
	}
	for name, data := range inputs {
		name, data := name, data
		t.Run(name, func(t *testing.T) {
			bc := NewCursor(data)
			sc := streamOver(data)
			_, berr := bc.Uvarint()
			_, serr := sc.Uvarint()
			assertSameError(t, "Uvarint", berr, serr)

			bc = NewCursor(data)
			sc = streamOver(data)
			_, berr = bc.Uint32()
			_, serr = sc.Uint32()
			assertSameError(t, "Uint32", berr, serr)
		})
	}
}

func assertSameError(t *testing.T, op string, batch, stream error) {
	t.Helper()
	if (batch == nil) != (stream == nil) {
		t.Fatalf("%s: batch err %v, stream err %v", op, batch, stream)
	}
	if batch != nil && batch.Error() != stream.Error() {
		t.Fatalf("%s error parity broken:\n  batch:  %s\n  stream: %s", op, batch, stream)
	}
}

// Bytes larger than one internal chunk must still round-trip: chunked
// filling is an allocation bound, not a size cap.
func TestStreamCursorLargeBytes(t *testing.T) {
	big := bytes.Repeat([]byte{0xab}, maxChunk+maxChunk/2)
	c := NewStreamCursor(bytes.NewReader(big), int64(len(big)))
	got, err := c.Bytes(len(big))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large Bytes read corrupted data")
	}
	if !c.Done() {
		t.Error("cursor should be done")
	}
}

// A truncation that strikes mid-way through a multi-chunk read must
// still be reported as a structured error with the right code.
func TestStreamCursorLargeBytesTruncated(t *testing.T) {
	part := bytes.Repeat([]byte{0xcd}, maxChunk+10)
	c := NewStreamCursor(io.LimitReader(bytes.NewReader(part), int64(len(part))), -1)
	if _, err := c.Bytes(maxChunk * 3); !IsCode(err, CodeTruncated) {
		t.Fatalf("want truncated, got %v", err)
	}
}

// IsCode reports whether err is a *Error with the given code; shared by
// the stream tests above.
func IsCode(err error, code ErrorCode) bool {
	e, ok := err.(*Error)
	return ok && e.Code == code
}
