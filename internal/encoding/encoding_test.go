package encoding

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 2, 127, 128, 129, 255, 256, 16383, 16384,
		1<<32 - 1, 1 << 32, math.MaxUint64}
	for _, v := range cases {
		buf := PutUvarint(nil, v)
		got, n, err := Uvarint(buf)
		if err != nil {
			t.Fatalf("Uvarint(%d): %v", v, err)
		}
		if got != v || n != len(buf) {
			t.Errorf("Uvarint(%d) = %d (n=%d), want %d (n=%d)", v, got, n, v, len(buf))
		}
	}
}

func TestUvarintRoundTripQuick(t *testing.T) {
	f := func(v uint64) bool {
		buf := PutUvarint(nil, v)
		got, n, err := Uvarint(buf)
		return err == nil && got == v && n == len(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarintRoundTripQuick(t *testing.T) {
	f := func(v int64) bool {
		buf := PutVarint(nil, v)
		got, n, err := Varint(buf)
		return err == nil && got == v && n == len(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZigZag(t *testing.T) {
	cases := []struct {
		in   int64
		want uint64
	}{
		{0, 0}, {-1, 1}, {1, 2}, {-2, 3}, {2, 4},
		{math.MaxInt64, math.MaxUint64 - 1},
		{math.MinInt64, math.MaxUint64},
	}
	for _, c := range cases {
		if got := ZigZag(c.in); got != c.want {
			t.Errorf("ZigZag(%d) = %d, want %d", c.in, got, c.want)
		}
		if back := UnZigZag(c.want); back != c.in {
			t.Errorf("UnZigZag(%d) = %d, want %d", c.want, back, c.in)
		}
	}
}

func TestZigZagInverseQuick(t *testing.T) {
	f := func(v int64) bool { return UnZigZag(ZigZag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSmallMagnitudeIsSmall(t *testing.T) {
	// The whole point of zigzag: -64..63 must fit in one byte.
	for v := int64(-64); v < 64; v++ {
		if got := len(PutVarint(nil, v)); got != 1 {
			t.Errorf("PutVarint(%d) takes %d bytes, want 1", v, got)
		}
	}
}

func TestUvarintTruncated(t *testing.T) {
	buf := PutUvarint(nil, 1<<40)
	for i := 0; i < len(buf); i++ {
		if _, _, err := Uvarint(buf[:i]); err == nil {
			t.Errorf("Uvarint of %d/%d bytes: want error", i, len(buf))
		}
	}
}

func TestUvarintOverflow(t *testing.T) {
	// 11 continuation bytes can never be a valid 64-bit varint.
	buf := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := Uvarint(buf); err == nil {
		t.Error("Uvarint of 11 0xff bytes: want overflow error")
	}
}

func TestFixedWidthRoundTrip(t *testing.T) {
	b := PutUint32(nil, 0xdeadbeef)
	if v, err := Uint32(b); err != nil || v != 0xdeadbeef {
		t.Errorf("Uint32 = %x, %v", v, err)
	}
	b = PutUint64(nil, 0xdeadbeefcafebabe)
	if v, err := Uint64(b); err != nil || v != 0xdeadbeefcafebabe {
		t.Errorf("Uint64 = %x, %v", v, err)
	}
	if _, err := Uint32([]byte{1, 2}); err == nil {
		t.Error("Uint32 short input: want error")
	}
	if _, err := Uint64([]byte{1, 2, 3, 4, 5}); err == nil {
		t.Error("Uint64 short input: want error")
	}
}

func TestCursorSequence(t *testing.T) {
	var buf []byte
	buf = PutUvarint(buf, 300)
	buf = PutVarint(buf, -7)
	buf = PutUint32(buf, 99)
	buf = PutString(buf, "hello")
	buf = PutUint64(buf, 1<<40)

	c := NewCursor(buf)
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
		t.Errorf("cursor not done: %d bytes left", c.Len())
	}
}

func TestCursorErrors(t *testing.T) {
	c := NewCursor([]byte{0x80}) // truncated varint
	if _, err := c.Uvarint(); err == nil {
		t.Error("truncated uvarint: want error")
	}
	c = NewCursor([]byte{1, 2})
	if _, err := c.Bytes(5); err == nil {
		t.Error("Bytes beyond end: want error")
	}
	if _, err := c.Bytes(2); err != nil {
		t.Errorf("Bytes(2) after a failed Bytes(5): %v", err)
	}
	if !c.Done() {
		t.Error("cursor should be done after Bytes(2)")
	}
}

func TestCursorBytesAliasing(t *testing.T) {
	buf := []byte{1, 2, 3, 4}
	c := NewCursor(buf)
	b, err := c.Bytes(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, []byte{1, 2}) {
		t.Errorf("Bytes = %v", b)
	}
	if c.Pos() != 2 || c.Len() != 2 {
		t.Errorf("Pos=%d Len=%d, want 2,2", c.Pos(), c.Len())
	}
}

func TestMixedStreamQuick(t *testing.T) {
	f := func(us []uint64, ss []int64) bool {
		var buf []byte
		for _, u := range us {
			buf = PutUvarint(buf, u)
		}
		for _, s := range ss {
			buf = PutVarint(buf, s)
		}
		c := NewCursor(buf)
		for _, u := range us {
			got, err := c.Uvarint()
			if err != nil || got != u {
				return false
			}
		}
		for _, s := range ss {
			got, err := c.Varint()
			if err != nil || got != s {
				return false
			}
		}
		return c.Done()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
