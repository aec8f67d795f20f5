package lzw

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip checks compress/decompress identity on arbitrary
// inputs.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("TOBEORNOTTOBE"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, 1000))
	f.Fuzz(func(t *testing.T, src []byte) {
		got, err := decompress(Compress(src))
		if err != nil {
			t.Fatalf("round trip error: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(src))
		}
	})
}

// FuzzDecompress feeds arbitrary bytes to the decompressor: errors are
// fine, panics are not.
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add(Compress([]byte("hello hello")))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decompress(data)
	})
}
