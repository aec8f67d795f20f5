package lzw

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// decompress inverts Compress with no size cap.
func decompress(src []byte) ([]byte, error) { return AppendDecompress(nil, src, 0) }

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	comp := Compress(src)
	got, err := decompress(comp)
	if err != nil {
		t.Fatalf("decompress(%d-byte input): %v", len(src), err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(src))
	}
}

func TestRoundTripBasic(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},
		{255},
		[]byte("a"),
		[]byte("aa"),
		[]byte("abab"),
		[]byte("TOBEORNOTTOBEORTOBEORNOT"), // the classic LZW example
		[]byte(strings.Repeat("ab", 1000)),
		[]byte(strings.Repeat("x", 100000)),
		[]byte("the quick brown fox jumps over the lazy dog"),
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestRoundTripKwKwK(t *testing.T) {
	// "aaa..." exercises the KwKwK case (a code used before it is fully
	// defined) on the second code already.
	for n := 1; n < 300; n++ {
		roundTrip(t, bytes.Repeat([]byte{'a'}, n))
	}
}

func TestRoundTripAllBytes(t *testing.T) {
	src := make([]byte, 256*4)
	for i := range src {
		src[i] = byte(i)
	}
	roundTrip(t, src)
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 10, 100, 1000, 10000, 1 << 17} {
		for _, alphabet := range []int{2, 4, 16, 256} {
			src := make([]byte, n)
			for i := range src {
				src[i] = byte(rng.Intn(alphabet))
			}
			roundTrip(t, src)
		}
	}
}

func TestRoundTripDictionaryOverflow(t *testing.T) {
	// Input long and varied enough to fill the 16-bit dictionary and
	// force a mid-stream clear code.
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, 1<<21)
	for i := range src {
		src[i] = byte(rng.Intn(256))
	}
	roundTrip(t, src)
}

func TestRoundTripQuick(t *testing.T) {
	f := func(src []byte) bool {
		got, err := decompress(Compress(src))
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCompressesRepetitiveInput(t *testing.T) {
	src := []byte(strings.Repeat("abcabcabc", 10000))
	comp := Compress(src)
	if len(comp) >= len(src)/10 {
		t.Errorf("repetitive input compressed to %d bytes (src %d); expected >10x", len(comp), len(src))
	}
}

func TestDecompressCorrupt(t *testing.T) {
	cases := [][]byte{
		{},                 // no EOF code
		{0xff},             // truncated code
		{0xff, 0xff, 0xff}, // codes ahead of the dictionary
	}
	for _, c := range cases {
		if _, err := decompress(c); err == nil {
			t.Errorf("decompress(%v): want error", c)
		}
	}
}

func TestDecompressTruncations(t *testing.T) {
	src := []byte(strings.Repeat("hello world ", 500))
	comp := Compress(src)
	// Any strict prefix must either error or decode to something other
	// than the full input (it must never succeed with the full output
	// AND no error... truncations cut the EOF code or a data code).
	for i := 0; i < len(comp)-1; i += 7 {
		got, err := decompress(comp[:i])
		if err == nil && bytes.Equal(got, src) {
			t.Errorf("truncation to %d bytes decoded to full input without error", i)
		}
	}
}

func BenchmarkCompress(b *testing.B) {
	src := []byte(strings.Repeat("the quick brown fox ", 5000))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compress(src)
	}
}

func BenchmarkDecompress(b *testing.B) {
	src := []byte(strings.Repeat("the quick brown fox ", 5000))
	comp := Compress(src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
}
