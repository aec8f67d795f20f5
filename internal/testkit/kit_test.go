package testkit

import (
	"bytes"
	"testing"

	"twpp/internal/trace"
	"twpp/internal/wppfile"
)

// Every shape must generate a valid WPP deterministically, and the
// pristine output must satisfy all three oracles — otherwise sweep
// failures would be meaningless.
func TestGenerateDeterministic(t *testing.T) {
	for _, s := range Shapes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			a := Generate(Config{Seed: 7, Shape: s})
			b := Generate(Config{Seed: 7, Shape: s})
			if !trace.Equal(a, b) {
				t.Fatal("same seed generated different WPPs")
			}
			if s == Irregular {
				// Only the rng-driven shape promises seed sensitivity.
				if trace.Equal(a, Generate(Config{Seed: 8, Shape: s})) {
					t.Error("different seeds generated identical WPPs")
				}
			}
			if a.NumCalls() == 0 || a.NumBlocks() == 0 {
				t.Fatalf("degenerate WPP: %d calls, %d blocks", a.NumCalls(), a.NumBlocks())
			}
		})
	}
}

func TestOraclesPassOnPristineInput(t *testing.T) {
	for shape, w := range Corpus(1) {
		shape, w := shape, w
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			if err := RoundTrip(w); err != nil {
				t.Errorf("RoundTrip: %v", err)
			}
			if err := BatchStreamParity(w, 0); err != nil {
				t.Errorf("BatchStreamParity: %v", err)
			}
			if err := ExtractVsRawScan(w); err != nil {
				t.Errorf("ExtractVsRawScan: %v", err)
			}
		})
	}
}

func TestCheckDecodePassOnPristineInput(t *testing.T) {
	w := Generate(Config{Seed: 3, Shape: Irregular})
	raw, compacted, err := EncodeBoth(w)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := CheckRawDecode(dir, raw); err != nil {
		t.Errorf("CheckRawDecode on pristine image: %v", err)
	}
	if err := CheckCompactedDecode(dir, compacted, wppfile.OpenOptions{}); err != nil {
		t.Errorf("CheckCompactedDecode on pristine image: %v", err)
	}
}

func TestMutators(t *testing.T) {
	data := []byte{0x00, 0x81, 0x02, 0xff}

	flip := BitFlip(data, 1, 3)
	if flip[1] != 0x81^0x08 || flip[0] != 0x00 || &flip[0] == &data[0] {
		t.Errorf("BitFlip wrong: % x", flip)
	}

	tr := Truncate(data, 2)
	if !bytes.Equal(tr, data[:2]) {
		t.Errorf("Truncate wrong: % x", tr)
	}
	if got := Truncate(data, 99); !bytes.Equal(got, data) {
		t.Errorf("Truncate past end wrong: % x", got)
	}

	sp := Splice(data, 2, []byte{0xaa})
	if !bytes.Equal(sp, []byte{0x00, 0x81, 0xaa, 0x02, 0xff}) {
		t.Errorf("Splice wrong: % x", sp)
	}

	// Offset 1 starts the two-byte varint 0x81 0x02 (= 257); inflation
	// replaces exactly those bytes.
	inf, ok := InflateLength(data, 1)
	if !ok {
		t.Fatal("InflateLength refused a valid varint")
	}
	if !bytes.Equal(inf[:1], data[:1]) || inf[len(inf)-1] != 0xff {
		t.Errorf("InflateLength clobbered surrounding bytes: % x", inf)
	}
	if len(inf) <= len(data) {
		t.Errorf("InflateLength did not grow the varint: %d <= %d", len(inf), len(data))
	}
	if _, ok := InflateLength(data, 99); ok {
		t.Error("InflateLength accepted an out-of-range offset")
	}

	if !bytes.Equal(data, []byte{0x00, 0x81, 0x02, 0xff}) {
		t.Fatal("a mutator modified its input")
	}
}

func TestSweepsVisitEveryMutation(t *testing.T) {
	data := make([]byte, 16)
	var n int
	SweepBitFlips(data, 1, func(Mutation) { n++ })
	if n != 16*8 {
		t.Errorf("SweepBitFlips visited %d, want %d", n, 16*8)
	}
	n = 0
	SweepTruncations(data, 1, func(Mutation) { n++ })
	if n != 16 {
		t.Errorf("SweepTruncations visited %d, want 16", n)
	}
	n = 0
	SweepBitFlips(data, 4, func(m Mutation) { n++ })
	if n != 4*8 {
		t.Errorf("strided SweepBitFlips visited %d, want %d", n, 4*8)
	}
	n = 0
	SweepSplices(data, 1, func(Mutation) { n++ })
	if n != 17 {
		t.Errorf("SweepSplices visited %d, want 17", n)
	}
	n = 0
	SweepInflations(data, 1, func(Mutation) { n++ })
	if n == 0 {
		t.Error("SweepInflations visited nothing")
	}
}
