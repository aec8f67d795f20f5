package wppfile

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"twpp/internal/core"
	"twpp/internal/trace"
)

// TestRawStreamReaderReplay checks the incremental reader reproduces
// the WPP via a Builder sink, from both a sized and an unsized stream.
func TestRawStreamReaderReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	w := sampleWPP(rng, 40)
	raw := EncodeRaw(w)
	for _, size := range []int64{int64(len(raw)), -1} {
		rr, err := NewRawStreamReader(bytes.NewReader(raw), size)
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
		if !reflect.DeepEqual(rr.Names(), w.FuncNames) {
			t.Fatalf("size=%d: names = %v", size, rr.Names())
		}
		b := trace.NewBuilder(rr.Names())
		if err := rr.Replay(b); err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
		if got := b.Finish(); !trace.Equal(w, got) {
			t.Errorf("size=%d: replayed WPP differs", size)
		}
	}
}

// TestStreamPipelineEndToEnd drives raw bytes through the full
// streaming path (reader -> online compactor -> encoder) and checks the
// result is byte-identical to the batch pipeline.
func TestStreamPipelineEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	w, tw := buildTWPP(t, rng, 60)
	want, err := EncodeCompactedWorkers(tw, 1)
	if err != nil {
		t.Fatal(err)
	}

	raw := EncodeRaw(w)
	rr, err := NewRawStreamReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewStreamCompactor(rr.Names())
	if err := rr.Replay(s); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	img, err := EncodeCompactedWorkers(got, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want) {
		t.Error("streaming pipeline output differs from batch pipeline")
	}
}
