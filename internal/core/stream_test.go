package core

import (
	"math/rand"
	"reflect"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// randWPP builds nested random calls with plenty of duplicate traces.
func randWPP(rng *rand.Rand) *trace.RawWPP {
	names := []string{"main", "a", "b", "c"}
	b := trace.NewBuilder(names)
	b.EnterCall(0)
	var gen func(depth int)
	gen = func(depth int) {
		steps := 1 + rng.Intn(12)
		for i := 0; i < steps; i++ {
			b.Block(cfg.BlockID(1 + rng.Intn(6)))
			if depth < 4 && rng.Intn(4) == 0 {
				b.EnterCall(cfg.FuncID(1 + rng.Intn(len(names)-1)))
				gen(depth + 1)
				b.ExitCall()
			}
		}
	}
	gen(0)
	b.ExitCall()
	return b.Finish()
}

// TestStreamCompactorMatchesBatchTWPP checks the online pipeline
// (stream compaction + timestamp inversion at Finish) produces a
// TWPP deeply equal to the batch Compact + FromCompacted path.
func TestStreamCompactorMatchesBatchTWPP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		w := randWPP(rng)
		c, wantStats := wpp.Compact(w)
		want := FromCompacted(c)

		s := NewStreamCompactor(w.FuncNames)
		w.Replay(s)
		got, gotStats, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if gotStats != wantStats {
			t.Errorf("iter %d: stats %+v != %+v", i, gotStats, wantStats)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("iter %d: streaming TWPP differs from batch", i)
		}
	}
}

// TestStreamCompactorFinishError propagates stream-shape errors.
func TestStreamCompactorFinishError(t *testing.T) {
	s := NewStreamCompactor(nil)
	s.EnterCall(0)
	if _, _, err := s.Finish(); err == nil {
		t.Error("unclosed call: want error")
	}
}
