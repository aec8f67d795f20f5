package wpp

import (
	"math/rand"
	"reflect"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/trace"
)

// streamCompact replays w through a StreamCompactor and returns the
// result, failing the test on stream errors.
func streamCompact(t *testing.T, w *trace.RawWPP) (*Compacted, Stats, *StreamCompactor) {
	t.Helper()
	s := NewStreamCompactor(w.FuncNames)
	w.Replay(s)
	c, stats, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return c, stats, s
}

// recursiveWPP exercises the ordering wrinkle the streaming path must
// undo: with recursion, inner calls complete (and intern) before the
// outer call whose trace must come first in first-occurrence order.
func recursiveWPP() *trace.RawWPP {
	b := trace.NewBuilder([]string{"main", "a"})
	b.EnterCall(0)
	b.Block(1)
	b.EnterCall(1) // outer a: trace {5, 9}
	b.Block(5)
	b.EnterCall(1) // inner a: trace {6, 9}
	b.Block(6)
	b.EnterCall(1) // innermost a: trace {5, 9} again (dedups with outer)
	b.Block(5)
	b.Block(9)
	b.ExitCall()
	b.Block(9)
	b.ExitCall()
	b.Block(9)
	b.ExitCall()
	b.Block(2)
	b.ExitCall()
	return b.Finish()
}

// TestStreamCompactorMatchesBatch checks the streaming compactor
// produces a Compacted and Stats deeply equal to the batch path on
// hand-built and random WPPs, including recursive shapes where intern
// order differs from first-occurrence order.
func TestStreamCompactorMatchesBatch(t *testing.T) {
	cases := map[string]*trace.RawWPP{
		"paper":     paperWPP(),
		"recursive": recursiveWPP(),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		cases["rand"+string(rune('0'+i))] = randStreamWPP(rng)
	}
	for name, w := range cases {
		t.Run(name, func(t *testing.T) {
			want, wantStats := Compact(w)
			got, gotStats, _ := streamCompact(t, w)
			if gotStats != wantStats {
				t.Errorf("stats: stream %+v != batch %+v", gotStats, wantStats)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Compacted differs from batch")
			}
		})
	}
}

// TestStreamCompactorFirstOccurrenceOrder pins the documented trace
// order directly: the outer recursive call is entered first, so its
// trace must be unique trace 0 even though the inner call interned
// first.
func TestStreamCompactorFirstOccurrenceOrder(t *testing.T) {
	c, _, _ := streamCompact(t, recursiveWPP())
	a := &c.Funcs[1]
	if len(a.Traces) != 2 {
		t.Fatalf("a unique traces = %d, want 2", len(a.Traces))
	}
	if got := a.Expand(0); !tracesEqual(got, PathTrace{5, 9}) {
		t.Errorf("trace 0 expands to %v, want [5 9] (outer call's trace)", got)
	}
	if got := a.Expand(1); !tracesEqual(got, PathTrace{6, 9}) {
		t.Errorf("trace 1 expands to %v, want [6 9]", got)
	}
	if a.CallCount != 3 {
		t.Errorf("a calls = %d, want 3", a.CallCount)
	}
}

// TestStreamCompactorErrors covers the stream-shape errors Finish
// reports.
func TestStreamCompactorErrors(t *testing.T) {
	s := NewStreamCompactor(nil)
	if _, _, err := s.Finish(); err == nil {
		t.Error("empty stream: want error")
	}
	s = NewStreamCompactor(nil)
	s.EnterCall(0)
	if _, _, err := s.Finish(); err == nil {
		t.Error("unclosed call: want error")
	}
	s = NewStreamCompactor(nil)
	s.EnterCall(0)
	s.ExitCall()
	if _, _, err := s.Finish(); err != nil {
		t.Errorf("well-formed stream: %v", err)
	}
	if _, _, err := s.Finish(); err == nil {
		t.Error("double Finish: want error")
	}
}

// randStreamWPP mirrors the root fuzz generator: nested random calls
// over a handful of functions, heavy on duplicate traces.
func randStreamWPP(rng *rand.Rand) *trace.RawWPP {
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
