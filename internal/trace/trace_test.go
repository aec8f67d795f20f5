package trace

import (
	"reflect"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/sequitur"
)

// buildSample constructs the paper's Figure 1-style WPP by hand:
// main calls f twice; f's two invocations take different paths.
func buildSample() *RawWPP {
	b := NewBuilder([]string{"main", "f"})
	b.EnterCall(0)
	b.Block(1)
	b.Block(2)
	b.Block(3)
	b.EnterCall(1)
	for _, id := range []cfg.BlockID{1, 2, 7, 8, 9, 6, 10} {
		b.Block(id)
	}
	b.ExitCall()
	b.Block(4)
	b.Block(2)
	b.Block(3)
	b.EnterCall(1)
	for _, id := range []cfg.BlockID{1, 2, 3, 4, 5, 6, 10} {
		b.Block(id)
	}
	b.ExitCall()
	b.Block(4)
	b.Block(6)
	b.ExitCall()
	return b.Finish()
}

func TestBuilderStructure(t *testing.T) {
	w := buildSample()
	if w.NumCalls() != 3 {
		t.Fatalf("NumCalls = %d, want 3", w.NumCalls())
	}
	// main calls 1 twice, after 3 and 6 of its blocks respectively.
	want := DCG{Fn: []cfg.FuncID{0, 1, 1}, Trace: []int{0, 1, 2}, Pos: []int{0, 3, 6}, End: []int{3, 2, 3}}
	if !reflect.DeepEqual(w.DCG, want) {
		t.Fatalf("DCG = %+v, want %+v", w.DCG, want)
	}
	if got := w.Traces[w.DCG.Trace[0]]; !reflect.DeepEqual(got, []cfg.BlockID{1, 2, 3, 4, 2, 3, 4, 6}) {
		t.Errorf("main trace = %v", got)
	}
	counts := callsPerFunc(w)
	if counts[0] != 1 || counts[1] != 2 {
		t.Errorf("calls per function = %v", counts)
	}
	if w.NumBlocks() != 8+7+7 {
		t.Errorf("NumBlocks = %d, want 22", w.NumBlocks())
	}
}

func TestLinearInterleaving(t *testing.T) {
	w := buildSample()
	lin := w.Linear()
	want := []uint32{
		sequitur.EnterMarker(0), 1, 2, 3,
		sequitur.EnterMarker(1), 1, 2, 7, 8, 9, 6, 10, sequitur.ExitMarker,
		4, 2, 3,
		sequitur.EnterMarker(1), 1, 2, 3, 4, 5, 6, 10, sequitur.ExitMarker,
		4, 6, sequitur.ExitMarker,
	}
	if !reflect.DeepEqual(lin, want) {
		t.Errorf("Linear =\n%v\nwant\n%v", lin, want)
	}
}

func TestCallAtTraceBoundaries(t *testing.T) {
	// A call before any block and a call after the last block must
	// round-trip through Linear and a Demux.
	b := NewBuilder([]string{"main", "g"})
	b.EnterCall(0)
	b.EnterCall(1) // call before any block of main
	b.Block(1)
	b.ExitCall()
	b.Block(1)
	b.EnterCall(1) // call after main's last block
	b.Block(1)
	b.ExitCall()
	b.ExitCall()
	w := b.Finish()
	if !Equal(w, rebuild(t, w)) {
		t.Error("boundary-call WPP did not round trip")
	}
	if !reflect.DeepEqual(w.DCG.Pos, []int{0, 0, 1}) {
		t.Errorf("Pos = %v, want [0 0 1]", w.DCG.Pos)
	}
}

// Replay stops replaying a call's children at the first one
// positioned behind its previous sibling or past the call's trace: it
// and the siblings after it never ran.
func TestReplaySkipsUnreachableCalls(t *testing.T) {
	want := []uint32{sequitur.EnterMarker(0), 1, 2, sequitur.EnterMarker(1), 7, sequitur.ExitMarker, 3, sequitur.ExitMarker}
	for name, pos := range map[string][]int{
		"behind previous sibling": {0, 2, 1, 3},
		"past the caller's trace": {0, 2, 4, 3},
	} {
		w := &RawWPP{
			FuncNames: []string{"main", "f"},
			DCG:       DCG{Fn: []cfg.FuncID{0, 1, 1, 1}, Trace: []int{0, 1, 2, 3}, Pos: pos, End: []int{4, 2, 3, 4}},
			Traces:    [][]cfg.BlockID{{1, 2, 3}, {7}, {8}, {9}},
		}
		if got := w.Linear(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Linear = %v, want %v", name, got, want)
		}
	}
}

func TestRawSizes(t *testing.T) {
	w := buildSample()
	dcg, traces := w.RawSizes()
	if traces != 4*22 {
		t.Errorf("trace bytes = %d, want 88", traces)
	}
	// One word per node field: root (fn, count, 2 positions) plus two
	// leaves (fn, count) = 8 words.
	if dcg != 4*8 {
		t.Errorf("dcg bytes = %d, want 32", dcg)
	}
}

func TestBuilderPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	expectPanic("block outside call", func() { NewBuilder(nil).Block(1) })
	expectPanic("exit outside call", func() { NewBuilder(nil).ExitCall() })
	expectPanic("finish with open calls", func() {
		b := NewBuilder(nil)
		b.EnterCall(0)
		b.Finish()
	})
	expectPanic("finish without root", func() { NewBuilder(nil).Finish() })
	expectPanic("two roots", func() {
		b := NewBuilder(nil)
		b.EnterCall(0)
		b.ExitCall()
		b.EnterCall(1)
	})
}

func TestFuncName(t *testing.T) {
	w := buildSample()
	if w.FuncName(1) != "f" {
		t.Errorf("FuncName(1) = %q", w.FuncName(1))
	}
	if w.FuncName(99) != "func99" {
		t.Errorf("FuncName(99) = %q", w.FuncName(99))
	}
}

// rebuild parses w's linear symbol stream back into a WPP through a
// Demux feeding a Builder.
func rebuild(t *testing.T, w *RawWPP) *RawWPP {
	t.Helper()
	b := NewBuilder(w.FuncNames)
	d := &Demux{Sink: b}
	if err := d.Feed(w.Linear()...); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Finish()
}

// callsPerFunc counts w's invocations per function id.
func callsPerFunc(w *RawWPP) map[cfg.FuncID]int {
	out := make(map[cfg.FuncID]int)
	for _, fn := range w.DCG.Fn {
		out[fn]++
	}
	return out
}
