package interp

import (
	"reflect"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/minilang"
	"twpp/internal/trace"
)

// rebuild parses w's linear symbol stream back into a WPP through a
// trace.Demux feeding a trace.Builder.
func rebuild(t *testing.T, w *trace.RawWPP) *trace.RawWPP {
	t.Helper()
	b := trace.NewBuilder(w.FuncNames)
	d := &trace.Demux{Sink: b}
	if err := d.Feed(w.Linear()...); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Finish()
}

// callsPerFunc counts w's invocations per function id.
func callsPerFunc(w *trace.RawWPP) map[cfg.FuncID]int {
	out := make(map[cfg.FuncID]int)
	for _, fn := range w.DCG.Fn {
		out[fn]++
	}
	return out
}

// kids lists call i's children rows in call order.
func kids(w *trace.RawWPP, i int) []int {
	var out []int
	for c := i + 1; c < w.DCG.End[i]; c = w.DCG.End[c] {
		out = append(out, c)
	}
	return out
}

// traceOf runs src and returns the built WPP.
func traceOf(t *testing.T, src string, input []int64) (*trace.RawWPP, *cfg.Program) {
	t.Helper()
	prog, err := minilang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(prog, cfg.MaxBlocks)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		names[i] = fn.Name
	}
	b := trace.NewBuilder(names)
	if _, err := Run(g, b, input, Limits{}); err != nil {
		t.Fatal(err)
	}
	return b.Finish(), g
}

func TestCallInsideConditionTraced(t *testing.T) {
	// The call inside the if-condition must appear as a child of main
	// positioned after the block holding the condition was entered.
	src := `
func main() {
    var x = 1;
    if (check(x) > 0) {
        x = 2;
    }
    print(x);
}
func check(v) { return v; }
`
	w, g := traceOf(t, src, nil)
	if k := kids(w, 0); len(k) != 1 {
		t.Fatalf("children = %d", len(k))
	}
	pos := w.DCG.Pos[1]
	mainTrace := w.Traces[w.DCG.Trace[0]]
	if pos < 1 || pos > len(mainTrace) {
		t.Fatalf("child position %d out of range (trace %v)", pos, mainTrace)
	}
	// The block executing at position pos must be the one whose
	// terminator condition contains the call.
	blk := g.Graphs[0].Block(mainTrace[pos-1])
	cj, ok := blk.Term.(*cfg.CondJump)
	if !ok {
		t.Fatalf("call-position block B%d has terminator %T", blk.ID, blk.Term)
	}
	var eff cfg.Effects
	cfg.ExprEffects(cj.Cond, &eff)
	if len(eff.Calls) != 1 || eff.Calls[0] != "check" {
		t.Errorf("condition calls = %v", eff.Calls)
	}
	// Full reconstruction still holds.
	if !trace.Equal(w, rebuild(t, w)) {
		t.Error("round trip failed")
	}
}

func TestCallInsideReturnTraced(t *testing.T) {
	// A call in a return expression happens before the exit block is
	// traced: the child position must be before the final (exit) block
	// of the parent trace.
	src := `
func main() {
    print(outer());
}
func outer() {
    return inner() + 1;
}
func inner() { return 41; }
`
	w, _ := traceOf(t, src, nil)
	outer := kids(w, 0)[0]
	if k := kids(w, outer); len(k) != 1 {
		t.Fatalf("outer children = %d", len(k))
	}
	outerTrace := w.Traces[w.DCG.Trace[outer]]
	pos := w.DCG.Pos[outer+1]
	if pos >= len(outerTrace) {
		t.Errorf("inner call recorded after the exit block: pos %d, trace %v", pos, outerTrace)
	}
}

func TestNestedCallsDeepDCG(t *testing.T) {
	src := `
func main() { print(a(3)); }
func a(n) { return b(n) + 1; }
func b(n) { return c(n) + 1; }
func c(n) { return n; }
`
	w, _ := traceOf(t, src, nil)
	depth := 0
	for n := 0; len(kids(w, n)) > 0; n = kids(w, n)[0] {
		depth++
	}
	if depth != 3 {
		t.Errorf("DCG depth = %d, want 3", depth)
	}
	counts := callsPerFunc(w)
	want := map[cfg.FuncID]int{0: 1, 1: 1, 2: 1, 3: 1}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("calls per function = %v", counts)
	}
}

func TestRecursiveTracing(t *testing.T) {
	src := `
func main() { print(fact(4)); }
func fact(n) {
    if (n <= 1) {
        return 1;
    }
    return n * fact(n - 1);
}
`
	w, g := traceOf(t, src, nil)
	counts := callsPerFunc(w)
	factID := cfg.FuncID(g.Src.Func("fact").Index)
	if counts[factID] != 4 {
		t.Errorf("fact called %d times, want 4", counts[factID])
	}
	// The recursion chain must be a path in the DCG: fact -> fact ->
	// fact -> fact.
	chain := 1
	for n := kids(w, 0)[0]; len(kids(w, n)) > 0; chain++ {
		n = kids(w, n)[0]
		if w.DCG.Fn[n] != factID {
			t.Fatalf("unexpected callee %d in recursion chain", w.DCG.Fn[n])
		}
	}
	if chain != 4 {
		t.Errorf("recursion chain length = %d, want 4", chain)
	}
	if err := trace.Validate(w, g); err != nil {
		t.Errorf("recursive WPP invalid: %v", err)
	}
}

func TestShortCircuitTracingSkipsCallee(t *testing.T) {
	src := `
func main() {
    var x = 0 && probe();
    var y = 1 || probe();
    print(x + y);
}
func probe() { return 1; }
`
	w, _ := traceOf(t, src, nil)
	if k := kids(w, 0); len(k) != 0 {
		t.Errorf("short-circuited calls were traced: %d children", len(k))
	}
}
