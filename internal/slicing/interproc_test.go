package slicing

import (
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/dataflow"
	"twpp/internal/interp"
	"twpp/internal/minilang"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// buildInter traces src and prepares the interprocedural slicer.
func buildInter(t *testing.T, src string, input []int64) (*InterSlicer, *cfg.Program) {
	t.Helper()
	parsed, err := minilang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(parsed, cfg.PerStatement)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(parsed.Funcs))
	for i, fn := range parsed.Funcs {
		names[i] = fn.Name
	}
	b := trace.NewBuilder(names)
	if _, err := interp.Run(prog, b, input, interp.Limits{}); err != nil {
		t.Fatal(err)
	}
	c, _ := wpp.Compact(b.Finish())
	return NewInter(prog, core.FromCompacted(c)), prog
}

// blockOf finds the block containing the statement with the given
// source text in function fn.
func blockOf(t *testing.T, prog *cfg.Program, fn cfg.FuncID, text string) cfg.BlockID {
	t.Helper()
	g := prog.Graph(fn)
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			if minilang.StmtString(s) == text {
				return b.ID
			}
		}
	}
	t.Fatalf("statement %q not found in function %d:\n%s", text, fn, g)
	return 0
}

func fnID(t *testing.T, prog *cfg.Program, name string) cfg.FuncID {
	t.Helper()
	fd := prog.Src.Func(name)
	if fd == nil {
		t.Fatalf("function %q not found", name)
	}
	return cfg.FuncID(fd.Index)
}

func TestInterSliceDescendsIntoCallee(t *testing.T) {
	// The printed value flows through square's return: the slice must
	// include square's return computation, but not the unrelated
	// "noise" statement in main.
	src := `
func main() {
    var a = 3;
    var noise = 99;
    var b = square(a);
    print(b);
}
func square(x) {
    var y = x * x;
    return y;
}
`
	s, prog := buildInter(t, src, nil)
	mainID := fnID(t, prog, "main")
	sqID := fnID(t, prog, "square")
	crit := Criterion{Block: blockOf(t, prog, mainID, "print(b);")}
	sl, err := s.Slice(0, crit)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.Contains(sqID, blockOf(t, prog, sqID, "var y = (x * x);")) {
		t.Errorf("slice missing callee computation: %v", sl.Sites)
	}
	if !sl.Contains(mainID, blockOf(t, prog, mainID, "var a = 3;")) {
		t.Errorf("slice missing argument source (via parameter climb): %v", sl.Sites)
	}
	if sl.Contains(mainID, blockOf(t, prog, mainID, "var noise = 99;")) {
		t.Errorf("slice includes unrelated statement: %v", sl.Sites)
	}
}

func TestInterSliceClimbsToCaller(t *testing.T) {
	// Slicing inside the callee on its parameter must reach the
	// caller's argument definition.
	src := `
func main() {
    var seed = 7;
    var unrelated = 1;
    use(seed + 1);
    print(unrelated);
}
func use(v) {
    var w = v * 2;
    print(w);
}
`
	s, prog := buildInter(t, src, nil)
	mainID := fnID(t, prog, "main")
	useID := fnID(t, prog, "use")
	useNode := 1 // main's first call
	if s.TW.DCG.Fn[useNode] != useID {
		t.Fatalf("unexpected DCG shape")
	}
	crit := Criterion{Block: blockOf(t, prog, useID, "print(w);")}
	sl, err := s.Slice(useNode, crit)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.Contains(useID, blockOf(t, prog, useID, "var w = (v * 2);")) {
		t.Errorf("slice missing local dep: %v", sl.Sites)
	}
	if !sl.Contains(mainID, blockOf(t, prog, mainID, "var seed = 7;")) {
		t.Errorf("slice missing caller argument source: %v", sl.Sites)
	}
	if sl.Contains(mainID, blockOf(t, prog, mainID, "var unrelated = 1;")) {
		t.Errorf("slice includes unrelated caller statement: %v", sl.Sites)
	}
}

func TestInterSliceArrayEffects(t *testing.T) {
	// The callee stores into the caller's array; the printed element
	// flows through that store.
	src := `
func main() {
    var buf = alloc(4);
    fill(buf, 21);
    print(buf[0]);
}
func fill(arr, v) {
    arr[0] = v * 2;
    return 0;
}
`
	s, prog := buildInter(t, src, nil)
	fillID := fnID(t, prog, "fill")
	mainID := fnID(t, prog, "main")
	crit := Criterion{Block: blockOf(t, prog, mainID, "print(buf[0]);")}
	sl, err := s.Slice(0, crit)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.Contains(fillID, blockOf(t, prog, fillID, "arr[0] = (v * 2);")) {
		t.Errorf("slice missing callee array store: %v", sl.Sites)
	}
}

func TestInterSliceTransitiveCalls(t *testing.T) {
	// Three-deep call chain: main -> outer -> inner.
	src := `
func main() {
    var x = 5;
    print(outer(x));
}
func outer(a) {
    return inner(a) + 1;
}
func inner(b) {
    return b * 3;
}
`
	s, prog := buildInter(t, src, nil)
	innerID := fnID(t, prog, "inner")
	mainID := fnID(t, prog, "main")
	crit := Criterion{Block: blockOf(t, prog, mainID, "print(outer(x));")}
	sl, err := s.Slice(0, crit)
	if err != nil {
		t.Fatal(err)
	}
	// inner's return computation must appear.
	found := false
	for _, site := range sl.Sites {
		if site.Fn == innerID {
			found = true
		}
	}
	if !found {
		t.Errorf("slice missing the transitive callee: %v", sl.Sites)
	}
	if !sl.Contains(mainID, blockOf(t, prog, mainID, "var x = 5;")) {
		t.Errorf("slice missing the original argument: %v", sl.Sites)
	}
}

func TestInterSliceInstancePrecision(t *testing.T) {
	// Two calls to the same function with different arguments: slicing
	// the second print must not pull in the first call's argument
	// chain... at site granularity both calls share blocks, but the
	// sliced *instances* are distinguishable via Instances counting.
	src := `
func main() {
    var p = 1;
    var q = 2;
    var r1 = id(p);
    var r2 = id(q);
    print(r2);
}
func id(v) { return v; }
`
	s, prog := buildInter(t, src, nil)
	mainID := fnID(t, prog, "main")
	crit := Criterion{Block: blockOf(t, prog, mainID, "print(r2);")}
	sl, err := s.Slice(0, crit)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.Contains(mainID, blockOf(t, prog, mainID, "var q = 2;")) {
		t.Errorf("slice missing q: %v", sl.Sites)
	}
	if sl.Contains(mainID, blockOf(t, prog, mainID, "var p = 1;")) {
		t.Errorf("instance precision lost: p in slice %v", sl.Sites)
	}
}

func TestInterSliceErrors(t *testing.T) {
	src := `
func main() {
    var x = 1;
    print(x);
}
`
	s, prog := buildInter(t, src, nil)
	_ = prog
	if _, err := s.Slice(0, Criterion{Block: 99}); err == nil {
		t.Error("unknown block: want error")
	}
	if _, err := s.Slice(0, Criterion{Block: 1, Time: 999}); err == nil {
		t.Error("bad time: want error")
	}
}

func TestInterMatchesIntraOnLeafFrame(t *testing.T) {
	// On a call-free program the interprocedural slicer must agree
	// with Approach3 at block granularity.
	src := `
func main() {
    read n;
    var a = 1;
    var b = 2;
    if (n > 0) {
        a = b + 1;
    }
    print(a);
}
`
	s, prog := buildInter(t, src, []int64{5})
	mainID := fnID(t, prog, "main")
	printBlk := blockOf(t, prog, mainID, "print(a);")

	inter, err := s.Slice(0, Criterion{Block: printBlk})
	if err != nil {
		t.Fatal(err)
	}
	// Intraprocedural reference.
	parsed, _ := minilang.Parse(src)
	p2, _ := cfg.Build(parsed, cfg.PerStatement)
	names := []string{"main"}
	tb := trace.NewBuilder(names)
	if _, err := interp.Run(p2, tb, []int64{5}, interp.Limits{}); err != nil {
		t.Fatal(err)
	}
	w := tb.Finish()
	tg := dataflow.BuildFromPath(wpp.PathTrace(w.Traces[w.DCG.Trace[0]]))
	intra := New(p2.Graphs[0], tg)
	a3, err := intra.Approach3(Criterion{Block: printBlk})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range a3.Blocks {
		if !inter.Contains(mainID, b) {
			t.Errorf("interprocedural slice missing intra block %d: %v vs %v", b, inter.Sites, a3.Blocks)
		}
	}
	for _, site := range inter.Sites {
		if !a3.Contains(site.Block) {
			t.Errorf("interprocedural slice has extra block %d: %v vs %v", site.Block, inter.Sites, a3.Blocks)
		}
	}
}
