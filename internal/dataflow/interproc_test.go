package dataflow

import (
	"math/rand"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/interp"
	"twpp/internal/minilang"
	"twpp/internal/sequitur"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// buildTWPP traces src and returns the TWPP plus the cfg program.
func buildTWPP(t *testing.T, src string, input []int64) (*core.TWPP, *cfg.Program) {
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
	return core.FromCompacted(c), prog
}

// findNode returns the first DCG row (preorder) for function fn, or -1.
func findNode(tw *core.TWPP, fn cfg.FuncID) int {
	for i, f := range tw.DCG.Fn {
		if f == fn {
			return i
		}
	}
	return -1
}

// availProblem builds an InterProblem for "an array value is
// available". Arrays are passed by reference under different local
// names (a in the caller, arr in the callee), so the fact is
// name-insensitive: any array load generates it and any array store
// kills it — the standard conservative aliasing assumption.
func availProblem(p *cfg.Program) InterProblem {
	return InterProblemFunc(func(fn cfg.FuncID, b cfg.BlockID) Effect {
		g := p.Graph(fn)
		if g == nil {
			return Transparent
		}
		blk := g.Block(b)
		if blk == nil {
			return Transparent
		}
		eff := Transparent
		apply := func(e cfg.Effects) {
			loads, stores := false, false
			for _, u := range e.Uses {
				if u.Array {
					loads = true
				}
			}
			for _, d := range e.Defs {
				if d.Array {
					stores = true
				}
			}
			if loads {
				eff = Gen
			}
			if stores {
				eff = Kill
			}
		}
		for _, s := range blk.Stmts {
			apply(cfg.StmtEffects(s))
		}
		switch t := blk.Term.(type) {
		case *cfg.CondJump:
			var e cfg.Effects
			cfg.ExprEffects(t.Cond, &e)
			apply(e)
		case *cfg.Ret:
			if t.Value != nil {
				var e cfg.Effects
				cfg.ExprEffects(t.Value, &e)
				apply(e)
			}
		}
		return eff
	})
}

func TestInterCalleeKills(t *testing.T) {
	// The callee stores to the array between the two loads in main:
	// intraprocedural analysis (ignoring calls) would wrongly call the
	// second load redundant; the interprocedural solver must see the
	// kill inside poke.
	src := `
func main() {
    var a = alloc(4);
    a[0] = 1;
    var x = a[0];
    poke(a);
    var y = a[0];
    print(x + y);
}
func poke(arr) {
    arr[0] = 99;
    return 0;
}
`
	tw, prog := buildTWPP(t, src, nil)
	prob := availProblem(prog)
	mainNode := 0

	// Find the block of `var y = a[0];` in main.
	g := prog.Graphs[0]
	var yBlock cfg.BlockID
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			if minilang.StmtString(s) == "var y = a[0];" {
				yBlock = b.ID
			}
		}
	}
	if yBlock == 0 {
		t.Fatalf("y block not found:\n%s", g)
	}
	res, err := SolveInter(tw, prob, mainNode, yBlock, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.False != 1 || res.True != 0 {
		t.Errorf("callee kill missed: %+v", res)
	}
}

func TestInterCalleeGens(t *testing.T) {
	// The callee loads the array right before main's load: the value
	// is available courtesy of the callee.
	src := `
func main() {
    var a = alloc(4);
    a[0] = 1;
    peek(a);
    var y = a[0];
    print(y);
}
func peek(arr) {
    return arr[0];
}
`
	tw, prog := buildTWPP(t, src, nil)
	prob := availProblem(prog)
	g := prog.Graphs[0]
	var yBlock cfg.BlockID
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			if minilang.StmtString(s) == "var y = a[0];" {
				yBlock = b.ID
			}
		}
	}
	res, err := SolveInter(tw, prob, 0, yBlock, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.True != 1 {
		t.Errorf("callee gen missed: %+v", res)
	}
}

func TestInterContinuesIntoCaller(t *testing.T) {
	// The queried load is the first statement of the callee; the
	// generating load happened in the caller before the call. The
	// query must climb the DCG.
	src := `
func main() {
    var a = alloc(4);
    a[0] = 1;
    var x = a[0];
    var r = child(a);
    print(x + r);
}
func child(arr) {
    return arr[2];
}
`
	tw, prog := buildTWPP(t, src, nil)
	prob := availProblem(prog)
	childID := cfg.FuncID(prog.Src.Func("child").Index)
	node := findNode(tw, childID)
	if node < 0 {
		t.Fatal("child call not in DCG")
	}
	// The load arr[2] is in child's return statement; find its block:
	// the Ret terminator's block. With PerStatement, the return is its
	// own block — query the block executing at child's first timestamp
	// with a load: simplest to query child's entry block, whose Ret...
	// find the block whose terminator is Ret with the IndexExpr.
	cg := prog.Graph(childID)
	var loadBlock cfg.BlockID
	for _, b := range cg.Blocks {
		if r, ok := b.Term.(*cfg.Ret); ok && r.Value != nil {
			loadBlock = b.ID
		}
	}
	if loadBlock == 0 {
		t.Fatalf("load block not found:\n%s", cg)
	}
	res, err := SolveInter(tw, prob, node, loadBlock, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.True != 1 {
		t.Errorf("caller gen missed: %+v (queries %d)", res, res.Queries)
	}
}

func TestInterUnresolvedAtRoot(t *testing.T) {
	// No load or store before the first load in main: unresolved at
	// the root entry.
	src := `
func main() {
    var a = alloc(4);
    var y = a[0];
    print(y);
}
`
	tw, prog := buildTWPP(t, src, nil)
	// A problem where only loads matter and alloc isn't a def: treat
	// every block transparently except loads of a (Gen). The first
	// load has nothing before it.
	prob := InterProblemFunc(func(fn cfg.FuncID, b cfg.BlockID) Effect {
		return Transparent
	})
	g := prog.Graphs[0]
	var yBlock cfg.BlockID
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			if minilang.StmtString(s) == "var y = a[0];" {
				yBlock = b.ID
			}
		}
	}
	res, err := SolveInter(tw, prob, 0, yBlock, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unresolved != 1 {
		t.Errorf("want unresolved at root: %+v", res)
	}
}

func TestInterSiblingOrder(t *testing.T) {
	// Two calls back to back: kill(a); gen(a); query after them sees
	// the GEN (newest sibling wins); with the order swapped it sees
	// the KILL.
	mk := func(first, second string) string {
		return `
func main() {
    var a = alloc(4);
    a[0] = 1;
    ` + first + `(a);
    ` + second + `(a);
    var y = a[0];
    print(y);
}
func gen(arr) { return arr[0]; }
func kill(arr) { arr[1] = 2; return 0; }
`
	}
	for _, c := range []struct {
		src      string
		wantTrue int
	}{
		{mk("kill", "gen"), 1},
		{mk("gen", "kill"), 0},
	} {
		tw, prog := buildTWPP(t, c.src, nil)
		prob := availProblem(prog)
		g := prog.Graphs[0]
		var yBlock cfg.BlockID
		for _, b := range g.Blocks {
			for _, s := range b.Stmts {
				if minilang.StmtString(s) == "var y = a[0];" {
					yBlock = b.ID
				}
			}
		}
		res, err := SolveInter(tw, prob, 0, yBlock, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.True != c.wantTrue {
			t.Errorf("sibling order: got %+v, want True=%d", res, c.wantTrue)
		}
	}
}

// naiveInterOracle answers the same query by replaying the fully
// interleaved linear WPP.
func naiveInterOracle(w *trace.RawWPP, prog *cfg.Program, prob InterProblem, targetFn cfg.FuncID, block cfg.BlockID) (trueN, falseN, unres int) {
	lin := w.Linear()
	type frame struct {
		fn cfg.FuncID
	}
	// Build the flat sequence of (fn, block) events.
	var events []struct {
		fn cfg.FuncID
		b  cfg.BlockID
	}
	var stack []frame
	for _, sym := range lin {
		if f, ok := sequiturIsEnter(sym); ok {
			stack = append(stack, frame{fn: cfg.FuncID(f)})
		} else if sym == 0 {
			stack = stack[:len(stack)-1]
		} else {
			events = append(events, struct {
				fn cfg.FuncID
				b  cfg.BlockID
			}{stack[len(stack)-1].fn, cfg.BlockID(sym)})
		}
	}
	for i, ev := range events {
		if ev.fn != targetFn || ev.b != block {
			continue
		}
		resolved := false
		for j := i - 1; j >= 0 && !resolved; j-- {
			switch prob.Effect(events[j].fn, events[j].b) {
			case Gen:
				trueN++
				resolved = true
			case Kill:
				falseN++
				resolved = true
			}
		}
		if !resolved {
			unres++
		}
	}
	return
}

func sequiturIsEnter(sym uint32) (int, bool) { return sequitur.IsEnter(sym) }

func TestInterAgainstLinearOracle(t *testing.T) {
	// Random-ish program with nested calls, loops and stores; compare
	// SolveInter (aggregated over every call instance of the target
	// function) against the linear-replay oracle.
	src := `
func main() {
    var a = alloc(8);
    a[0] = 1;
    for (var i = 0; i < 12; i = i + 1) {
        var x = reader(a, i);
        if (i % 3 == 0) {
            writer(a, i);
        }
        var y = reader(a, i + 1);
        print(x + y);
    }
}
func reader(arr, k) {
    return arr[k % 8];
}
func writer(arr, k) {
    arr[k % 8] = k;
    return 0;
}
`
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
	if _, err := interp.Run(prog, b, nil, interp.Limits{}); err != nil {
		t.Fatal(err)
	}
	w := b.Finish()
	c, _ := wpp.Compact(w)
	tw := core.FromCompacted(c)
	prob := availProblem(prog)

	readerID := cfg.FuncID(prog.Src.Func("reader").Index)
	rg := prog.Graph(readerID)
	var loadBlock cfg.BlockID
	for _, blk := range rg.Blocks {
		if r, ok := blk.Term.(*cfg.Ret); ok && r.Value != nil {
			loadBlock = blk.ID
		}
	}

	var got InterResult
	for n, fn := range tw.DCG.Fn {
		if fn != readerID {
			continue
		}
		res, err := SolveInter(tw, prob, n, loadBlock, nil)
		if err != nil {
			t.Fatal(err)
		}
		got.True += res.True
		got.False += res.False
		got.Unresolved += res.Unresolved
	}

	wt, wf, wu := naiveInterOracle(w, prog, prob, readerID, loadBlock)
	if got.True != wt || got.False != wf || got.Unresolved != wu {
		t.Errorf("SolveInter = %d/%d/%d, oracle = %d/%d/%d",
			got.True, got.False, got.Unresolved, wt, wf, wu)
	}
	if got.True+got.False+got.Unresolved != 24 { // two reader calls x 12 iterations
		t.Errorf("total instances = %d, want 24", got.True+got.False+got.Unresolved)
	}
}

func TestInterRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 15; trial++ {
		iters := 3 + rng.Intn(10)
		period := 2 + rng.Intn(4)
		src := `
func main() {
    var a = alloc(8);
    a[0] = 1;
    for (var i = 0; i < ` + itoa(iters) + `; i = i + 1) {
        var x = reader(a, i);
        if (i % ` + itoa(period) + ` == 1) {
            writer(a, i);
        }
        print(x);
    }
}
func reader(arr, k) {
    return arr[k % 8];
}
func writer(arr, k) {
    arr[k % 8] = k;
    return 0;
}
`
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
		if _, err := interp.Run(prog, b, nil, interp.Limits{}); err != nil {
			t.Fatal(err)
		}
		w := b.Finish()
		c, _ := wpp.Compact(w)
		tw := core.FromCompacted(c)
		prob := availProblem(prog)
		readerID := cfg.FuncID(prog.Src.Func("reader").Index)
		rg := prog.Graph(readerID)
		var loadBlock cfg.BlockID
		for _, blk := range rg.Blocks {
			if r, ok := blk.Term.(*cfg.Ret); ok && r.Value != nil {
				loadBlock = blk.ID
			}
		}
		var got InterResult
		for n, fn := range tw.DCG.Fn {
			if fn != readerID {
				continue
			}
			res, err := SolveInter(tw, prob, n, loadBlock, nil)
			if err != nil {
				t.Fatal(err)
			}
			got.True += res.True
			got.False += res.False
			got.Unresolved += res.Unresolved
		}
		wt, wf, wu := naiveInterOracle(w, prog, prob, readerID, loadBlock)
		if got.True != wt || got.False != wf || got.Unresolved != wu {
			t.Fatalf("trial %d (iters=%d period=%d): SolveInter = %d/%d/%d, oracle = %d/%d/%d",
				trial, iters, period, got.True, got.False, got.Unresolved, wt, wf, wu)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestInterErrors(t *testing.T) {
	src := `
func main() {
    var a = alloc(2);
    print(a[0]);
}
`
	tw, prog := buildTWPP(t, src, nil)
	prob := availProblem(prog)
	if _, err := SolveInter(tw, prob, 0, 99, nil); err == nil {
		t.Error("unknown block: want error")
	}
	for _, orphan := range []int{-1, tw.DCG.Len()} {
		if _, err := SolveInter(tw, prob, orphan, 1, nil); err == nil {
			t.Errorf("call %d outside the DCG: want error", orphan)
		}
	}
	bad := core.Seq{{Lo: 9999, Hi: 9999, Step: 1}}
	if _, err := SolveInter(tw, prob, 0, 1, bad); err == nil {
		t.Error("bad timestamps: want error")
	}
}
