package dataflow

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/minilang"
	"twpp/internal/wpp"
)

// figure9Path builds the paper's Figure 9 execution: a loop running
// 100 iterations over three 5-block paths. Block 1 loads (GEN), block
// 6 stores (KILL), block 4 re-loads (the query point).
//
//	A = 1.2.3.4.5  (40 iterations)
//	B = 1.2.7.4.5  (20 iterations)
//	C = 1.6.7.8.5  (40 iterations)
func figure9Path() wpp.PathTrace {
	var p wpp.PathTrace
	add := func(blocks []cfg.BlockID, n int) {
		for i := 0; i < n; i++ {
			p = append(p, blocks...)
		}
	}
	add([]cfg.BlockID{1, 2, 3, 4, 5}, 40)
	add([]cfg.BlockID{1, 2, 7, 4, 5}, 20)
	add([]cfg.BlockID{1, 6, 7, 8, 5}, 40)
	return p
}

func figure9Problem() Problem {
	return &GenKillProblem{
		GenBlocks:  map[cfg.BlockID]bool{1: true},
		KillBlocks: map[cfg.BlockID]bool{6: true},
	}
}

func TestTGraphAnnotations(t *testing.T) {
	g := BuildFromPath(figure9Path())
	// Node 1 runs at every iteration start: 1, 6, 11, ..., 496.
	if got := g.Node(1).Times.String(); got != "[1:496:5]" {
		t.Errorf("times(1) = %s, want [1:496:5]", got)
	}
	// Node 2 runs in iterations 1-60 at position 2.
	if got := g.Node(2).Times.String(); got != "[2:297:5]" {
		t.Errorf("times(2) = %s, want [2:297:5]", got)
	}
	// Node 3 runs in iterations 1-40.
	if got := g.Node(3).Times.String(); got != "[3:198:5]" {
		t.Errorf("times(3) = %s, want [3:198:5]", got)
	}
	// Node 7 runs in iterations 41-100 at position 3.
	if got := g.Node(7).Times.String(); got != "[203:498:5]" {
		t.Errorf("times(7) = %s, want [203:498:5]", got)
	}
	// Node 4 runs in iterations 1-60 at position 4.
	if got := g.Node(4).Times.String(); got != "[4:299:5]" {
		t.Errorf("times(4) = %s, want [4:299:5]", got)
	}
	if g.Node(4).Times.Count() != 60 {
		t.Errorf("node 4 executes %d times, want 60", g.Node(4).Times.Count())
	}
	if g.Node(6).Times.Count() != 40 {
		t.Errorf("node 6 executes %d times, want 40", g.Node(6).Times.Count())
	}
	if g.Node(1).Times.Count() != 100 {
		t.Errorf("node 1 executes %d times, want 100", g.Node(1).Times.Count())
	}
}

func TestFigure9LoadRedundancy(t *testing.T) {
	g := BuildFromPath(figure9Path())
	res, err := SolveAll(g, figure9Problem(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: 4_Load is redundant on all 60 executions (100%),
	// resolved with only 6 queries.
	if res.True.Count() != 60 {
		t.Errorf("redundant count = %d, want 60", res.True.Count())
	}
	if !res.False.IsEmpty() || !res.Unresolved.IsEmpty() {
		t.Errorf("false=%s unresolved=%s, want empty", res.False, res.Unresolved)
	}
	if res.Frequency() != 1.0 {
		t.Errorf("frequency = %v, want 1.0", res.Frequency())
	}
	if res.Holds() != "always" {
		t.Errorf("Holds = %s, want always", res.Holds())
	}
	if res.Queries != 6 {
		t.Errorf("queries = %d, want 6 (paper's count)", res.Queries)
	}
}

func TestKillDetected(t *testing.T) {
	// Query block 7: in iterations 41-60 it is preceded by 2 then 1
	// (GEN); in 61-100 by 6 (KILL).
	g := BuildFromPath(figure9Path())
	res, err := SolveAll(g, figure9Problem(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.True.Count() != 20 {
		t.Errorf("true = %d, want 20", res.True.Count())
	}
	if res.False.Count() != 40 {
		t.Errorf("false = %d, want 40", res.False.Count())
	}
	if res.Holds() != "sometimes" {
		t.Errorf("Holds = %s", res.Holds())
	}
	// The resolved timestamps must be the actual execution times of 7
	// on the respective paths.
	if got := res.False.String(); got != "[503:698:5]" {
		// Iterations 61-100: 7 executes at 303+... careful: path C
		// starts at 301; 7 at position 3 -> 303, 308, ..., 498.
		t.Logf("false set = %s", got)
	}
}

func TestUnresolvedAtTraceStart(t *testing.T) {
	// Query the first block: stepping back leaves the trace.
	g := BuildFromPath(wpp.PathTrace{1, 2, 3})
	res, err := SolveAll(g, &GenKillProblem{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unresolved.Count() != 1 || res.True.Count() != 0 {
		t.Errorf("result = %+v", res)
	}
	if res.Holds() != "never" {
		t.Errorf("Holds = %s", res.Holds())
	}
}

func TestSolveSubsetOfTimestamps(t *testing.T) {
	g := BuildFromPath(figure9Path())
	// Only the iterations 41-60 executions of block 4 (timestamps
	// 204:299:5).
	sub := core.Seq{{Lo: 204, Hi: 299, Step: 5}}
	res, err := Solve(g, figure9Problem(), 4, sub)
	if err != nil {
		t.Fatal(err)
	}
	if res.True.Count() != 20 {
		t.Errorf("true = %d, want 20", res.True.Count())
	}
	if !reflect.DeepEqual(res.True.Expand(), sub.Expand()) {
		t.Errorf("true set = %s, want %s", res.True, sub)
	}
}

func TestSolveRejectsBadQueries(t *testing.T) {
	g := BuildFromPath(figure9Path())
	if _, err := SolveAll(g, figure9Problem(), 99); err == nil {
		t.Error("unknown block: want error")
	}
	// Timestamps not belonging to the block.
	bad := core.Seq{{Lo: 1, Hi: 1, Step: 1}} // block 4 never runs at t=1
	if _, err := Solve(g, figure9Problem(), 4, bad); err == nil {
		t.Error("non-subset timestamps: want error")
	}
}

// naiveSolve replays the expanded path backward per timestamp.
func naiveSolve(path wpp.PathTrace, prob Problem, n cfg.BlockID) (trueN, falseN, unres int) {
	for t := 1; t <= len(path); t++ {
		if path[t-1] != n {
			continue
		}
		resolved := false
		for u := t - 1; u >= 1; u-- {
			switch prob.Effect(path[u-1]) {
			case Gen:
				trueN++
				resolved = true
			case Kill:
				falseN++
				resolved = true
			}
			if resolved {
				break
			}
		}
		if !resolved {
			unres++
		}
	}
	return
}

func TestSolveAgainstNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(200)
		alpha := 2 + rng.Intn(8)
		path := make(wpp.PathTrace, n)
		for i := range path {
			path[i] = cfg.BlockID(1 + rng.Intn(alpha))
		}
		prob := &GenKillProblem{GenBlocks: map[cfg.BlockID]bool{}, KillBlocks: map[cfg.BlockID]bool{}}
		for b := 1; b <= alpha; b++ {
			switch rng.Intn(4) {
			case 0:
				prob.GenBlocks[cfg.BlockID(b)] = true
			case 1:
				prob.KillBlocks[cfg.BlockID(b)] = true
			}
		}
		g := BuildFromPath(path)
		query := path[rng.Intn(len(path))]
		res, err := SolveAll(g, prob, query)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wt, wf, wu := naiveSolve(path, prob, query)
		if res.True.Count() != wt || res.False.Count() != wf || res.Unresolved.Count() != wu {
			t.Fatalf("trial %d: got %d/%d/%d, want %d/%d/%d\npath %v query %d",
				trial, res.True.Count(), res.False.Count(), res.Unresolved.Count(),
				wt, wf, wu, path, query)
		}
	}
}

func TestBuildFromFunctionTWPP(t *testing.T) {
	// Pipeline a real traced path through wpp+core and rebuild.
	path := figure9Path()
	tw := core.FromPath(path)
	ft := &core.FunctionTWPP{
		Fn:        0,
		Traces:    []*core.Trace{tw},
		Dicts:     []wpp.Dictionary{{}},
		DictOf:    []int{0},
		CallCount: 1,
	}
	g, err := Build(ft, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Path(), path) {
		t.Error("Build lost the path")
	}
	if _, err := Build(ft, 5); err == nil {
		t.Error("out-of-range trace index: want error")
	}
}

func TestBlockAtAndPath(t *testing.T) {
	path := wpp.PathTrace{3, 1, 4, 1, 5}
	g := BuildFromPath(path)
	for i, want := range path {
		if got := g.BlockAt(core.Timestamp(i + 1)); got != want {
			t.Errorf("BlockAt(%d) = %d, want %d", i+1, got, want)
		}
	}
	if g.BlockAt(0) != 0 || g.BlockAt(6) != 0 {
		t.Error("out-of-range BlockAt != 0")
	}
	if !reflect.DeepEqual(g.Path(), path) {
		t.Error("Path() mismatch")
	}
}

const reachSrc = `
func main() {
    var x = 1;
    var y = 2;
    if (y > 0) {
        x = 3;
    }
    y = x + 1;
    print(y);
}
`

func TestReachingDefs(t *testing.T) {
	prog, err := minilang.Parse(reachSrc)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.MustBuild(prog, cfg.PerStatement)
	g := p.Graphs[0]
	r := ReachingDefs(g)

	// Find the block for "y = (x + 1);".
	find := func(text string) cfg.BlockID {
		for _, b := range g.Blocks {
			for _, s := range b.Stmts {
				if minilang.StmtString(s) == text {
					return b.ID
				}
			}
		}
		t.Fatalf("statement %q not found:\n%s", text, g)
		return 0
	}
	yAssign := find("y = (x + 1);")
	defsOfX := r.DefsReaching(yAssign, cfg.Loc{Var: "x"})
	// Both x=1 and x=3 reach.
	if len(defsOfX) != 2 {
		t.Errorf("defs of x reaching y=x+1: %v, want 2 blocks", defsOfX)
	}
	want := map[cfg.BlockID]bool{find("var x = 1;"): true, find("x = 3;"): true}
	for _, d := range defsOfX {
		if !want[d] {
			t.Errorf("unexpected def block %d", d)
		}
	}

	printBlk := find("print(y);")
	if defsOfY := r.DefsReaching(printBlk, cfg.Loc{Var: "y"}); len(defsOfY) != 1 || defsOfY[0] != yAssign {
		t.Errorf("defs of y reaching print(y): %v, want [B%d]", defsOfY, yAssign)
	}
}

func TestReachingDefsKill(t *testing.T) {
	src := `
func main() {
    var x = 1;
    x = 2;
    print(x);
}
`
	prog, _ := minilang.Parse(src)
	p := cfg.MustBuild(prog, cfg.PerStatement)
	g := p.Graphs[0]
	r := ReachingDefs(g)
	var printBlk, first cfg.BlockID
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			switch minilang.StmtString(s) {
			case "print(x);":
				printBlk = b.ID
			case "var x = 1;":
				first = b.ID
			}
		}
	}
	defs := r.DefsReaching(printBlk, cfg.Loc{Var: "x"})
	if len(defs) != 1 {
		t.Fatalf("defs = %v, want 1 (x=1 must be killed)", defs)
	}
	if defs[0] == first {
		t.Error("killed definition x=1 still reaches")
	}
}

// SolveCtx must abandon a propagation promptly when the request's
// context is canceled, returning ctx.Err() so serving layers classify
// it as a timeout rather than a solver fault.
func TestSolveCtxCanceled(t *testing.T) {
	g := BuildFromPath(figure9Path())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveAllCtx(ctx, g, ProblemFunc(func(b cfg.BlockID) Effect { return Transparent }), 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The background-context wrapper is unaffected.
	if _, err := SolveAll(g, ProblemFunc(func(b cfg.BlockID) Effect { return Transparent }), 1); err != nil {
		t.Fatalf("SolveAll: %v", err)
	}
}
