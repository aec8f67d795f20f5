package cfg

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"twpp/internal/minilang"
)

func parse(t *testing.T, src string) *minilang.Program {
	t.Helper()
	p, err := minilang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func build(t *testing.T, src string, mode Mode) *Program {
	t.Helper()
	p, err := Build(parse(t, src), mode)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

const loopSrc = `
func main() {
    var x = 0;
    for (var i = 0; i < 10; i = i + 1) {
        if (x < 5) {
            x = f(x);
        } else {
            x = x - 1;
        }
    }
    print(x);
}

func f(a) {
    return a + 2;
}
`

func TestBuildStructure(t *testing.T) {
	p := build(t, loopSrc, MaxBlocks)
	g := p.Graphs[0]
	if g.Entry.ID != 1 {
		t.Errorf("entry id = %d, want 1", g.Entry.ID)
	}
	if g.Exit.ID != BlockID(len(g.Blocks)) {
		t.Errorf("exit id = %d, want %d", g.Exit.ID, len(g.Blocks))
	}
	// Structure: entry(init), loop head, then branch, two arms, post,
	// after(print), exit. The head must have two successors.
	var branchy int
	for _, b := range g.Blocks {
		if len(b.Succs) == 2 {
			branchy++
		}
	}
	if branchy != 2 { // loop condition + if condition
		t.Errorf("blocks with 2 successors = %d, want 2\n%s", branchy, g)
	}
	// Every non-exit block has a terminator and consistent edges.
	for _, b := range g.Blocks {
		if b == g.Exit {
			if b.Term != nil {
				t.Errorf("exit block has terminator")
			}
			continue
		}
		if b.Term == nil {
			t.Errorf("B%d has no terminator", b.ID)
			continue
		}
		if !reflect.DeepEqual(b.Term.Targets(), b.Succs) {
			t.Errorf("B%d: Targets() != Succs", b.ID)
		}
		for _, s := range b.Succs {
			found := false
			for _, p := range s.Preds {
				if p == b {
					found = true
				}
			}
			if !found {
				t.Errorf("edge B%d->B%d missing from preds", b.ID, s.ID)
			}
		}
	}
}

func TestPerStatementMode(t *testing.T) {
	src := `
func main() {
    var a = 1;
    var b = 2;
    var c = 3;
    print(a + b + c);
}
`
	max := build(t, src, MaxBlocks).Graphs[0]
	per := build(t, src, PerStatement).Graphs[0]
	// MaxBlocks: all four statements share one block (+ exit).
	if len(max.Blocks) != 2 {
		t.Errorf("MaxBlocks: %d blocks, want 2\n%s", len(max.Blocks), max)
	}
	// PerStatement: one block per statement + exit.
	stmtBlocks := 0
	for _, b := range per.Blocks {
		if len(b.Stmts) > 1 {
			t.Errorf("PerStatement block B%d has %d statements", b.ID, len(b.Stmts))
		}
		if len(b.Stmts) == 1 {
			stmtBlocks++
		}
	}
	if stmtBlocks != 4 {
		t.Errorf("PerStatement: %d statement blocks, want 4\n%s", stmtBlocks, per)
	}
}

func TestBreakContinue(t *testing.T) {
	src := `
func main() {
    var i = 0;
    while (i < 100) {
        i = i + 1;
        if (i % 2 == 0) {
            continue;
        }
        if (i > 50) {
            break;
        }
        print(i);
    }
    print(i);
}
`
	g := build(t, src, MaxBlocks).Graphs[0]
	// The loop head must be reachable from the continue path; the
	// after-loop block from the break path. Smoke test: graph connected,
	// has a back edge.
	dom := dominators(g)
	backEdges := 0
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if dominates(dom, s, b) {
				backEdges++
			}
		}
	}
	if backEdges != 2 { // normal latch and continue edge
		t.Errorf("back edges = %d, want 2\n%s", backEdges, g)
	}
}

func TestBreakOutsideLoop(t *testing.T) {
	if _, err := Build(parse(t, "func main() { break; }"), MaxBlocks); err == nil {
		t.Error("break outside loop: want error")
	}
	if _, err := Build(parse(t, "func main() { continue; }"), MaxBlocks); err == nil {
		t.Error("continue outside loop: want error")
	}
}

func TestUnreachableCodePruned(t *testing.T) {
	src := `
func main() {
    return;
    print(1);
}
`
	g := build(t, src, MaxBlocks).Graphs[0]
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			if _, ok := s.(*minilang.PrintStmt); ok {
				t.Errorf("unreachable print survived:\n%s", g)
			}
		}
	}
}

func TestInfiniteLoopStillBuilds(t *testing.T) {
	src := `
func main() {
    var i = 0;
    while (1 == 1) {
        i = i + 1;
    }
}
`
	g := build(t, src, MaxBlocks).Graphs[0]
	if g.Exit == nil {
		t.Fatal("no exit block")
	}
	// The exit is unreachable but must still exist with the last id.
	if g.Exit.ID != BlockID(len(g.Blocks)) {
		t.Errorf("exit id = %d, want last", g.Exit.ID)
	}
}

func TestStmtEffects(t *testing.T) {
	src := `
func main() {
    var a = alloc(8);
    x = y + a[i] * 2;
    a[j] = x + z;
    read q;
    print(x, a[0]);
    f(x, w);
}
func f(p, r) { return p; }
`
	g := build(t, src, PerStatement).Graphs[0]
	type want struct {
		defs, uses []string
		calls      int
		reads      bool
	}
	wants := map[string]want{
		"var a = alloc(8);":     {defs: []string{"a"}},
		"x = (y + (a[i] * 2));": {defs: []string{"x"}, uses: []string{"y", "a[]", "i"}},
		"a[j] = (x + z);":       {defs: []string{"a[]"}, uses: []string{"x", "z", "j"}},
		"read q;":               {defs: []string{"q"}, reads: true},
		"print(x, a[0]);":       {uses: []string{"x", "a[]"}},
		"f(x, w);":              {uses: []string{"x", "w"}, calls: 1},
	}
	found := 0
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			key := minilang.StmtString(s)
			w, ok := wants[key]
			if !ok {
				continue
			}
			found++
			e := StmtEffects(s)
			if !locSetEqual(e.Defs, w.defs) {
				t.Errorf("%s: defs = %v, want %v", key, e.Defs, w.defs)
			}
			if !locSetEqual(e.Uses, w.uses) {
				t.Errorf("%s: uses = %v, want %v", key, e.Uses, w.uses)
			}
			if len(e.Calls) != w.calls {
				t.Errorf("%s: calls = %v, want %d", key, e.Calls, w.calls)
			}
			if e.ReadsInput != w.reads {
				t.Errorf("%s: reads = %v, want %v", key, e.ReadsInput, w.reads)
			}
		}
	}
	if found != len(wants) {
		t.Errorf("matched %d statements, want %d", found, len(wants))
	}
}

func locSetEqual(locs []Loc, want []string) bool {
	if len(locs) != len(want) {
		return false
	}
	set := map[string]bool{}
	for _, l := range locs {
		set[l.String()] = true
	}
	for _, w := range want {
		if !set[w] {
			return false
		}
	}
	return true
}

func TestVars(t *testing.T) {
	src := `
func main() {
    var a = alloc(4);
    a[0] = b + c;
}
`
	g := build(t, src, MaxBlocks).Graphs[0]
	var names []string
	for _, l := range g.Vars() {
		names = append(names, l.String())
	}
	want := []string{"a", "a[]", "b", "c"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("Vars = %v, want %v", names, want)
	}
}

// dominators computes the dominator tree rooted at the entry, the
// forward direction of the algorithm behind PostDominators.
func dominators(g *Graph) *DomTree {
	return computeDom(g.Entry, func(b *Block) []*Block { return b.Preds },
		func(b *Block) []*Block { return b.Succs })
}

// dominates reports whether a dominates b in d (reflexive).
func dominates(d *DomTree, a, b *Block) bool {
	for b != nil {
		if a == b {
			return true
		}
		b = d.Idom(b)
	}
	return false
}

// naiveDominators computes dominators by the textbook dataflow
// definition for cross-checking.
func naiveDominators(g *Graph, entry *Block, preds func(*Block) []*Block, succs func(*Block) []*Block) map[*Block]map[*Block]bool {
	reach := map[*Block]bool{}
	var stack []*Block
	stack = append(stack, entry)
	reach[entry] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range succs(b) {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	dom := map[*Block]map[*Block]bool{}
	all := map[*Block]bool{}
	for b := range reach {
		all[b] = true
	}
	for b := range reach {
		if b == entry {
			dom[b] = map[*Block]bool{b: true}
		} else {
			cp := map[*Block]bool{}
			for x := range all {
				cp[x] = true
			}
			dom[b] = cp
		}
	}
	changed := true
	for changed {
		changed = false
		for b := range reach {
			if b == entry {
				continue
			}
			var inter map[*Block]bool
			for _, p := range preds(b) {
				if !reach[p] {
					continue
				}
				if inter == nil {
					inter = map[*Block]bool{}
					for x := range dom[p] {
						inter[x] = true
					}
				} else {
					for x := range inter {
						if !dom[p][x] {
							delete(inter, x)
						}
					}
				}
			}
			if inter == nil {
				inter = map[*Block]bool{}
			}
			inter[b] = true
			if len(inter) != len(dom[b]) {
				dom[b] = inter
				changed = true
			} else {
				for x := range inter {
					if !dom[b][x] {
						dom[b] = inter
						changed = true
						break
					}
				}
			}
		}
	}
	return dom
}

// randomProgram generates a random but valid minilang program.
func randomProgram(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("func main() {\n var x = 0;\n var y = 1;\n")
	var emit func(depth int)
	emit = func(depth int) {
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			switch rng.Intn(6) {
			case 0:
				b.WriteString(" x = x + 1;\n")
			case 1:
				b.WriteString(" y = y * 2;\n")
			case 2:
				if depth < 3 {
					b.WriteString(" if (x < y) {\n")
					emit(depth + 1)
					if rng.Intn(2) == 0 {
						b.WriteString(" } else {\n")
						emit(depth + 1)
					}
					b.WriteString(" }\n")
				}
			case 3:
				if depth < 3 {
					b.WriteString(" while (x < 3) {\n x = x + 1;\n")
					emit(depth + 1)
					if rng.Intn(3) == 0 {
						b.WriteString(" if (y > 10) { break; }\n")
					}
					b.WriteString(" }\n")
				}
			case 4:
				if depth > 0 && rng.Intn(4) == 0 {
					b.WriteString(" return;\n")
				}
			case 5:
				b.WriteString(" print(x);\n")
			}
		}
	}
	emit(0)
	b.WriteString("}\n")
	return b.String()
}

func TestDominatorsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 40; trial++ {
		src := randomProgram(rng)
		for _, mode := range []Mode{MaxBlocks, PerStatement} {
			g := build(t, src, mode).Graphs[0]
			fast := dominators(g)
			naive := naiveDominators(g, g.Entry,
				func(b *Block) []*Block { return b.Preds },
				func(b *Block) []*Block { return b.Succs })
			for _, a := range g.Blocks {
				for _, b2 := range g.Blocks {
					if naive[b2] == nil {
						continue // unreachable
					}
					want := naive[b2][a]
					got := dominates(fast, a, b2)
					if got != want {
						t.Fatalf("trial %d: Dominates(B%d, B%d) = %v, want %v\nsrc:\n%s\ncfg:\n%s",
							trial, a.ID, b2.ID, got, want, src, g)
					}
				}
			}
		}
	}
}

func TestPostDominatorsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		src := randomProgram(rng)
		g := build(t, src, MaxBlocks).Graphs[0]
		fast := PostDominators(g)
		naive := naiveDominators(g, g.Exit,
			func(b *Block) []*Block { return b.Succs },
			func(b *Block) []*Block { return b.Preds })
		for _, a := range g.Blocks {
			for _, b2 := range g.Blocks {
				if naive[b2] == nil {
					continue
				}
				want := naive[b2][a]
				got := dominates(fast, a, b2)
				if got != want {
					t.Fatalf("trial %d: PostDominates(B%d, B%d) = %v, want %v\nsrc:\n%s\ncfg:\n%s",
						trial, a.ID, b2.ID, got, want, src, g)
				}
			}
		}
	}
}

func TestControlDepsDiamond(t *testing.T) {
	src := `
func main() {
    var x = 0;
    if (x < 1) {
        x = 1;
    } else {
        x = 2;
    }
    print(x);
}
`
	g := build(t, src, MaxBlocks).Graphs[0]
	deps := ControlDeps(g)
	// Find the branch block and its two arms.
	var branch *Block
	for _, b := range g.Blocks {
		if len(b.Succs) == 2 {
			branch = b
		}
	}
	if branch == nil {
		t.Fatalf("no branch block:\n%s", g)
	}
	for _, arm := range branch.Succs {
		got := deps[arm.ID]
		if len(got) != 1 || got[0] != branch.ID {
			t.Errorf("arm B%d control deps = %v, want [B%d]", arm.ID, got, branch.ID)
		}
	}
	// The join (print block) is not control dependent on the branch.
	joinID := g.Exit.Preds[0].ID
	if len(deps[joinID]) != 0 {
		t.Errorf("join B%d control deps = %v, want none", joinID, deps[joinID])
	}
}

func TestControlDepsLoop(t *testing.T) {
	src := `
func main() {
    var i = 0;
    while (i < 3) {
        i = i + 1;
    }
    print(i);
}
`
	g := build(t, src, MaxBlocks).Graphs[0]
	deps := ControlDeps(g)
	var head, body *Block
	for _, b := range g.Blocks {
		if len(b.Succs) == 2 {
			head = b
			body = b.Succs[0]
		}
	}
	if head == nil {
		t.Fatalf("no loop head:\n%s", g)
	}
	if got := deps[body.ID]; len(got) != 1 || got[0] != head.ID {
		t.Errorf("body deps = %v, want [B%d]", got, head.ID)
	}
	// The loop head is control dependent on itself (via the back edge).
	found := false
	for _, d := range deps[head.ID] {
		if d == head.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("head deps = %v, want to include itself", deps[head.ID])
	}
}

func TestGraphString(t *testing.T) {
	g := build(t, loopSrc, MaxBlocks).Graphs[0]
	s := g.String()
	for _, want := range []string{"func main:", "(entry)", "(exit)", "goto", "if"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestProgramLookups(t *testing.T) {
	p := build(t, loopSrc, MaxBlocks)
	id, g, ok := p.FuncByName("f")
	if !ok || g == nil || id != 1 {
		t.Errorf("FuncByName(f) = %v, %v, %v", id, g, ok)
	}
	if _, _, ok := p.FuncByName("missing"); ok {
		t.Error("FuncByName(missing) = ok")
	}
	if p.MainID() != 0 {
		t.Errorf("MainID = %d", p.MainID())
	}
	if p.Graph(99) != nil || p.Graph(-1) != nil {
		t.Error("out-of-range Graph lookup not nil")
	}
	if p.Graphs[0].Block(0) != nil || p.Graphs[0].Block(999) != nil {
		t.Error("out-of-range Block lookup not nil")
	}
}
