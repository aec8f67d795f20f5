package slicing

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/dataflow"
	"twpp/internal/interp"
	"twpp/internal/minilang"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// figure10Src is the paper's Figure 10 example program. With
// per-statement CFGs the block ids coincide with the paper's statement
// numbers 1-14 (15 is the synthetic exit).
const figure10Src = `
func main() {
    read N;
    var I = 1;
    var J = 0;
    while (I <= N) {
        read X;
        if (X < 0) {
            Y = f1(X);
        } else {
            Y = f2(X);
        }
        Z = f3(Y);
        print(Z);
        J = 1;
        I = I + 1;
    }
    Z = Z + J;
    print(Z);
}
func f1(x) { return 0 - x; }
func f2(x) { return x * 2; }
func f3(y) { return y + 1; }
`

// runMain parses src, executes it under tracing with the given input,
// and returns main's static graph plus the dynamic TGraph of main's
// (single) invocation.
func runMain(t *testing.T, src string, input []int64) (*cfg.Graph, *dataflow.TGraph) {
	t.Helper()
	prog, err := minilang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(prog, cfg.PerStatement)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		names[i] = fn.Name
	}
	b := trace.NewBuilder(names)
	if _, err := interp.Run(p, b, input, interp.Limits{}); err != nil {
		t.Fatal(err)
	}
	w := b.Finish()
	mainTrace := wpp.PathTrace(w.Traces[w.DCG.Trace[0]])
	return p.Graphs[p.MainID()], dataflow.BuildFromPath(mainTrace)
}

func ids(blocks ...int) []cfg.BlockID {
	out := make([]cfg.BlockID, len(blocks))
	for i, b := range blocks {
		out[i] = cfg.BlockID(b)
	}
	return out
}

func TestPaperSlicingExample(t *testing.T) {
	// Input: N = 3, X = -4, 3, -2 (paper Figure 10).
	g, tg := runMain(t, figure10Src, []int64{3, -4, 3, -2})
	s := New(g, tg)
	crit := Criterion{Block: 14, Vars: []cfg.Loc{{Var: "Z"}}}

	a1, err := s.Approach1(crit)
	if err != nil {
		t.Fatal(err)
	}
	// Approach 1: all statements except 10 (write Z).
	want1 := ids(1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14)
	if !reflect.DeepEqual(a1.Blocks, want1) {
		t.Errorf("Approach1 = %v, want %v", a1.Blocks, want1)
	}

	a2, err := s.Approach2(crit)
	if err != nil {
		t.Fatal(err)
	}
	// Approach 2: additionally excludes 3 (J=0 never the exercised
	// reaching definition of J at 13).
	want2 := ids(1, 2, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14)
	if !reflect.DeepEqual(a2.Blocks, want2) {
		t.Errorf("Approach2 = %v, want %v", a2.Blocks, want2)
	}

	a3, err := s.Approach3(crit)
	if err != nil {
		t.Fatal(err)
	}
	// Approach 3: additionally excludes 8 — the last execution of
	// Z=f3(Y) consumed Y from statement 7 (X=-2 < 0), so statement 8's
	// instances are irrelevant to this criterion instance.
	want3 := ids(1, 2, 4, 5, 6, 7, 9, 11, 12, 13, 14)
	if !reflect.DeepEqual(a3.Blocks, want3) {
		t.Errorf("Approach3 = %v, want %v", a3.Blocks, want3)
	}
}

func TestSlicingAllPositiveInput(t *testing.T) {
	// With all X >= 0 only f2 runs: Approach 2 and 3 must exclude 7;
	// Approach 1 still includes it (it is not executed... actually an
	// unexecuted node is excluded by A1 too).
	g, tg := runMain(t, figure10Src, []int64{2, 5, 6})
	s := New(g, tg)
	crit := Criterion{Block: 14, Vars: []cfg.Loc{{Var: "Z"}}}
	a1, err := s.Approach1(crit)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Contains(7) {
		t.Errorf("Approach1 contains unexecuted node 7: %v", a1.Blocks)
	}
	a3, err := s.Approach3(crit)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Contains(7) {
		t.Errorf("Approach3 contains 7: %v", a3.Blocks)
	}
	if !a3.Contains(8) {
		t.Errorf("Approach3 missing 8: %v", a3.Blocks)
	}
}

func TestSlicingZeroIterations(t *testing.T) {
	// N = 0: the loop never runs; Z = Z + J faults on undefined Z in
	// the real interpreter, so use a variant with Z initialized.
	src := strings.Replace(figure10Src, "var J = 0;", "var J = 0;\n    var Z = 0;", 1)
	g, tg := runMain(t, src, []int64{0})
	s := New(g, tg)
	// Criterion block is now 15 (extra statement shifts ids by one).
	crit := Criterion{Block: 15, Vars: []cfg.Loc{{Var: "Z"}}}
	a3, err := s.Approach3(crit)
	if err != nil {
		t.Fatal(err)
	}
	// Slice: Z=Z+J (14), var Z=0 (4), var J=0 (3), while (5) control
	// ... loop body excluded entirely.
	for _, b := range a3.Blocks {
		if b >= 6 && b <= 13 {
			t.Errorf("loop body node %d in slice of unexecuted loop: %v", b, a3.Blocks)
		}
	}
	if !a3.Contains(14) || !a3.Contains(4) || !a3.Contains(3) {
		t.Errorf("slice missing data deps: %v", a3.Blocks)
	}
}

func TestPrecisionOrdering(t *testing.T) {
	// Random programs: Approach3 ⊆ Approach2 ⊆ Approach1 on every
	// executed-block criterion.
	rng := rand.New(rand.NewSource(80))
	progs := []string{figure10Src, loopyProg, branchyProg}
	for _, src := range progs {
		for trial := 0; trial < 10; trial++ {
			input := make([]int64, 8)
			for i := range input {
				input[i] = int64(rng.Intn(11) - 5)
			}
			// figure10Src requires at least one loop iteration (Z is
			// otherwise undefined at statement 13).
			input[0] = int64(1 + rng.Intn(4))
			g, tg := runMain(t, src, input)
			s := New(g, tg)
			for _, n := range tg.Nodes {
				crit := Criterion{Block: n.Block}
				a1, err1 := s.Approach1(crit)
				a2, err2 := s.Approach2(crit)
				a3, err3 := s.Approach3(crit)
				if err1 != nil || err2 != nil || err3 != nil {
					t.Fatalf("errors: %v %v %v", err1, err2, err3)
				}
				if !subset(a3.Blocks, a2.Blocks) {
					t.Fatalf("A3 ⊄ A2 at block %d: %v vs %v\ninput %v", n.Block, a3.Blocks, a2.Blocks, input)
				}
				if !subset(a2.Blocks, a1.Blocks) {
					t.Fatalf("A2 ⊄ A1 at block %d: %v vs %v\ninput %v", n.Block, a2.Blocks, a1.Blocks, input)
				}
			}
		}
	}
}

const loopyProg = `
func main() {
    read n;
    var a = 0;
    var b = 1;
    var i = 0;
    while (i < n) {
        var t = a + b;
        a = b;
        b = t;
        i = i + 1;
    }
    print(a, b);
}
`

const branchyProg = `
func main() {
    read x;
    read y;
    var r = 0;
    if (x > 0) {
        if (y > 0) {
            r = x + y;
        } else {
            r = x - y;
        }
    } else {
        r = 0 - x;
    }
    print(r);
}
`

func subset(a, b []cfg.BlockID) bool {
	set := map[cfg.BlockID]bool{}
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}

func TestCriterionInstances(t *testing.T) {
	// Slicing on different instances of print(Z) (block 10) gives
	// different slices: the first instance (iteration 1, X=-4) must
	// exclude 8, the second (X=3) must include it.
	g, tg := runMain(t, figure10Src, []int64{3, -4, 3, -2})
	s := New(g, tg)
	n := tg.Node(10)
	times := n.Times.Expand()
	if len(times) != 3 {
		t.Fatalf("print(Z) executed %d times", len(times))
	}
	first, err := s.Approach3(Criterion{Block: 10, Time: times[0]})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Approach3(Criterion{Block: 10, Time: times[1]})
	if err != nil {
		t.Fatal(err)
	}
	if first.Contains(8) {
		t.Errorf("first instance slice contains 8: %v", first.Blocks)
	}
	if !first.Contains(7) {
		t.Errorf("first instance slice missing 7: %v", first.Blocks)
	}
	if !second.Contains(8) {
		t.Errorf("second instance slice missing 8: %v", second.Blocks)
	}
}

func TestSliceErrors(t *testing.T) {
	g, tg := runMain(t, figure10Src, []int64{1, 5})
	s := New(g, tg)
	if _, err := s.Approach1(Criterion{Block: 99}); err == nil {
		t.Error("unknown block: want error")
	}
	if _, err := s.Approach2(Criterion{Block: 7}); err == nil {
		t.Error("unexecuted block (X=5 skips 7): want error")
	}
	if _, err := s.Approach3(Criterion{Block: 14, Time: 1}); err == nil {
		t.Error("wrong instance time: want error")
	}
}

func TestSliceContains(t *testing.T) {
	s := &Slice{Blocks: ids(1, 3, 5)}
	if !s.Contains(3) || s.Contains(2) {
		t.Error("Contains wrong")
	}
}

func TestVisitedCounts(t *testing.T) {
	g, tg := runMain(t, figure10Src, []int64{3, -4, 3, -2})
	s := New(g, tg)
	crit := Criterion{Block: 14, Vars: []cfg.Loc{{Var: "Z"}}}
	a3, _ := s.Approach3(crit)
	if a3.Visited == 0 {
		t.Error("Visited = 0")
	}
}
