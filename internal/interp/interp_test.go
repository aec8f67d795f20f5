package interp

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/minilang"
	"twpp/internal/trace"
)

func run(t *testing.T, src string, input []int64) *Result {
	t.Helper()
	res, err := runErr(src, input)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func runErr(src string, input []int64) (*Result, error) {
	prog, err := minilang.Parse(src)
	if err != nil {
		return nil, err
	}
	g, err := cfg.Build(prog, cfg.MaxBlocks)
	if err != nil {
		return nil, err
	}
	return Run(g, nil, input, Limits{})
}

func TestArithmetic(t *testing.T) {
	res := run(t, `
func main() {
    print(1 + 2 * 3, 10 - 4, 7 / 2, 7 % 3, -5, 100 / 0, 100 % 0);
}`, nil)
	want := []int64{7, 6, 3, 1, -5, 0, 0}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	res := run(t, `
func main() {
    print(1 < 2, 2 <= 2, 3 > 4, 4 >= 4, 5 == 5, 5 != 5);
    print(1 && 2, 0 && 1, 0 || 0, 0 || 7, !0, !9);
}`, nil)
	want := []int64{1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestShortCircuitSkipsCalls(t *testing.T) {
	res := run(t, `
func main() {
    var x = 0 && boom();
    var y = 1 || boom();
    print(x, y);
}
func boom() {
    print(999);
    return 1;
}`, nil)
	want := []int64{0, 1}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v (boom must not run)", res.Output, want)
	}
}

func TestControlFlow(t *testing.T) {
	res := run(t, `
func main() {
    var total = 0;
    for (var i = 1; i <= 10; i = i + 1) {
        if (i % 2 == 0) {
            total = total + i;
        }
    }
    var j = 0;
    while (j < 100) {
        j = j + 1;
        if (j == 7) {
            break;
        }
    }
    print(total, j);
}`, nil)
	want := []int64{30, 7}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestContinue(t *testing.T) {
	res := run(t, `
func main() {
    var s = 0;
    for (var i = 0; i < 10; i = i + 1) {
        if (i % 3 != 0) {
            continue;
        }
        s = s + i;
    }
    print(s);
}`, nil)
	if res.Output[0] != 0+3+6+9 {
		t.Errorf("output = %v, want [18]", res.Output)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	res := run(t, `
func main() {
    print(fib(10), fact(5));
}
func fib(n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
func fact(n) {
    if (n <= 1) {
        return 1;
    }
    return n * fact(n - 1);
}`, nil)
	want := []int64{55, 120}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestArrays(t *testing.T) {
	res := run(t, `
func main() {
    var a = alloc(5);
    for (var i = 0; i < len(a); i = i + 1) {
        a[i] = i * i;
    }
    fill(a, 3, 99);
    print(a[0], a[2], a[3], a[4], len(a));
}
func fill(arr, pos, v) {
    arr[pos] = v;
    return 0;
}`, nil)
	want := []int64{0, 4, 99, 16, 5}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v (arrays are by-reference)", res.Output, want)
	}
}

func TestReadInput(t *testing.T) {
	res := run(t, `
func main() {
    read a;
    read b;
    read c;
    print(a, b, c);
}`, []int64{10, 20})
	want := []int64{10, 20, 0} // reads past end yield 0
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{`func main() { var a = alloc(3); print(a[5]); }`, "out of range"},
		{`func main() { var a = alloc(3); a[0-1] = 1; }`, "out of range"},
		{`func main() { print(x); }`, "undefined variable"},
		{`func main() { var x = 1; print(x[0]); }`, "not an array"},
		{`func main() { var a = alloc(2); print(a + 1); }`, "arithmetic on array"},
		{`func main() { var a = alloc(2); if (a) { } }`, "condition"},
		{`func main() { var a = alloc(2); print(a); }`, "cannot print"},
		{`func main() { var a = alloc(0 - 1); }`, "bad alloc"},
		{`func main() { print(len(3)); }`, "len of non-array"},
	}
	for _, c := range cases {
		_, err := runErr(c.src, nil)
		if err == nil {
			t.Errorf("%q: want error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%q: error %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestStepLimit(t *testing.T) {
	prog, _ := minilang.Parse(`func main() { while (1 == 1) { } }`)
	g, _ := cfg.Build(prog, cfg.MaxBlocks)
	_, err := Run(g, nil, nil, Limits{MaxSteps: 1000})
	if !errors.Is(err, ErrMaxSteps) {
		t.Errorf("err = %v, want ErrMaxSteps", err)
	}
}

func TestDepthLimit(t *testing.T) {
	prog, _ := minilang.Parse(`
func main() { rec(0); }
func rec(n) { return rec(n + 1); }`)
	g, _ := cfg.Build(prog, cfg.MaxBlocks)
	_, err := Run(g, nil, nil, Limits{MaxDepth: 50})
	if !errors.Is(err, ErrMaxDepth) {
		t.Errorf("err = %v, want ErrMaxDepth", err)
	}
}

func TestReturnValue(t *testing.T) {
	res := run(t, `func main() { return 42; }`, nil)
	if res.ReturnValue != 42 {
		t.Errorf("ReturnValue = %d, want 42", res.ReturnValue)
	}
}

const tracedSrc = `
func main() {
    var x = 0;
    for (var i = 0; i < 5; i = i + 1) {
        x = f(x);
    }
    print(x);
}
func f(a) {
    var j = 0;
    while (j < 3) {
        j = j + 1;
    }
    return a + j;
}
`

func TestTracedExecution(t *testing.T) {
	prog, err := minilang.Parse(tracedSrc)
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
	res, err := Run(g, b, nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	w := b.Finish()

	if res.Output[0] != 15 {
		t.Errorf("output = %v, want [15]", res.Output)
	}
	if w.NumCalls() != 6 { // main + 5 calls to f
		t.Errorf("NumCalls = %d, want 6", w.NumCalls())
	}
	counts := callsPerFunc(w)
	if counts[0] != 1 || counts[1] != 5 {
		t.Errorf("calls per function = %v", counts)
	}
	// The trace block count matches the interpreter's step count.
	if w.NumBlocks() != res.Steps {
		t.Errorf("NumBlocks = %d, steps = %d", w.NumBlocks(), res.Steps)
	}
	// All five calls of f follow the identical path (3 iterations):
	// the traces must be equal.
	d := &w.DCG
	var f []int
	for c := 1; c < d.End[0]; c = d.End[c] {
		f = append(f, c)
	}
	if len(f) != 5 {
		t.Fatalf("main has %d children", len(f))
	}
	first := w.Traces[d.Trace[f[0]]]
	for i, c := range f {
		if !reflect.DeepEqual(w.Traces[d.Trace[c]], first) {
			t.Errorf("call %d trace %v != %v", i, w.Traces[d.Trace[c]], first)
		}
	}
	// Every trace ends at the function's exit block.
	for i, fn := range d.Fn {
		tr := w.Traces[d.Trace[i]]
		gph := g.Graph(fn)
		if len(tr) == 0 || tr[len(tr)-1] != gph.Exit.ID {
			t.Errorf("trace of %s does not end at exit: %v", w.FuncName(fn), tr)
		}
		if tr[0] != gph.Entry.ID {
			t.Errorf("trace of %s does not start at entry: %v", w.FuncName(fn), tr)
		}
	}
	// The linear form must be parseable back.
	if !trace.Equal(w, rebuild(t, w)) {
		t.Error("traced WPP did not round trip through Linear")
	}
}

func TestTraceBlockIDsAreValid(t *testing.T) {
	prog, _ := minilang.Parse(tracedSrc)
	g, _ := cfg.Build(prog, cfg.MaxBlocks)
	b := trace.NewBuilder([]string{"main", "f"})
	if _, err := Run(g, b, nil, Limits{}); err != nil {
		t.Fatal(err)
	}
	w := b.Finish()
	for i, fn := range w.DCG.Fn {
		gph := g.Graph(fn)
		prev := cfg.BlockID(0)
		for _, id := range w.Traces[w.DCG.Trace[i]] {
			blk := gph.Block(id)
			if blk == nil {
				t.Fatalf("trace mentions unknown block %d", id)
			}
			if prev != 0 {
				// Consecutive trace entries must be CFG edges.
				ok := false
				for _, s := range gph.Block(prev).Succs {
					if s.ID == id {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("trace edge B%d->B%d is not a CFG edge in %s", prev, id, gph.Fn.Name)
				}
			}
			prev = id
		}
	}
}
