package redundancy

import (
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/dataflow"
	"twpp/internal/interp"
	"twpp/internal/minilang"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// runMain executes src with tracing and returns the program CFGs plus
// the dynamic graph of main's invocation.
func runMain(t *testing.T, src string, input []int64) (*cfg.Program, *dataflow.TGraph) {
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
	return p, dataflow.BuildFromPath(wpp.PathTrace(w.Traces[w.DCG.Trace[0]]))
}

func TestFullyRedundantLoad(t *testing.T) {
	// The second load of a[0] is always redundant: no store between.
	src := `
func main() {
    var a = alloc(4);
    a[0] = 7;
    var i = 0;
    while (i < 50) {
        var x = a[0];
        var y = a[0];
        i = i + 1;
        print(x + y);
    }
}
`
	p, tg := runMain(t, src, nil)
	g := p.Graphs[0]
	loads := FindLoads(g)
	if len(loads) != 2 {
		t.Fatalf("loads = %v, want 2", loads)
	}
	// The second load (y = a[0]) is later in block order.
	second := loads[1]
	r, err := Analyze(p, 0, tg, second)
	if err != nil {
		t.Fatal(err)
	}
	if r.Executions != 50 {
		t.Errorf("executions = %d, want 50", r.Executions)
	}
	if r.Degree != 1.0 {
		t.Errorf("degree = %v, want 1.0: %s", r.Degree, r)
	}
}

func TestStoreKillsRedundancy(t *testing.T) {
	// A store to a between the loads kills availability every time.
	src := `
func main() {
    var a = alloc(4);
    a[0] = 7;
    var i = 0;
    while (i < 30) {
        var x = a[0];
        a[1] = x + 1;
        var y = a[0];
        i = i + 1;
        print(y);
    }
}
`
	p, tg := runMain(t, src, nil)
	loads := FindLoads(p.Graphs[0])
	// Find the load in the block after the store (y = a[0]).
	last := loads[len(loads)-1]
	r, err := Analyze(p, 0, tg, last)
	if err != nil {
		t.Fatal(err)
	}
	if r.Degree != 0 {
		t.Errorf("degree = %v, want 0 (store kills): %s", r.Degree, r)
	}
}

func TestPartialRedundancy(t *testing.T) {
	// Figure 9 shape: the loop alternates between a path that stores
	// and paths that do not; the queried load is redundant only on
	// iterations following a load-only path.
	src := `
func main() {
    var a = alloc(4);
    a[0] = 1;
    var i = 0;
    while (i < 90) {
        var x = a[0];
        if (i % 3 == 2) {
            a[0] = x + 1;
        }
        var y = a[0];
        i = i + 1;
        print(y);
    }
}
`
	p, tg := runMain(t, src, nil)
	loads := FindLoads(p.Graphs[0])
	last := loads[len(loads)-1]
	r, err := Analyze(p, 0, tg, last)
	if err != nil {
		t.Fatal(err)
	}
	if r.Executions != 90 {
		t.Fatalf("executions = %d", r.Executions)
	}
	// Two of every three iterations skip the store: y = a[0] sees the
	// x = a[0] load unkilled 60 times.
	if r.Redundant != 60 {
		t.Errorf("redundant = %d, want 60: %s", r.Redundant, r)
	}
}

func TestCallKillsViaSummary(t *testing.T) {
	src := `
func main() {
    var a = alloc(4);
    a[0] = 1;
    var i = 0;
    while (i < 20) {
        var x = a[0];
        poke(a);
        var y = a[0];
        i = i + 1;
        print(x + y);
    }
}
func poke(arr) {
    arr[0] = 99;
    return 0;
}
`
	p, tg := runMain(t, src, nil)
	sums := Summaries(p)
	pokeID := cfg.FuncID(p.Src.Func("poke").Index)
	if !sums[pokeID].StoresArrays {
		t.Fatal("poke summary missing StoresArrays")
	}
	mainID := cfg.FuncID(0)
	if !sums[mainID].StoresArrays {
		t.Fatal("main summary should inherit StoresArrays")
	}
	loads := FindLoads(p.Graphs[0])
	last := loads[len(loads)-1]
	r, err := Analyze(p, 0, tg, last)
	if err != nil {
		t.Fatal(err)
	}
	if r.Degree != 0 {
		t.Errorf("degree = %v, want 0 (callee store kills): %s", r.Degree, r)
	}
}

func TestTransitiveSummaries(t *testing.T) {
	src := `
func main() {
    var a = alloc(2);
    touch(a);
}
func touch(x) { deep(x); return 0; }
func deep(x)  { x[0] = 1; return 0; }
`
	prog, err := minilang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(prog, cfg.MaxBlocks)
	if err != nil {
		t.Fatal(err)
	}
	sums := Summaries(p)
	for _, name := range []string{"main", "touch", "deep"} {
		id := cfg.FuncID(p.Src.Func(name).Index)
		if !sums[id].StoresArrays {
			t.Errorf("%s summary missing transitive StoresArrays", name)
		}
	}
}

func TestAnalyzeFunctionAndUnexecutedSite(t *testing.T) {
	src := `
func main() {
    var a = alloc(4);
    a[0] = 1;
    var c = 0;
    if (c == 1) {
        c = a[2];
    }
    print(a[0]);
}
`
	p, tg := runMain(t, src, nil)
	reports, err := AnalyzeFunction(p, 0, tg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	// The a[2] load never executed.
	for _, r := range reports {
		if r.Executions == 0 && r.Redundant != 0 {
			t.Errorf("unexecuted site has redundancy: %s", r)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	src := `func main() { var a = alloc(1); print(a[0]); }`
	p, tg := runMain(t, src, nil)
	if _, err := Analyze(p, 99, tg, LoadSite{Block: 1, Array: "a"}); err == nil {
		t.Error("bad function id: want error")
	}
	if _, err := AnalyzeFunction(p, 99, tg); err == nil {
		t.Error("bad function id: want error")
	}
}
