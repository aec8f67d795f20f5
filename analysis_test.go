package twpp_test

import (
	"context"
	"path/filepath"
	"testing"

	"twpp"
	"twpp/internal/cli"
)

const analysisSrc = `
func main() {
    read n;
    var a = alloc(4);
    a[0] = 1;
    var s = 0;
    while (s < n) {
        var x = a[0];
        s = s + x;
    }
    print(s);
}
`

func analysisSetup(t *testing.T) (*twpp.Program, *twpp.Run, *twpp.TGraph) {
	t.Helper()
	prog, err := twpp.CompileMode(analysisSrc, twpp.PerStatement)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Trace([]int64{5})
	if err != nil {
		t.Fatal(err)
	}
	return prog, run, run.MainTrace()
}

func TestFacadeQuery(t *testing.T) {
	_, _, tg := analysisSetup(t)
	// Fact: "a[] value available"; the store block kills, loads gen.
	effect := func(b twpp.BlockID) twpp.Effect {
		node := tg.Node(b)
		if node == nil {
			return twpp.TransparentFact
		}
		return twpp.TransparentFact
	}
	// Query the loop's load block: with a transparent-everywhere
	// problem everything is unresolved.
	loadBlock := twpp.BlockID(7) // var x = a[0];
	res, err := twpp.Query(tg, effect, loadBlock)
	if err != nil {
		t.Fatal(err)
	}
	if res.True.Count() != 0 || res.Unresolved.Count() == 0 {
		t.Errorf("transparent query: %+v", res)
	}
	// Restricted query.
	sub := tg.Node(loadBlock).Times
	res2, err := twpp.QueryAt(tg, effect, loadBlock, sub)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Unresolved.Count() != res.Unresolved.Count() {
		t.Errorf("QueryAt(all) differs from Query: %v vs %v", res2, res)
	}
}

func TestFacadeLoadRedundancy(t *testing.T) {
	prog, _, tg := analysisSetup(t)
	reports, err := prog.LoadRedundancy(0, tg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	r := reports[0]
	// 5 loop iterations; the first load is preceded only by the store
	// (kill), the remaining 4 are redundant.
	if r.Executions != 5 || r.Redundant != 4 {
		t.Errorf("report = %s", r)
	}
}

func TestFacadeSlicer(t *testing.T) {
	prog, _, tg := analysisSetup(t)
	s, err := prog.NewSlicer(0, tg)
	if err != nil {
		t.Fatal(err)
	}
	printBlock := twpp.BlockID(8) // print(s);
	sl, err := s.Approach3(twpp.SliceCriterion{Block: printBlock})
	if err != nil {
		t.Fatal(err)
	}
	if len(sl.Blocks) < 4 {
		t.Errorf("slice suspiciously small: %v", sl.Blocks)
	}
	if _, err := prog.NewSlicer(99, tg); err == nil {
		t.Error("bad function id: want error")
	}
}

func TestFacadeCurrencyAll(t *testing.T) {
	m := twpp.Motion{Var: "X", From: 1, To: 2}
	tg := twpp.DynamicCFGFromPath(twpp.PathTrace{1, 2, 3, 1, 4, 3})
	cur, non, err := twpp.CurrencyAll(tg, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Count() != 1 || non.Count() != 1 {
		t.Errorf("currency split = %s / %s", cur, non)
	}
}

// A parameter the pass does not document is a usage error (exit 2)
// naming the lexically first unknown key, not silently ignored.
func TestRunAnalysisRejectsUnknownParam(t *testing.T) {
	prog, err := twpp.Compile(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Trace(nil)
	if err != nil {
		t.Fatal(err)
	}
	tw, _ := twpp.Compact(run.WPP)
	path := filepath.Join(t.TempDir(), "t.twpp")
	if err := twpp.WriteFile(path, tw); err != nil {
		t.Fatal(err)
	}
	f, err := twpp.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	if _, err := twpp.RunAnalysis(ctx, f, "cfg", "t", map[string]string{"func": "0"}); err != nil {
		t.Fatalf("documented parameters: %v", err)
	}
	_, err = twpp.RunAnalysis(ctx, f, "cfg", "t", map[string]string{"func": "0", "trcae": "1", "file": "t"})
	if got := cli.ExitCode(err); got != cli.ExitUsage {
		t.Fatalf("unknown parameters: exit %d (%v), want %d", got, err, cli.ExitUsage)
	}
	if want := `unknown parameter "file" for analysis pass cfg`; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}
