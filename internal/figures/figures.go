// Package figures reproduces the worked examples of Zhang & Gupta
// (PLDI 2001) Figures 9-12 by actually running the corresponding
// analyses: dynamic load redundancy (Figure 9), the three dynamic
// slicing algorithms (Figures 10-11), and dynamic currency
// determination (Figure 12).
package figures

import (
	"fmt"
	"io"

	"twpp/internal/cfg"
	"twpp/internal/currency"
	"twpp/internal/dataflow"
	"twpp/internal/interp"
	"twpp/internal/minilang"
	"twpp/internal/slicing"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// Print writes the named figure's reproduction to w. Figures 10 and
// 11 are one combined experiment.
func Print(w io.Writer, figure int) error {
	switch figure {
	case 9:
		return Figure9(w)
	case 10, 11:
		return Figure10And11(w)
	case 12:
		return Figure12(w)
	default:
		return fmt.Errorf("figures: no figure %d (have 9, 10/11, 12)", figure)
	}
}

// Figure9 reproduces the dynamic load redundancy example: a 100-
// iteration loop over three paths; 1 loads (GEN), 6 stores (KILL),
// 4 re-loads. The TWPP analysis proves 4's load 100% redundant with
// 6 queries in a single backward pass.
func Figure9(w io.Writer) error {
	fmt.Fprintln(w, "Figure 9: detecting dynamic load redundancy")
	fmt.Fprintln(w, "  loop paths: (1.2.3.4.5)^40 (1.2.7.4.5)^20 (1.6.7.8.5)^40")
	fmt.Fprintln(w, "  1 = load (GEN), 6 = store (KILL), query: load at 4")

	var path wpp.PathTrace
	add := func(blocks []cfg.BlockID, n int) {
		for i := 0; i < n; i++ {
			path = append(path, blocks...)
		}
	}
	add([]cfg.BlockID{1, 2, 3, 4, 5}, 40)
	add([]cfg.BlockID{1, 2, 7, 4, 5}, 20)
	add([]cfg.BlockID{1, 6, 7, 8, 5}, 40)

	tg := dataflow.BuildFromPath(path)
	for _, b := range []cfg.BlockID{1, 2, 3, 7, 4, 6} {
		fmt.Fprintf(w, "  T(%d) = %s\n", b, tg.Node(b).Times)
	}
	prob := &dataflow.GenKillProblem{
		GenBlocks:  map[cfg.BlockID]bool{1: true},
		KillBlocks: map[cfg.BlockID]bool{6: true},
	}
	res, err := dataflow.SolveAll(tg, prob, 4)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  query <T(4), 4>_redundant: %d/%d executions redundant (%.0f%%), %s\n",
		res.True.Count(), tg.Node(4).Times.Count(), 100*res.Frequency(), res.Holds())
	fmt.Fprintf(w, "  queries generated: %d (paper: 6), backward steps: %d\n", res.Queries, res.Steps)
	return nil
}

// figure10Src is the paper's Figure 10 program; with per-statement
// CFGs, block ids equal the paper's statement numbers.
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

// Figure10And11 reproduces the dynamic slicing example: input N=3,
// X = (-4, 3, -2), slice on Z at the breakpoint (statement 14) with
// all three Agrawal-Horgan approaches.
func Figure10And11(w io.Writer) error {
	fmt.Fprintln(w, "Figures 10-11: dynamic slicing (Agrawal-Horgan approaches 1-3)")
	fmt.Fprintln(w, "  program: paper Figure 10; input N=3, X=(-4, 3, -2); slice on Z at statement 14")

	prog, err := minilang.Parse(figure10Src)
	if err != nil {
		return err
	}
	p, err := cfg.Build(prog, cfg.PerStatement)
	if err != nil {
		return err
	}
	names := make([]string, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		names[i] = fn.Name
	}
	b := trace.NewBuilder(names)
	if _, err := interp.Run(p, b, []int64{3, -4, 3, -2}, interp.Limits{}); err != nil {
		return err
	}
	wppTrace := b.Finish()
	tg := dataflow.BuildFromPath(wpp.PathTrace(wppTrace.Traces[wppTrace.DCG.Trace[0]]))

	s := slicing.New(p.Graphs[p.MainID()], tg)
	crit := slicing.Criterion{Block: 14, Vars: []cfg.Loc{{Var: "Z"}}}
	for i, approach := range []func(slicing.Criterion) (*slicing.Slice, error){
		s.Approach1, s.Approach2, s.Approach3,
	} {
		sl, err := approach(crit)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  approach %d slice: %v (%d statements)\n", i+1, sl.Blocks, len(sl.Blocks))
	}
	fmt.Fprintln(w, "  paper: A1 = all-{10}, A2 = all-{3,10}, A3 = all-{3,8,10}")
	return nil
}

// Figure12 reproduces dynamic currency determination: partial dead
// code elimination sank an assignment of X from block 1 into block 2;
// at a breakpoint in block 3, X is current on path 1.2.3 and
// non-current on path 1.4.3.
func Figure12(w io.Writer) error {
	fmt.Fprintln(w, "Figure 12: detecting dynamic currency")
	m := currency.Motion{Var: "X", From: 1, To: 2}
	for _, path := range []wpp.PathTrace{{1, 2, 3}, {1, 4, 3}} {
		tg := dataflow.BuildFromPath(path)
		v, err := currency.At(tg, m, 3, 3)
		if err != nil {
			return err
		}
		state := "non-current"
		if v.Current {
			state = "current"
		}
		fmt.Fprintf(w, "  path %v: X is %s — %s\n", path, state, v.Reason)
	}
	fmt.Fprintln(w, "  paper: current on 1.2.3, non-current on 1.4.3")
	return nil
}
