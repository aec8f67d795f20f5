// Slicing: the three Agrawal-Horgan dynamic slicing algorithms run off
// one timestamped dynamic CFG (paper §4.3.2, Figures 10-11). The
// program, input, and slicing criterion are exactly the paper's
// example; statement numbers match the figure because the CFG is built
// per-statement.
package main

import (
	"fmt"
	"log"

	"twpp"
	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/dataflow"
	"twpp/internal/slicing"
	"twpp/internal/wpp"
)

const src = `
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

func main() {
	prog, err := twpp.CompileMode(src, twpp.PerStatement)
	if err != nil {
		log.Fatal(err)
	}
	// The paper's input: N = 3, X = -4, 3, -2.
	input := []int64{3, -4, 3, -2}
	run, err := prog.Trace(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input N=%d, X=%v; program output: %v\n", input[0], input[1:], run.Output)

	tg := dataflow.BuildFromPath(wpp.PathTrace(run.WPP.Traces[run.WPP.DCG.Trace[0]]))
	s := slicing.New(prog.CFG.Graphs[0], tg)

	// Slice on Z at the breakpoint (statement 14).
	crit := slicing.Criterion{Block: 14, Vars: []cfg.Loc{{Var: "Z"}}}
	fmt.Println("\nslice on Z at statement 14 (breakpoint):")

	a1, err := s.Approach1(crit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  approach 1 (executed nodes):     %v\n", a1.Blocks)
	a2, err := s.Approach2(crit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  approach 2 (exercised edges):    %v\n", a2.Blocks)
	a3, err := s.Approach3(crit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  approach 3 (instance-precise):   %v\n", a3.Blocks)

	fmt.Println("\nwhy they differ:")
	fmt.Println("  - statement 10 (print Z) defines nothing: out of every slice")
	fmt.Println("  - statement 3 (J=0) is never the exercised reaching def of J at 13: out of A2/A3")
	fmt.Println("  - statement 8 (Y=f2) did not feed the LAST Z=f3(Y): out of A3 only")

	// Instance sensitivity: slicing the first vs second execution of
	// print(Z) inside the loop.
	times := tg.Node(10).Times.Expand()
	for i, t := range times[:2] {
		sl, err := s.Approach3(slicing.Criterion{Block: 10, Time: t})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nslice of print(Z) instance %d (t=%d, X=%d): %v\n",
			i+1, t, input[i+1], sl.Blocks)
	}

	// Interprocedural slicing: the same criterion, but following the
	// dependence through the callees f1/f2/f3 instead of treating
	// calls as opaque.
	c, _ := wpp.Compact(run.WPP)
	inter := slicing.NewInter(prog.CFG, core.FromCompacted(c))
	isl, err := inter.Slice(0, slicing.Criterion{
		Block: 14, Vars: []cfg.Loc{{Var: "Z"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninterprocedural slice (function:block sites):")
	for _, site := range isl.Sites {
		fmt.Printf("  %s:B%d\n", prog.Names[site.Fn], site.Block)
	}
	fmt.Printf("(%d statement instances visited)\n", isl.Instances)
}
