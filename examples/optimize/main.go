// Optimize: profile-guided load-redundancy detection (paper §4.3.1,
// Figure 9). A hot loop reloads a value from an array; edge profiles
// can only bound how often the reload is redundant, but the TWPP
// answers exactly, per execution instance, with a handful of
// demand-driven queries.
package main

import (
	"fmt"
	"log"

	"twpp"
	"twpp/internal/cfg"
	"twpp/internal/dataflow"
	"twpp/internal/redundancy"
	"twpp/internal/wpp"
)

// The kernel reloads table[base] after an optional store: on two of
// every three iterations the store is skipped and the reload is
// redundant — exactly the kind of fact a profile-guided optimizer
// wants quantified before cloning and specializing the loop.
const src = `
func main() {
    var table = alloc(16);
    table[0] = 5;
    var sink = 0;
    for (var i = 0; i < 300; i = i + 1) {
        var x = table[0];
        if (i % 3 == 2) {
            table[0] = x + 1;
        }
        var y = table[0];
        sink = sink + y;
    }
    print(sink);
}
`

func main() {
	prog, err := twpp.CompileMode(src, twpp.PerStatement)
	if err != nil {
		log.Fatal(err)
	}
	run, err := prog.Trace(nil)
	if err != nil {
		log.Fatal(err)
	}
	// Build the timestamp-annotated dynamic CFG of main's invocation.
	mainTrace := wpp.PathTrace(run.WPP.Traces[run.WPP.DCG.Trace[0]])
	tg := dataflow.BuildFromPath(mainTrace)

	fmt.Println("load sites in main and their dynamic redundancy:")
	reports, err := redundancy.AnalyzeFunction(prog.CFG, 0, tg)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reports {
		fmt.Printf("  %s\n", r)
	}

	// Drill into the reload site (the load with the largest block id:
	// y = table[0]).
	sites := redundancy.FindLoads(prog.CFG.Graphs[0])
	reload := sites[len(sites)-1]
	rep, err := redundancy.Analyze(prog.CFG, 0, tg, reload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreload at B%d: %d of %d executions redundant (%.1f%%)\n",
		reload.Block, rep.Redundant, rep.Executions, 100*rep.Degree)
	fmt.Printf("cost: %d demand-driven queries over compacted timestamp vectors\n", rep.Queries)
	if rep.Degree > 0.5 {
		fmt.Println("=> profitable: an optimizer would clone the loop and keep the value in a register")
	}

	// The same machinery at the raw query level, Figure 9 style: show
	// the timestamp vectors driving the analysis.
	fmt.Println("\ntimestamp annotations at the interesting blocks:")
	for _, b := range []cfg.BlockID{reload.Block} {
		fmt.Printf("  T(%d) = %s\n", b, tg.Node(b).Times)
	}
}
