// Command twpp-bench regenerates the tables and figures of Zhang &
// Gupta, "Timestamped Whole Program Path Representation and its
// Applications" (PLDI 2001) on the synthetic SPECint95-like workloads.
//
// Usage:
//
//	twpp-bench [-scale f] [-dir path] [-j workers] [-maxfuncs N]
//	           [-ablation] [-table N | -figure N]
//
// With neither -table nor -figure every table (1-6) and figure (8-12)
// is produced. Tables 4 and 5 involve per-function timing runs and
// dominate the runtime; -j sizes the compaction worker pool. Timed
// performance measurements with repetitions and spread come from the
// repository's benchmark, perfbench/.
package main

import (
	"flag"
	"fmt"
	"os"

	"twpp/internal/bench"
	"twpp/internal/cli"
	"twpp/internal/figures"
)

func main() {
	var (
		scale    = flag.Float64("scale", 1.0, "workload scale factor (driver iterations multiplier)")
		dir      = flag.String("dir", "", "directory for generated WPP files (default: a temp dir)")
		table    = flag.Int("table", 0, "regenerate only this table (1-6)")
		figure   = flag.Int("figure", 0, "regenerate only this figure (8-12)")
		ablation = flag.Bool("ablation", false, "also print the design-decision ablation study")
		maxFuncs = flag.Int("maxfuncs", 40, "cap on functions measured per benchmark in timing experiments (0 = all)")
		workers  = flag.Int("j", 0, "compaction worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	)
	flag.Parse()
	cli.Exit("twpp-bench", run(*scale, *dir, *table, *figure, *maxFuncs, *workers, *ablation))
}

func run(scale float64, dir string, table, figure, maxFuncs, workers int, ablation bool) error {
	out := os.Stdout

	// Figures 9-12 are worked examples independent of the workload
	// scale; serve them without running the benchmarks.
	if figure >= 9 && figure <= 12 {
		return figures.Print(out, figure)
	}

	if dir == "" {
		tmp, err := os.MkdirTemp("", "twpp-bench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	fmt.Fprintf(out, "Running %d benchmark profiles at scale %.2f (files in %s)\n\n",
		len(bench.Profiles()), scale, dir)
	results, err := bench.RunAllWorkers(scale, dir, workers)
	if err != nil {
		return err
	}

	want := func(n int) bool {
		return (table == 0 && figure == 0) || table == n
	}
	wantFig := func(n int) bool {
		return (table == 0 && figure == 0) || figure == n
	}

	if want(1) {
		bench.Table1(out, results)
		fmt.Fprintln(out)
	}
	if want(2) {
		bench.Table2(out, results)
		fmt.Fprintln(out)
	}
	if want(3) {
		bench.Table3(out, results)
		fmt.Fprintln(out)
	}
	var timings []*bench.ExtractTiming
	if want(4) {
		for _, r := range results {
			t, err := bench.MeasureExtraction(r, maxFuncs)
			if err != nil {
				return err
			}
			timings = append(timings, t)
		}
		bench.Table4(out, results, timings)
		fmt.Fprintln(out)
	}
	if want(5) {
		var comps []*bench.SequiturComparison
		for _, r := range results {
			c, err := bench.MeasureSequitur(r, min(maxFuncs, 20))
			if err != nil {
				return err
			}
			comps = append(comps, c)
		}
		bench.Table5(out, results, comps)
		fmt.Fprintln(out)
	}
	if want(6) {
		bench.Table6(out, results)
		fmt.Fprintln(out)
	}
	if wantFig(8) {
		bench.Figure8(out, results)
		fmt.Fprintln(out)
	}
	if ablation {
		var abls []*bench.Ablation
		for _, r := range results {
			a, err := bench.MeasureAblation(r)
			if err != nil {
				return err
			}
			abls = append(abls, a)
		}
		bench.AblationTable(out, abls)
		fmt.Fprintln(out)
	}
	if table == 0 && figure == 0 {
		for _, f := range []int{9, 10, 12} {
			if err := figures.Print(out, f); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		bench.Summary(out, results, timings)
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
