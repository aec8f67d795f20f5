// Command twpp-slice runs the dynamic slicing algorithms of §4.3.2 on
// a minilang program execution: it traces the program, builds the
// timestamped dynamic CFG, and prints the requested slice.
//
// Usage:
//
//	twpp-slice -src prog.mini [-input 3,-4,3,-2] [-func main] \
//	           -block 14 [-var Z] [-time T] [-approach 3|2|1|inter] [-v]
//	twpp-slice -src prog.mini -in trace.twppd -block 14 [...]
//
// -in replays a previously compacted container of this program's
// execution — a single .twpp file or a segmented container directory
// — instead of re-running the program, so slicing works directly off
// stored traces. -v first prints a header describing the traced
// execution and the container format version its compacted form
// carries.
//
// With -approach inter the slice crosses call boundaries
// (interprocedural, instance-precise); otherwise the named
// Agrawal-Horgan approach runs within the chosen function's first
// invocation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"twpp"
	"twpp/internal/cfg"
	"twpp/internal/cli"
	"twpp/internal/core"
	"twpp/internal/dataflow"
	"twpp/internal/minilang"
	"twpp/internal/slicing"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

func main() {
	var (
		srcPath  = flag.String("src", "", "minilang source file (required)")
		inPath   = flag.String("in", "", "compacted container (file or segmented directory) of this program's execution; skips re-tracing")
		input    = flag.String("input", "", "comma-separated integers for read statements")
		funcName = flag.String("func", "main", "function to slice within")
		block    = flag.Int("block", 0, "criterion block (statement number; required)")
		varName  = flag.String("var", "", "criterion variable (default: the block's uses)")
		instant  = flag.Int64("time", 0, "criterion instance timestamp (0 = last execution)")
		approach = flag.String("approach", "3", "1, 2, 3, or inter")
		verbose  = flag.Bool("v", false, "print a trace header with the container format version")
	)
	flag.Parse()
	cli.Exit("twpp-slice", run(*srcPath, *inPath, *input, *funcName, *block, *varName, *instant, *approach, *verbose, os.Stdout))
}

func run(srcPath, inPath, input, funcName string, block int, varName string, instant int64, approach string, verbose bool, out io.Writer) error {
	if srcPath == "" {
		return cli.Usagef("missing -src")
	}
	if block <= 0 {
		return cli.Usagef("missing -block")
	}
	srcBytes, err := os.ReadFile(srcPath)
	if err != nil {
		return err
	}
	prog, err := twpp.CompileMode(string(srcBytes), twpp.PerStatement)
	if err != nil {
		return err
	}
	var w *twpp.RawWPP
	if inPath != "" {
		if input != "" {
			return cli.Usagef("-in replays a stored trace; drop -input")
		}
		f, err := twpp.OpenContainer(inPath, twpp.OpenOptions{VerifyChecksums: true})
		if err != nil {
			return err
		}
		tw, err := f.ReadAll()
		f.Close()
		if err != nil {
			return err
		}
		w, err = twpp.Reconstruct(tw)
		if err != nil {
			return err
		}
		w.FuncNames = prog.Names
	} else {
		vals, err := parseInput(input)
		if err != nil {
			return err
		}
		res, err := prog.Trace(vals)
		if err != nil {
			return err
		}
		w = res.WPP
	}
	if verbose {
		fmt.Fprintf(out, "%s: %d functions, %d unique traces, container format v%d\n",
			srcPath, len(prog.Names), len(w.Traces), twpp.FormatV2)
	}

	fnID, ok := prog.FuncByName(funcName)
	if !ok {
		return fmt.Errorf("no function %q", funcName)
	}
	crit := slicing.Criterion{
		Block: cfg.BlockID(block),
		Time:  core.Timestamp(instant),
	}
	if varName != "" {
		crit.Vars = []cfg.Loc{{Var: strings.TrimSuffix(varName, "[]"), Array: strings.HasSuffix(varName, "[]")}}
	}

	if approach == "inter" {
		c, _ := wpp.Compact(w)
		tw := core.FromCompacted(c)
		s := slicing.NewInter(prog.CFG, tw)
		node := findCall(tw.Root, cfg.FuncID(fnID))
		if node == nil {
			return fmt.Errorf("function %q was never called in this execution", funcName)
		}
		sl, err := s.Slice(node, crit)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "interprocedural slice on %s at %s:B%d (%d instances):\n",
			critVarText(varName), funcName, block, sl.Instances)
		for _, site := range sl.Sites {
			fmt.Fprintf(out, "  %s:B%-4d %s\n", prog.Names[site.Fn], site.Block,
				blockText(prog, site.Fn, site.Block))
		}
		return nil
	}

	// Intraprocedural: use the function's first invocation trace.
	path := firstTraceOf(w, cfg.FuncID(fnID))
	if path == nil {
		return fmt.Errorf("function %q was never called in this execution", funcName)
	}
	tg := dataflow.BuildFromPath(path)
	s := slicing.New(prog.CFG.Graph(cfg.FuncID(fnID)), tg)
	var sl *slicing.Slice
	switch approach {
	case "1":
		sl, err = s.Approach1(crit)
	case "2":
		sl, err = s.Approach2(crit)
	case "3":
		sl, err = s.Approach3(crit)
	default:
		return cli.Usagef("unknown approach %q (want 1, 2, 3, or inter)", approach)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "approach %s slice on %s at %s:B%d:\n", approach, critVarText(varName), funcName, block)
	for _, b := range sl.Blocks {
		fmt.Fprintf(out, "  B%-4d %s\n", b, blockText(prog, cfg.FuncID(fnID), b))
	}
	return nil
}

func critVarText(v string) string {
	if v == "" {
		return "(block uses)"
	}
	return v
}

// blockText renders the first statement (or terminator) of a block for
// display.
func blockText(prog *twpp.Program, fn cfg.FuncID, b cfg.BlockID) string {
	g := prog.CFG.Graph(fn)
	if g == nil {
		return ""
	}
	blk := g.Block(b)
	if blk == nil {
		return ""
	}
	if len(blk.Stmts) > 0 {
		return minilang.StmtString(blk.Stmts[0])
	}
	switch t := blk.Term.(type) {
	case *cfg.CondJump:
		return "if (" + minilang.ExprString(t.Cond) + ")"
	case *cfg.Ret:
		if t.Value != nil {
			return "return " + minilang.ExprString(t.Value) + ";"
		}
		return "return;"
	}
	return "(exit)"
}

// firstTraceOf returns the path trace of fn's first invocation
// (preorder over the dynamic call graph), or nil.
func firstTraceOf(w *twpp.RawWPP, fn cfg.FuncID) wpp.PathTrace {
	var out wpp.PathTrace
	w.Walk(func(n *trace.CallNode) {
		if out == nil && n.Fn == fn {
			out = wpp.PathTrace(w.Traces[n.Trace])
		}
	})
	return out
}

// findCall returns the first DCG node invoking fn, preorder.
func findCall(root *wpp.CallNode, fn cfg.FuncID) *wpp.CallNode {
	if root == nil {
		return nil
	}
	if root.Fn == fn {
		return root
	}
	for _, c := range root.Children {
		if n := findCall(c, fn); n != nil {
			return n
		}
	}
	return nil
}

func parseInput(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad input value %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}
