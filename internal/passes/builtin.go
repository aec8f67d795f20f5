// The ported query surfaces: funcs, trace, stats, cfg, and query were
// each hand-wired three times (facade, CLI, HTTP handler) before the
// registry existed; they now live here once, and every surface
// dispatches through Run. Their result shapes and validation messages
// are unchanged, so HTTP bodies and CLI renderings are byte-identical
// to the pre-registry code.

package passes

import (
	"context"
	"fmt"

	"twpp/internal/cfg"
	"twpp/internal/cli"
	"twpp/internal/dataflow"
	"twpp/internal/encoding"
	"twpp/internal/wppfile"
)

func init() {
	Register(&Pass{
		Name:    "funcs",
		Summary: "list functions, hottest first (the on-disk index order)",
		Route:   "/funcs",
		Params:  []ParamDoc{},
		Run:     runFuncs,
	})
	Register(&Pass{
		Name:    "trace",
		Summary: "extract one function's unique TWPP traces with their timestamp mappings",
		Route:   "/trace/{fn}",
		Params: []ParamDoc{
			{Name: "func", Kind: "int", Required: true, Doc: "function id"},
			{Name: "trace", Kind: "int", Doc: "restrict to one unique trace index (default: all)"},
		},
		Run: runTrace,
	})
	Register(&Pass{
		Name:    "stats",
		Summary: "per-function stats without the trace dump",
		Route:   "/stats/{fn}",
		Params: []ParamDoc{
			{Name: "func", Kind: "int", Required: true, Doc: "function id"},
		},
		Run: runStats,
	})
	Register(&Pass{
		Name:    "cfg",
		Summary: "the timestamp-annotated dynamic CFG of one trace",
		Route:   "/cfg/{fn}",
		Params: []ParamDoc{
			{Name: "func", Kind: "int", Required: true, Doc: "function id"},
			{Name: "trace", Kind: "int", Doc: "unique trace index (default 0)"},
		},
		Run: runCFG,
	})
	Register(&Pass{
		Name:    "query",
		Summary: "profile-limited GEN-KILL data flow query over one trace's dynamic CFG",
		Route:   "/query",
		Params: []ParamDoc{
			{Name: "func", Kind: "int", Required: true, Doc: "function id"},
			{Name: "block", Kind: "int", Required: true, Doc: "query block: does the fact hold before its executions?"},
			{Name: "trace", Kind: "int", Doc: "unique trace index (default 0)"},
			{Name: "gen", Kind: "blocks", Doc: "block ids that generate the fact"},
			{Name: "kill", Kind: "blocks", Doc: "block ids that kill the fact"},
		},
		Run: runQuery,
	})
}

// corruptTrace classifies a dataflow failure against profile content.
// The dynamic-CFG invariants (every timestamp set has a successor,
// flows nest) hold for every trace a real run produces, so a violation
// means the container holds damage the structural decoder cannot see —
// a corrupt-input error (exit 3, HTTP 422), never a server fault.
// Errors that already classify (cancellation, usage) pass through.
func corruptTrace(err error) error {
	if err == nil || cli.ExitCode(err) != cli.ExitFailure {
		return err
	}
	return &encoding.Error{Code: encoding.CodeCorrupt, Offset: -1, Err: err}
}

func runFuncs(_ context.Context, c wppfile.Container, p Params) (any, error) {
	resp := &FuncsResult{File: p.Source, Functions: []FuncInfo{}}
	for _, fn := range c.Functions() {
		resp.Functions = append(resp.Functions, FuncInfo{
			ID:         int(fn),
			Name:       funcName(c, fn),
			Calls:      c.CallCount(fn),
			BlockBytes: c.BlockLength(fn),
		})
	}
	return resp, nil
}

func runTrace(ctx context.Context, c wppfile.Container, p Params) (any, error) {
	fn, err := p.Func()
	if err != nil {
		return nil, err
	}
	want, err := p.Int("trace", -1)
	if err != nil {
		return nil, err
	}
	ft, release, err := Extract(ctx, c, fn)
	if err != nil {
		return nil, err
	}
	defer release()
	if want >= len(ft.Traces) {
		return nil, cli.Usagef("trace index %d out of range (%d traces)", want, len(ft.Traces))
	}
	resp := &TraceResult{
		File:   p.Source,
		Func:   int(fn),
		Name:   funcName(c, fn),
		Calls:  ft.CallCount,
		Dicts:  len(ft.Dicts),
		Traces: []TraceInfo{},
	}
	for i, tr := range ft.Traces {
		if want >= 0 && i != want {
			continue
		}
		ti := TraceInfo{Index: i, Len: tr.Len, Dict: ft.DictOf[i], Blocks: []BlockInfo{}}
		for _, bt := range tr.Blocks {
			ti.Blocks = append(ti.Blocks, BlockInfo{
				Block: int(bt.Block),
				Count: bt.Times.Count(),
				Times: bt.Times.String(),
			})
		}
		resp.Traces = append(resp.Traces, ti)
	}
	return resp, nil
}

func runStats(ctx context.Context, c wppfile.Container, p Params) (any, error) {
	fn, err := p.Func()
	if err != nil {
		return nil, err
	}
	ft, release, err := Extract(ctx, c, fn)
	if err != nil {
		return nil, err
	}
	defer release()
	total := 0
	for _, tr := range ft.Traces {
		total += tr.Len
	}
	return &StatsResult{
		File:         p.Source,
		Func:         int(fn),
		Name:         funcName(c, fn),
		Calls:        ft.CallCount,
		UniqueTraces: len(ft.Traces),
		Dicts:        len(ft.Dicts),
		TotalLen:     total,
		BlockBytes:   c.BlockLength(fn),
	}, nil
}

// traceGraph builds the dynamic CFG of fn's unique trace named by the
// "trace" parameter (default 0): the shared first half of the cfg and
// query passes. The graph owns its memory, so the extraction is
// released before it returns.
func traceGraph(ctx context.Context, c wppfile.Container, p Params, fn cfg.FuncID) (*dataflow.TGraph, int, error) {
	traceIx, err := p.Int("trace", 0)
	if err != nil {
		return nil, 0, err
	}
	ft, release, err := Extract(ctx, c, fn)
	if err != nil {
		return nil, 0, err
	}
	defer release()
	if traceIx < 0 || traceIx >= len(ft.Traces) {
		return nil, 0, cli.Usagef("trace index %d out of range (%d traces)", traceIx, len(ft.Traces))
	}
	if err := checkExpand(ft, traceIx); err != nil {
		return nil, 0, err
	}
	g, err := dataflow.Build(ft, traceIx)
	return g, traceIx, corruptTrace(err)
}

func runCFG(ctx context.Context, c wppfile.Container, p Params) (any, error) {
	fn, err := p.Func()
	if err != nil {
		return nil, err
	}
	g, traceIx, err := traceGraph(ctx, c, p, fn)
	if err != nil {
		return nil, err
	}
	resp := &CFGResult{
		File:  p.Source,
		Func:  int(fn),
		Trace: traceIx,
		Len:   g.Len,
		Nodes: []CFGNode{},
	}
	for _, n := range g.Nodes {
		node := CFGNode{
			Block: int(n.Block),
			Count: n.Times.Count(),
			Times: n.Times.String(),
			Succs: []int{},
		}
		for _, succ := range n.Succs {
			node.Succs = append(node.Succs, int(succ.Block))
		}
		resp.Edges += len(n.Succs)
		resp.Nodes = append(resp.Nodes, node)
	}
	return resp, nil
}

func runQuery(ctx context.Context, c wppfile.Container, p Params) (any, error) {
	fn, err := p.Func()
	if err != nil {
		return nil, err
	}
	block, err := p.Int("block", -1)
	if err != nil {
		return nil, err
	}
	if block <= 0 {
		return nil, cli.Usagef("missing or non-positive block parameter")
	}
	gens, err := p.Blocks("gen")
	if err != nil {
		return nil, err
	}
	kills, err := p.Blocks("kill")
	if err != nil {
		return nil, err
	}
	g, traceIx, err := traceGraph(ctx, c, p, fn)
	if err != nil {
		return nil, err
	}
	if g.Node(cfg.BlockID(block)) == nil {
		return nil, fmt.Errorf("passes: block %d never executes in trace %d: %w", block, traceIx, ErrNotFound)
	}
	prob := &dataflow.GenKillProblem{GenBlocks: gens, KillBlocks: kills}
	res, err := dataflow.SolveAllCtx(ctx, g, prob, cfg.BlockID(block))
	if err != nil {
		return nil, corruptTrace(err)
	}
	return &QueryResult{
		File:            p.Source,
		Func:            int(fn),
		Trace:           traceIx,
		Block:           block,
		Holds:           res.Holds(),
		True:            res.True.String(),
		TrueCount:       res.True.Count(),
		False:           res.False.String(),
		FalseCount:      res.False.Count(),
		Unresolved:      res.Unresolved.String(),
		UnresolvedCount: res.Unresolved.Count(),
		Frequency:       res.Frequency(),
		Queries:         res.Queries,
		Steps:           res.Steps,
	}, nil
}
