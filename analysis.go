package twpp

import (
	"context"
	"fmt"

	"twpp/internal/cfg"
	"twpp/internal/currency"
	"twpp/internal/dataflow"
	"twpp/internal/passes"
	"twpp/internal/redundancy"
	"twpp/internal/slicing"
	"twpp/internal/wpp"
)

// This file exposes the repo's analyses through the facade, in two
// layers with no third dispatch path:
//
//   - Container-level analyses (anything that answers a question about
//     an opened Container) are registered passes in internal/passes;
//     the facade dispatches them through RunAnalysis — the same
//     registry the HTTP server and twpp-query dispatch through — with
//     typed conveniences (KPathProfile) for the common ones.
//   - TGraph-level helpers (Query, QueryAt, Currency, slicing,
//     redundancy — the paper's §4.3 applications) are facade-only:
//     they operate on an in-memory dynamic CFG the caller already
//     built, carry non-JSON inputs like effect functions and code
//     motions, and are deliberately not passes.

// Re-exported analysis types.
type (
	// Effect is a block's effect on a data flow fact (Transparent,
	// GenFact, or KillFact).
	Effect = dataflow.Effect
	// QueryResult is the resolution of a profile-limited data flow
	// query.
	QueryResult = dataflow.Result
	// LoadReport is a load site's dynamic redundancy measurement.
	LoadReport = redundancy.Report
	// LoadSite identifies an array load instruction.
	LoadSite = redundancy.LoadSite
	// SliceCriterion selects what to slice on.
	SliceCriterion = slicing.Criterion
	// Slice is a dynamic slicing result.
	Slice = slicing.Slice
	// Motion describes a code-motion transformation for currency
	// determination.
	Motion = currency.Motion
	// CurrencyVerdict is the current/non-current determination for
	// one breakpoint instance.
	CurrencyVerdict = currency.Verdict
)

// Effect values for GEN-KILL problems.
const (
	// TransparentFact leaves the fact unchanged.
	TransparentFact = dataflow.Transparent
	// GenFact makes the fact true on block exit.
	GenFact = dataflow.Gen
	// KillFact makes the fact false on block exit.
	KillFact = dataflow.Kill
)

// Analysis-pass dispatch: the registry of container-level analyses.

// AnalysisInfo describes one registered analysis pass: its name,
// summary, dedicated HTTP route (when it has one), and parameters.
type AnalysisInfo = passes.Info

// AnalysisParamDoc documents one parameter of a registered pass.
type AnalysisParamDoc = passes.ParamDoc

// KPathsResult is a function's k-iteration Ball-Larus path profile
// (the kpaths pass).
type KPathsResult = passes.KPathsResult

// KPathEntry is one k-iteration path window of a KPathsResult.
type KPathEntry = passes.KPathEntry

// Result shapes of the other registered passes, for callers that
// type-assert RunAnalysis results.
type (
	// FuncsResult is the funcs pass's listing.
	FuncsResult = passes.FuncsResult
	// FuncInfo is one function's row in a FuncsResult.
	FuncInfo = passes.FuncInfo
	// TraceResult is the trace pass's full extraction of one function.
	TraceResult = passes.TraceResult
	// TraceInfo is one unique trace in a TraceResult.
	TraceInfo = passes.TraceInfo
	// BlockInfo is one dynamic block of a TraceInfo.
	BlockInfo = passes.BlockInfo
	// StatsResult is the stats pass's per-function summary.
	StatsResult = passes.StatsResult
	// CFGResult is the cfg pass's dynamic CFG rendering.
	CFGResult = passes.CFGResult
	// CFGNode is one node of a CFGResult.
	CFGNode = passes.CFGNode
	// GenKillQueryResult is the query pass's resolution (the
	// serializable counterpart of QueryResult).
	GenKillQueryResult = passes.QueryResult
)

// Analyses lists every registered analysis pass, in name order.
func Analyses() []AnalysisInfo { return passes.Infos() }

// RunAnalysis executes a registered analysis pass against an opened
// container — the same dispatch the HTTP /analyze endpoint and
// twpp-query use, so results agree byte-for-byte across surfaces.
// source labels the container in the result (the JSON "file" field);
// params holds the pass's parameters as strings, exactly as they would
// appear in a query string. The result is the pass's JSON-marshalable
// result struct.
func RunAnalysis(ctx context.Context, c Container, pass, source string, params map[string]string) (any, error) {
	return passes.Run(ctx, pass, c, passes.Params{Source: source, Values: params})
}

// KPathProfile computes function fn's k-iteration Ball-Larus path
// profile from the container's timestamp series: every window of k
// consecutive loop iterations with execution counts, hottest first.
// At k=1 this is the per-iteration acyclic path profile.
func KPathProfile(c Container, fn FuncID, k int) (*KPathsResult, error) {
	return KPathProfileContext(context.Background(), c, fn, k)
}

// KPathProfileContext is KPathProfile with cooperative cancellation.
func KPathProfileContext(ctx context.Context, c Container, fn FuncID, k int) (*KPathsResult, error) {
	res, err := RunAnalysis(ctx, c, "kpaths", "", map[string]string{
		"func": fmt.Sprint(int(fn)),
		"k":    fmt.Sprint(k),
	})
	if err != nil {
		return nil, err
	}
	return res.(*KPathsResult), nil
}

// Query answers the profile-limited data flow query <T(n), n>_d: does
// the fact defined by effect hold immediately before every execution
// of block n in the given dynamic CFG? effect maps each block to its
// GEN/KILL behaviour. Facade-only: g is an in-memory dynamic CFG and
// effect is a function, so this helper is not a registered pass.
func Query(g *TGraph, effect func(BlockID) Effect, n BlockID) (*QueryResult, error) {
	return dataflow.SolveAll(g, dataflow.ProblemFunc(effect), n)
}

// QueryContext is Query with cooperative cancellation: ctx is polled
// once per backward propagation step, so a per-request deadline bounds
// the work a single query may consume (the twpp-serve request path).
func QueryContext(ctx context.Context, g *TGraph, effect func(BlockID) Effect, n BlockID) (*QueryResult, error) {
	return dataflow.SolveAllCtx(ctx, g, dataflow.ProblemFunc(effect), n)
}

// QueryAt restricts Query to a subset T of n's execution timestamps.
func QueryAt(g *TGraph, effect func(BlockID) Effect, n BlockID, T Seq) (*QueryResult, error) {
	return dataflow.Solve(g, dataflow.ProblemFunc(effect), n, T)
}

// LoadRedundancy measures, for every array load site of function fn,
// how often the loaded value was already available during the
// execution recorded in tg (paper §4.3.1 / Figure 9).
func (p *Program) LoadRedundancy(fn FuncID, tg *TGraph) ([]*LoadReport, error) {
	return redundancy.AnalyzeFunction(p.CFG, fn, tg)
}

// MainTrace builds the dynamic CFG of the root (main) invocation of a
// run — the common starting point for the analyses. The program
// should have been compiled with PerStatement granularity for
// statement-level results.
func (r *Run) MainTrace() *TGraph {
	return dataflow.BuildFromPath(wpp.PathTrace(r.WPP.Traces[r.WPP.DCG.Trace[0]]))
}

// NewSlicer prepares dynamic slicing for function fn over the
// execution recorded in tg (paper §4.3.2 / Figures 10-11). The
// returned slicer offers the three Agrawal-Horgan approaches.
func (p *Program) NewSlicer(fn FuncID, tg *TGraph) (*slicing.Slicer, error) {
	g := p.CFG.Graph(cfg.FuncID(fn))
	if g == nil {
		return nil, errNoFunc(fn)
	}
	return slicing.New(g, tg), nil
}

// Currency determines whether Var is current at the breakpoint
// instance (block, t) of the optimized execution in tg, given the
// optimizer's code motion m (paper §4.3.2 / Figure 12).
func Currency(tg *TGraph, m Motion, breakpoint BlockID, t Timestamp) (*CurrencyVerdict, error) {
	return currency.At(tg, m, breakpoint, t)
}

// CurrencyAll classifies every breakpoint instance at once, returning
// the timestamp sets where the variable is current and non-current.
func CurrencyAll(tg *TGraph, m Motion, breakpoint BlockID) (current, nonCurrent Seq, err error) {
	return currency.AtAll(tg, m, breakpoint)
}

type noFuncError FuncID

func (e noFuncError) Error() string { return "twpp: no such function id" }

func errNoFunc(fn FuncID) error { return noFuncError(fn) }
