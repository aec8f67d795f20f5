package dataflow

import (
	"fmt"
	"sort"

	"twpp/internal/cfg"
	"twpp/internal/core"
)

// Interprocedural profile-limited analysis (paper §4.2: "our
// techniques can be easily extended to handle interprocedural paths by
// analyzing path traces of multiple functions in concert and
// propagating queries along interprocedural paths").
//
// Two things change relative to the intraprocedural solver:
//
//   - when backward propagation crosses a point where the traced call
//     instance invoked children, the callees' net effects on the fact
//     (computed by descending into their traces, memoized per DCG
//     row) apply before the enclosing block's own effect — the
//     paper's DGEN/DKILL = GEN_f(T(n)) rule, instance-precise;
//
//   - slots that reach a trace's start (the paper's "unresolved")
//     continue in the caller's trace at the recorded call position,
//     walking up the dynamic call graph until resolved or until the
//     root's entry is reached.

// InterProblem supplies per-(function, block) effects for one fact.
type InterProblem interface {
	Effect(fn cfg.FuncID, b cfg.BlockID) Effect
}

// InterProblemFunc adapts a function to InterProblem.
type InterProblemFunc func(fn cfg.FuncID, b cfg.BlockID) Effect

// Effect implements InterProblem.
func (f InterProblemFunc) Effect(fn cfg.FuncID, b cfg.BlockID) Effect { return f(fn, b) }

// InterResult counts the resolution of the queried execution
// instances.
type InterResult struct {
	// True / False count instances resolved by a GEN / KILL.
	True, False int
	// Unresolved counts instances whose backward paths reached the
	// entry of the root call (main) without resolution.
	Unresolved int
	// Queries counts propagation steps to predecessors, call-effect
	// evaluations, and caller continuations.
	Queries int
}

// Frequency is True / total.
func (r *InterResult) Frequency() float64 {
	total := r.True + r.False + r.Unresolved
	if total == 0 {
		return 0
	}
	return float64(r.True) / float64(total)
}

// interSolver carries the shared state of one interprocedural query.
// Calls are DCG rows.
type interSolver struct {
	tw      *core.TWPP
	prob    InterProblem
	parents []int // each row's caller, -1 for the root
	graphs  map[graphKey]*TGraph
	effects []Effect // each row's memoized net effect, or unknownEffect
	res     *InterResult
	depth   int
}

// unknownEffect marks a call whose net effect is not yet computed.
const unknownEffect Effect = -1

type graphKey struct {
	fn  cfg.FuncID
	idx int
}

// SolveInter answers a profile-limited query interprocedurally: does
// the fact hold immediately before the executions of block `block` at
// timestamps T within the given call instance (a row of the TWPP's
// dynamic call graph)?
func SolveInter(tw *core.TWPP, prob InterProblem, node int, block cfg.BlockID, T core.Seq) (*InterResult, error) {
	if node < 0 || node >= tw.DCG.Len() {
		return nil, fmt.Errorf("dataflow: call %d is not part of this TWPP's DCG (%d calls)", node, tw.DCG.Len())
	}
	s := &interSolver{
		tw:      tw,
		prob:    prob,
		parents: tw.DCG.Parents(),
		graphs:  make(map[graphKey]*TGraph),
		effects: make([]Effect, tw.DCG.Len()),
		res:     &InterResult{},
	}
	for i := range s.effects {
		s.effects[i] = unknownEffect
	}

	g, err := s.graph(node)
	if err != nil {
		return nil, err
	}
	start := g.Node(block)
	if start == nil {
		return nil, fmt.Errorf("dataflow: block %d not executed in this call instance", block)
	}
	if T == nil {
		T = start.Times
	}
	if !T.Subtract(start.Times).IsEmpty() {
		return nil, fmt.Errorf("dataflow: query timestamps %s exceed block %d's %s", T, block, start.Times)
	}
	s.res.Queries++
	if err := s.solveFrame(node, g, map[cfg.BlockID]core.Seq{block: T}, 1); err != nil {
		return nil, err
	}
	return s.res, nil
}

// graph returns (building and caching) the expanded dynamic CFG of the
// call's unique trace.
func (s *interSolver) graph(node int) (*TGraph, error) {
	key := graphKey{fn: s.tw.DCG.Fn[node], idx: s.tw.DCG.Trace[node]}
	if g, ok := s.graphs[key]; ok {
		return g, nil
	}
	ft := &s.tw.Funcs[key.fn]
	g, err := Build(ft, key.idx)
	if err != nil {
		return nil, err
	}
	s.graphs[key] = g
	return g, nil
}

// callEffect computes the net effect of one traced call instance on
// the fact: the last effect along its (expanded, recursively
// descended) execution wins. Memoized per DCG row; distinct calls
// sharing a unique trace still differ in children, so memoization is
// per call.
func (s *interSolver) callEffect(node int) (Effect, error) {
	if e := s.effects[node]; e != unknownEffect {
		return e, nil
	}
	s.res.Queries++
	g, err := s.graph(node)
	if err != nil {
		return Transparent, err
	}
	path := g.Path()
	byPos := s.childrenByPos(node)
	// Scan backward: children at position p ran after block p.
	result := Transparent
	for p := len(path); p >= 0 && result == Transparent; p-- {
		for i := len(byPos[p]) - 1; i >= 0 && result == Transparent; i-- {
			e, err := s.callEffect(byPos[p][i])
			if err != nil {
				return Transparent, err
			}
			result = e
		}
		if result == Transparent && p >= 1 {
			result = s.prob.Effect(s.tw.DCG.Fn[node], path[p-1])
		}
	}
	s.effects[node] = result
	return result, nil
}

// childrenByPos groups a call's children by their call position, each
// group in call order.
func (s *interSolver) childrenByPos(node int) map[int][]int {
	d := &s.tw.DCG
	out := make(map[int][]int)
	for c := node + 1; c < d.End[node]; c = d.End[c] {
		out[d.Pos[c]] = append(out[d.Pos[c]], c)
	}
	return out
}

// maxInterDepth bounds caller-continuation recursion.
const maxInterDepth = 1 << 16

// solveFrame propagates a timestamp-vector query backward within one
// call instance. Each timestamp slot represents `weight` original
// query instances (merging happens at caller continuations).
func (s *interSolver) solveFrame(node int, g *TGraph, active map[cfg.BlockID]core.Seq, weight int) error {
	if s.depth >= maxInterDepth {
		return fmt.Errorf("dataflow: interprocedural recursion too deep")
	}
	s.depth++
	defer func() { s.depth-- }()

	fn := s.tw.DCG.Fn[node]
	byPos := s.childrenByPos(node)
	// callPositions sorted for quick membership tests.
	callPos := make([]int, 0, len(byPos))
	for p := range byPos {
		callPos = append(callPos, p)
	}
	sort.Ints(callPos)
	hasCallsAt := func(t core.Timestamp) bool {
		i := sort.SearchInts(callPos, int(t))
		return i < len(callPos) && callPos[i] == int(t)
	}

	entryCount := 0 // slots that reached this frame's entry

	for len(active) > 0 {
		next := make(map[cfg.BlockID]core.Seq)
		for b, seq := range active {
			dec := seq.Shift(-1)
			if dec.Contains(0) {
				entryCount += weight
				dec = dec.Subtract(core.Seq{{Lo: 0, Hi: 0, Step: 1}})
			}
			if dec.IsEmpty() {
				continue
			}
			// Split out the positions where the instance made calls:
			// the callees' effects apply before the block's own.
			// Remaining positions take the fast vector path.
			var plain core.Seq = dec
			for _, e := range dec {
				for t := e.Lo; t <= e.Hi; t += e.Step {
					if !hasCallsAt(t) {
						continue
					}
					one := core.Seq{{Lo: t, Hi: t, Step: 1}}
					plain = plain.Subtract(one)
					kids := byPos[int(t)]
					eff := Transparent
					for i := len(kids) - 1; i >= 0 && eff == Transparent; i-- {
						var err error
						eff, err = s.callEffect(kids[i])
						if err != nil {
							return err
						}
					}
					if eff == Transparent {
						eff = s.prob.Effect(fn, g.BlockAt(t))
					}
					s.res.Queries++
					switch eff {
					case Gen:
						s.res.True += weight
					case Kill:
						s.res.False += weight
					default:
						m := g.BlockAt(t)
						next[m] = next[m].Union(one)
					}
				}
			}
			if plain.IsEmpty() {
				continue
			}
			routed := core.Seq{}
			for _, m := range g.Node(b).Preds {
				inter := plain.Intersect(m.Times)
				if inter.IsEmpty() {
					continue
				}
				s.res.Queries++
				routed = routed.Union(inter)
				switch s.prob.Effect(fn, m.Block) {
				case Gen:
					s.res.True += weight * inter.Count()
				case Kill:
					s.res.False += weight * inter.Count()
				default:
					next[m.Block] = next[m.Block].Union(inter)
				}
			}
			if leftover := plain.Subtract(routed); !leftover.IsEmpty() {
				return fmt.Errorf("dataflow: timestamps %s at block %d have no predecessor (corrupt trace?)", leftover, b)
			}
		}
		active = next
	}

	if entryCount == 0 {
		return nil
	}
	// Continue in the caller at the recorded call position.
	if s.parents[node] < 0 {
		// Entry of the root call: genuinely unresolved.
		s.res.Unresolved += entryCount
		return nil
	}
	s.res.Queries++
	return s.continueInCaller(node, entryCount)
}

// continueInCaller resumes a query in the caller of call child, just
// before that call. Earlier sibling calls at the same position apply
// first, then the enclosing block's effect, then normal backward
// propagation from that block's instance.
func (s *interSolver) continueInCaller(child int, weight int) error {
	parent := s.parents[child]
	pos := s.tw.DCG.Pos[child]
	g, err := s.graph(parent)
	if err != nil {
		return err
	}
	// Effects of earlier siblings called at the same position, newest
	// first; siblings are rows in call order.
	byPos := s.childrenByPos(parent)
	for i := len(byPos[pos]) - 1; i >= 0; i-- {
		sib := byPos[pos][i]
		if sib >= child {
			continue
		}
		eff, err := s.callEffect(sib)
		if err != nil {
			return err
		}
		switch eff {
		case Gen:
			s.res.True += weight
			return nil
		case Kill:
			s.res.False += weight
			return nil
		}
	}
	if pos == 0 {
		// Called before the parent executed any block: continue at the
		// parent's own entry boundary.
		if s.parents[parent] < 0 {
			s.res.Unresolved += weight
			return nil
		}
		return s.continueInCaller(parent, weight)
	}
	// The call happened during block instance `pos`; that block's
	// statements before the call have executed. At block granularity
	// we apply the whole block's effect (documented approximation).
	blk := g.BlockAt(core.Timestamp(pos))
	switch s.prob.Effect(s.tw.DCG.Fn[parent], blk) {
	case Gen:
		s.res.True += weight
		return nil
	case Kill:
		s.res.False += weight
		return nil
	}
	return s.solveFrame(parent, g, map[cfg.BlockID]core.Seq{blk: {{Lo: core.Timestamp(pos), Hi: core.Timestamp(pos), Step: 1}}}, weight)
}
