// Package dataflow implements profile-limited data flow analysis over
// timestamped whole program paths (Zhang & Gupta, PLDI 2001, §4): the
// timestamp-annotated dynamic control flow graph (§4.1) and the
// demand-driven backward propagation of GEN-KILL queries with compacted
// timestamp vectors (§4.2).
//
// A query <T, n>_d asks whether the data flow fact d holds immediately
// before the executions of block n at the timestamps in T. The engine
// propagates the timestamp vector backward through the dynamic CFG,
// decrementing all slots in lockstep (the O(entries) series shift of
// the paper) and routing slots to the predecessor whose timestamp set
// contains them; a slot resolves when it reaches a block that generates
// (true) or kills (false) the fact.
package dataflow

import (
	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/wpp"
)

// Node is one dynamic basic block of a path trace, annotated with the
// compacted set of timestamps at which it executed.
type Node struct {
	Block cfg.BlockID
	Times core.Seq
	Preds []*Node
	Succs []*Node
}

// TGraph is the timestamp-annotated dynamic control flow graph of one
// path trace, at static block granularity (DBB dictionaries expanded).
type TGraph struct {
	// Nodes in order of first execution.
	Nodes []*Node
	// Len is the trace length (largest timestamp).
	Len int

	tr      *core.Trace
	byBlock map[cfg.BlockID]*Node
}

// Node returns the node for the given static block, or nil if the
// block never executed in this trace.
func (g *TGraph) Node(b cfg.BlockID) *Node { return g.byBlock[b] }

// BuildFromPath constructs the timestamp-annotated dynamic CFG from an
// expanded path trace, over core.NewDynamicGraph. The nodes share one
// backing array, and so do their adjacency lists.
func BuildFromPath(path wpp.PathTrace) *TGraph {
	dg := core.NewDynamicGraph(path)
	k := len(dg.Trace.Blocks)
	g := &TGraph{Nodes: make([]*Node, k), Len: len(path), tr: dg.Trace, byBlock: make(map[cfg.BlockID]*Node, k)}
	nodes := make([]Node, k)
	for j, bt := range dg.Trace.Blocks {
		n := &nodes[j]
		n.Block, n.Times = bt.Block, bt.Times
		g.Nodes[j] = n
		g.byBlock[bt.Block] = n
	}
	adj := make([]*Node, 2*dg.Edges)
	link := func(idx []int32) []*Node {
		if len(idx) == 0 {
			return nil
		}
		list := adj[:len(idx):len(idx)]
		adj = adj[len(idx):]
		for x, j := range idx {
			list[x] = g.Nodes[j]
		}
		return list
	}
	for j, n := range g.Nodes {
		n.Succs, n.Preds = link(dg.Succs[j]), link(dg.Preds[j])
	}
	return g
}

// Build expands unique trace traceIdx of ft through its dictionary and
// constructs the annotated dynamic CFG.
func Build(ft *core.FunctionTWPP, traceIdx int) (*TGraph, error) {
	path, err := ft.Expand(traceIdx)
	if err != nil {
		return nil, err
	}
	return BuildFromPath(path), nil
}

// BlockAt returns the block executing at timestamp ts (0 if out of
// range). It is O(nodes) over compacted vectors, not O(trace length).
func (g *TGraph) BlockAt(ts core.Timestamp) cfg.BlockID { return g.tr.BlockAt(ts) }

// Path re-materializes the underlying path trace.
func (g *TGraph) Path() wpp.PathTrace {
	// The trace is FromPath's inversion of a path, so it converts back
	// without error.
	path, _ := g.tr.ToPath()
	return path
}
