package dataflow

import (
	"context"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/wpp"
)

// The three map kernels that core.NewDynamicGraph replaced, kept
// verbatim as the reference oracles it must match (FuzzDynamicGraph,
// TestDynamicGraphMatchesReference): the dynamic CFG builder, kpaths'
// iteration split, and Table 6's edge count. They live here because
// this is the one package whose tests can build a TGraph by hand and
// also import the kernel and the benchmark profiles.

// buildFromPathRef is the map-based BuildFromPath.
func buildFromPathRef(path wpp.PathTrace) *TGraph {
	g := &TGraph{Len: len(path), byBlock: make(map[cfg.BlockID]*Node)}
	times := make(map[cfg.BlockID][]core.Timestamp)
	get := func(b cfg.BlockID) *Node {
		n, ok := g.byBlock[b]
		if !ok {
			n = &Node{Block: b}
			g.byBlock[b] = n
			g.Nodes = append(g.Nodes, n)
		}
		return n
	}
	edge := make(map[[2]cfg.BlockID]bool)
	for i, b := range path {
		n := get(b)
		times[b] = append(times[b], core.Timestamp(i+1))
		if i > 0 {
			p := path[i-1]
			if !edge[[2]cfg.BlockID{p, b}] {
				edge[[2]cfg.BlockID{p, b}] = true
				pn := g.byBlock[p]
				pn.Succs = append(pn.Succs, n)
				n.Preds = append(n.Preds, pn)
			}
		}
	}
	for _, n := range g.Nodes {
		n.Times = core.CompactSeries(times[n.Block])
	}
	return g
}

// iterationsRef is kpaths' map-based iteration split, expansion
// included.
func iterationsRef(ctx context.Context, ft *core.FunctionTWPP, i int) ([][]int, error) {
	compacted, err := ft.Traces[i].ToPath()
	if err != nil {
		return nil, err
	}
	dict := ft.Dicts[ft.DictOf[i]]
	var path wpp.PathTrace
	for n, id := range compacted {
		if n&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if chain, ok := dict[id]; ok {
			path = append(path, chain...)
		} else {
			path = append(path, id)
		}
	}
	var iters [][]int
	seen := map[cfg.BlockID]bool{}
	var cur []int
	for n, b := range path {
		if n&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if seen[b] {
			iters = append(iters, cur)
			cur = nil
			clear(seen)
		}
		seen[b] = true
		cur = append(cur, int(b))
	}
	if len(cur) > 0 {
		iters = append(iters, cur)
	}
	return iters, nil
}

// dynamicGraphStatsRef is Table 6's map-based core.TWPP.DynamicGraphStats.
func dynamicGraphStatsRef(t *core.TWPP) (nodes, edges int) {
	for f := range t.Funcs {
		ft := &t.Funcs[f]
		for _, tr := range ft.Traces {
			nodes += len(tr.Blocks)
			// Recover the path to count distinct dynamic edges.
			path, err := tr.ToPath()
			if err != nil {
				continue
			}
			seen := make(map[[2]cfg.BlockID]bool)
			for j := 0; j+1 < len(path); j++ {
				seen[[2]cfg.BlockID{path[j], path[j+1]}] = true
			}
			edges += len(seen)
		}
	}
	return nodes, edges
}
