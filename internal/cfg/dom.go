package cfg

// Dominance and control-dependence analysis, using the iterative
// algorithm of Cooper, Harvey & Kennedy ("A Simple, Fast Dominance
// Algorithm"). Postdominators are computed by running the same
// algorithm on the reversed graph rooted at the exit block; control
// dependence follows Ferrante-Ottenstein-Warren: node n is control
// dependent on branch b when b has a successor s with n postdominating
// s but n not (strictly) postdominating b.

// DomTree holds immediate-dominator information for a graph.
type DomTree struct {
	// idom maps each reachable block to its immediate dominator.
	idom map[*Block]*Block
}

// Idom returns the immediate dominator of b (nil for the root or for
// blocks unreachable from the root).
func (d *DomTree) Idom(b *Block) *Block { return d.idom[b] }

// PostDominators computes the postdominator tree rooted at the exit
// (successor and predecessor roles swap).
func PostDominators(g *Graph) *DomTree {
	return computeDom(g.Exit, func(b *Block) []*Block { return b.Succs },
		func(b *Block) []*Block { return b.Preds })
}

// computeDom runs Cooper-Harvey-Kennedy with the given edge accessors.
// preds/succs are with respect to the direction of the analysis.
func computeDom(root *Block, preds, succs func(*Block) []*Block) *DomTree {
	// Reverse postorder over the traversal direction.
	var order []*Block
	index := map[*Block]int{}
	visited := map[*Block]bool{}
	var dfs func(b *Block)
	dfs = func(b *Block) {
		visited[b] = true
		for _, s := range succs(b) {
			if !visited[s] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	if root != nil {
		dfs(root)
	}
	// order is postorder; reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for i, b := range order {
		index[b] = i
	}

	idom := map[*Block]*Block{}
	if root == nil {
		return &DomTree{idom: idom}
	}
	idom[root] = root

	intersect := func(a, b *Block) *Block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range order {
			if b == root {
				continue
			}
			var newIdom *Block
			for _, p := range preds(b) {
				if idom[p] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	// Normalize: the root's idom is nil externally.
	idom[root] = nil
	return &DomTree{idom: idom}
}

// ControlDeps computes, for every block, the set of branch blocks it is
// directly control dependent on. The result maps block id to the
// sorted ids of its controlling branches.
func ControlDeps(g *Graph) map[BlockID][]BlockID {
	pdom := PostDominators(g)
	depsSet := map[BlockID]map[BlockID]bool{}
	add := func(n, br *Block) {
		if depsSet[n.ID] == nil {
			depsSet[n.ID] = map[BlockID]bool{}
		}
		depsSet[n.ID][br.ID] = true
	}
	for _, a := range g.Blocks {
		if len(a.Succs) < 2 {
			continue
		}
		for _, s := range a.Succs {
			// Walk the postdominator tree from s up to, but not
			// including, a's immediate postdominator.
			stop := pdom.Idom(a)
			for n := s; n != nil && n != stop; n = pdom.Idom(n) {
				if n == a {
					// Loop edge: a is control dependent on itself;
					// record and stop.
					add(n, a)
					break
				}
				add(n, a)
			}
		}
	}
	out := map[BlockID][]BlockID{}
	for id, set := range depsSet {
		blocks := make([]*Block, 0, len(set))
		for bid := range set {
			blocks = append(blocks, g.Block(bid))
		}
		out[id] = sortedIDs(blocks)
	}
	return out
}
