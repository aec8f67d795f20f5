package dataflow

import (
	"sort"

	"twpp/internal/cfg"
)

// Static reaching-definitions analysis over a function's CFG, used to
// build the static program dependence graph that Agrawal & Horgan's
// slicing Approach 1 restricts to executed nodes.

// defSite is one definition: block b defines location loc.
type defSite struct {
	block cfg.BlockID
	loc   cfg.Loc
}

// ReachInfo holds the result of reaching-definitions analysis.
type ReachInfo struct {
	// in[b] is the set of def-site ids reaching the entry of block b.
	in map[cfg.BlockID]map[int]bool
	// sites indexes def sites by id.
	sites []defSite
	// defsOf[loc] lists the site ids defining loc.
	defsOf map[cfg.Loc][]int
}

// ReachingDefs runs the classic iterative reaching-definitions
// analysis on g. With per-statement graphs every block is a single
// definition site, which matches the statement-level dependence the
// slicing examples of the paper use.
func ReachingDefs(g *cfg.Graph) *ReachInfo {
	r := &ReachInfo{
		in:     make(map[cfg.BlockID]map[int]bool),
		defsOf: make(map[cfg.Loc][]int),
	}
	// Number the definition sites.
	gen := make(map[cfg.BlockID][]int)
	for _, b := range g.Blocks {
		eff := cfg.BlockEffects(b)
		for _, d := range eff.Defs {
			id := len(r.sites)
			r.sites = append(r.sites, defSite{block: b.ID, loc: d})
			r.defsOf[d] = append(r.defsOf[d], id)
			gen[b.ID] = append(gen[b.ID], id)
		}
	}
	// kill[b]: all sites defining any location b defines, minus b's own.
	kill := make(map[cfg.BlockID]map[int]bool)
	for _, b := range g.Blocks {
		ks := make(map[int]bool)
		for _, id := range gen[b.ID] {
			for _, other := range r.defsOf[r.sites[id].loc] {
				if r.sites[other].block != b.ID {
					ks[other] = true
				}
			}
		}
		kill[b.ID] = ks
	}

	out := make(map[cfg.BlockID]map[int]bool)
	for _, b := range g.Blocks {
		r.in[b.ID] = make(map[int]bool)
		out[b.ID] = make(map[int]bool)
	}
	// Worklist iteration.
	work := make([]*cfg.Block, len(g.Blocks))
	copy(work, g.Blocks)
	inWork := make(map[cfg.BlockID]bool)
	for _, b := range work {
		inWork[b.ID] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.ID] = false

		newIn := make(map[int]bool)
		for _, p := range b.Preds {
			for id := range out[p.ID] {
				newIn[id] = true
			}
		}
		r.in[b.ID] = newIn
		newOut := make(map[int]bool, len(newIn))
		for id := range newIn {
			if !kill[b.ID][id] {
				newOut[id] = true
			}
		}
		for _, id := range gen[b.ID] {
			newOut[id] = true
		}
		if !setEqual(newOut, out[b.ID]) {
			out[b.ID] = newOut
			for _, s := range b.Succs {
				if !inWork[s.ID] {
					inWork[s.ID] = true
					work = append(work, s)
				}
			}
		}
	}
	return r
}

func setEqual(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// DefsReaching returns the blocks whose definitions of loc reach the
// entry of block b, sorted.
func (r *ReachInfo) DefsReaching(b cfg.BlockID, loc cfg.Loc) []cfg.BlockID {
	set := map[cfg.BlockID]bool{}
	for id := range r.in[b] {
		if r.sites[id].loc == loc {
			set[r.sites[id].block] = true
		}
	}
	out := make([]cfg.BlockID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
