package slicing

import (
	"fmt"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/wpp"
)

// Interprocedural, instance-precise dynamic slicing over a whole
// TWPP. The intraprocedural Approach 3 is extended across the dynamic
// call graph in both directions (the extension §4.2 of the paper
// sketches: "analyzing path traces of multiple functions in concert"):
//
//   - down: when a sliced statement instance contains a call, the
//     callee invocation that executed there joins the slice through
//     its return-value computation, and — because arrays are passed
//     by reference — through its array stores when an array location
//     fed the slice;
//
//   - up: when a sliced use's value predates the frame (a parameter,
//     or an array passed in), the slice continues at the caller's
//     call-site instance, whose uses include the argument
//     expressions.

// SliceSite is one sliced statement: a block of a specific function.
type SliceSite struct {
	Fn    cfg.FuncID
	Block cfg.BlockID
}

// InterSlice is the result of an interprocedural slice.
type InterSlice struct {
	// Sites lists the sliced (function, block) pairs, sorted by
	// function then block.
	Sites []SliceSite
	// Instances counts the distinct statement instances visited.
	Instances int
}

// Contains reports membership.
func (s *InterSlice) Contains(fn cfg.FuncID, b cfg.BlockID) bool {
	for _, site := range s.Sites {
		if site.Fn == fn && site.Block == b {
			return true
		}
	}
	return false
}

// frameKey caches per-unique-trace replay data: two call instances
// sharing (function, trace index) execute the same block sequence, so
// their intra-frame dependence structure is identical.
type frameKey struct {
	fn  cfg.FuncID
	idx int
}

// frameData is the replayed dependence information of one unique
// trace.
type frameData struct {
	path wpp.PathTrace
	// dataDepAt[t-1] lists, per use of the block at time t, the
	// defining instance time (0 = predates the frame).
	dataDepAt [][]frameDep
	// ctrlDepAt[t-1] is the controlling branch instance (0 = none).
	ctrlDepAt []core.Timestamp
	// retTimes lists the times at which return-carrying blocks (Ret
	// with a value) executed, ascending.
	retTimes []core.Timestamp
}

type frameDep struct {
	loc  cfg.Loc
	defT core.Timestamp
}

// InterSlicer prepares shared state for interprocedural slicing. It
// names a call instance by its row in the TWPP's dynamic call graph.
type InterSlicer struct {
	Prog *cfg.Program
	TW   *core.TWPP

	parents []int // each call's caller row, -1 for the root
	frames  map[frameKey]*frameData
	// uses/defs/ctrl are static per-function tables.
	uses map[cfg.FuncID]map[cfg.BlockID][]cfg.Loc
	defs map[cfg.FuncID]map[cfg.BlockID][]cfg.Loc
	ctrl map[cfg.FuncID]map[cfg.BlockID][]cfg.BlockID
	// arrayWriter[f] reports whether f (transitively) stores to any
	// array.
	arrayWriter map[cfg.FuncID]bool
}

// NewInter builds an interprocedural slicer for the program and its
// TWPP.
func NewInter(prog *cfg.Program, tw *core.TWPP) *InterSlicer {
	s := &InterSlicer{
		Prog:        prog,
		TW:          tw,
		parents:     tw.DCG.Parents(),
		frames:      make(map[frameKey]*frameData),
		uses:        make(map[cfg.FuncID]map[cfg.BlockID][]cfg.Loc),
		defs:        make(map[cfg.FuncID]map[cfg.BlockID][]cfg.Loc),
		ctrl:        make(map[cfg.FuncID]map[cfg.BlockID][]cfg.BlockID),
		arrayWriter: make(map[cfg.FuncID]bool),
	}
	for f, g := range prog.Graphs {
		fid := cfg.FuncID(f)
		s.uses[fid] = make(map[cfg.BlockID][]cfg.Loc, len(g.Blocks))
		s.defs[fid] = make(map[cfg.BlockID][]cfg.Loc, len(g.Blocks))
		for _, b := range g.Blocks {
			eff := cfg.BlockEffects(b)
			s.uses[fid][b.ID] = eff.Uses
			s.defs[fid][b.ID] = eff.Defs
		}
		s.ctrl[fid] = cfg.ControlDeps(g)
	}
	s.computeArrayWriters()
	return s
}

// computeArrayWriters runs the transitive "may store to an array"
// summary over the static call graph.
func (s *InterSlicer) computeArrayWriters() {
	calls := make(map[cfg.FuncID][]cfg.FuncID)
	for f, g := range s.Prog.Graphs {
		fid := cfg.FuncID(f)
		for _, b := range g.Blocks {
			eff := cfg.BlockEffects(b)
			for _, d := range eff.Defs {
				if d.Array {
					s.arrayWriter[fid] = true
				}
			}
			for _, callee := range eff.Calls {
				if fd := s.Prog.Src.Func(callee); fd != nil {
					calls[fid] = append(calls[fid], cfg.FuncID(fd.Index))
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for f, cs := range calls {
			if s.arrayWriter[f] {
				continue
			}
			for _, c := range cs {
				if s.arrayWriter[c] {
					s.arrayWriter[f] = true
					changed = true
					break
				}
			}
		}
	}
}

// frame returns (building and caching) the replayed dependence data of
// a call's unique trace.
func (s *InterSlicer) frame(node int) (*frameData, error) {
	key := frameKey{fn: s.TW.DCG.Fn[node], idx: s.TW.DCG.Trace[node]}
	if fd, ok := s.frames[key]; ok {
		return fd, nil
	}
	path, err := s.TW.Funcs[key.fn].Expand(key.idx)
	if err != nil {
		return nil, err
	}
	fd := &frameData{
		path:      path,
		dataDepAt: make([][]frameDep, len(path)),
		ctrlDepAt: make([]core.Timestamp, len(path)),
	}
	graph := s.Prog.Graph(key.fn)
	// Array locations visible in this function: a call to an
	// array-writing callee must count as defining them (arrays are
	// by-reference, so callee stores reach the caller's arrays; the
	// standard field- and alias-insensitive approximation).
	arrLocs := map[cfg.Loc]bool{}
	writerCallBlock := map[cfg.BlockID]bool{}
	for _, b := range graph.Blocks {
		eff := cfg.BlockEffects(b)
		for _, u := range eff.Uses {
			if u.Array {
				arrLocs[u] = true
			}
		}
		for _, d := range eff.Defs {
			if d.Array {
				arrLocs[d] = true
			}
		}
		for _, callee := range eff.Calls {
			if fdcl := s.Prog.Src.Func(callee); fdcl != nil && s.arrayWriter[cfg.FuncID(fdcl.Index)] {
				writerCallBlock[b.ID] = true
			}
		}
	}

	lastDef := make(map[cfg.Loc]core.Timestamp)
	lastExec := make(map[cfg.BlockID]core.Timestamp)
	for i, b := range path {
		t := core.Timestamp(i + 1)
		for _, u := range s.uses[key.fn][b] {
			fd.dataDepAt[i] = append(fd.dataDepAt[i], frameDep{loc: u, defT: lastDef[u]})
		}
		var ctl core.Timestamp
		for _, cd := range s.ctrl[key.fn][b] {
			if le := lastExec[cd]; le > ctl && le < t {
				ctl = le
			}
		}
		fd.ctrlDepAt[i] = ctl
		for _, d := range s.defs[key.fn][b] {
			lastDef[d] = t
		}
		if writerCallBlock[b] {
			for l := range arrLocs {
				lastDef[l] = t
			}
		}
		lastExec[b] = t
		if blk := graph.Block(b); blk != nil {
			if r, ok := blk.Term.(*cfg.Ret); ok && r.Value != nil {
				fd.retTimes = append(fd.retTimes, t)
			}
		}
	}
	s.frames[key] = fd
	return fd, nil
}

// instance identifies one statement execution across the WPP: a call
// row and a timestamp in its trace.
type instanceKey struct {
	node int
	t    core.Timestamp
}

// Slice computes the interprocedural instance-precise slice from the
// given criterion instance inside the given call (a DCG row).
// Criterion semantics match Approach3: Time 0 selects the block's last
// execution in that call; Vars default to the block's uses.
func (s *InterSlicer) Slice(node int, crit Criterion) (*InterSlice, error) {
	if node < 0 || node >= s.TW.DCG.Len() {
		return nil, fmt.Errorf("slicing: call %d is not part of this TWPP's DCG (%d calls)", node, s.TW.DCG.Len())
	}
	fd, err := s.frame(node)
	if err != nil {
		return nil, err
	}
	// Resolve the criterion time.
	t := crit.Time
	if t == 0 {
		for i := len(fd.path) - 1; i >= 0; i-- {
			if fd.path[i] == crit.Block {
				t = core.Timestamp(i + 1)
				break
			}
		}
	}
	if t == 0 || int(t) > len(fd.path) || fd.path[t-1] != crit.Block {
		return nil, fmt.Errorf("slicing: block %d did not execute at time %d in this call", crit.Block, t)
	}

	sites := map[SliceSite]bool{{Fn: s.TW.DCG.Fn[node], Block: crit.Block}: true}
	seen := map[instanceKey]bool{}
	var work []instanceKey

	push := func(n int, ti core.Timestamp) {
		if ti <= 0 {
			return
		}
		k := instanceKey{node: n, t: ti}
		if seen[k] {
			return
		}
		seen[k] = true
		work = append(work, k)
	}

	// visitDeps enqueues the dependences of instance (n, ti),
	// restricted to locs when locs is non-nil.
	visitDeps := func(n int, nfd *frameData, ti core.Timestamp, locs map[cfg.Loc]bool) error {
		i := int(ti - 1)
		for _, dep := range nfd.dataDepAt[i] {
			if locs != nil && !locs[dep.loc] {
				continue
			}
			if dep.defT > 0 {
				push(n, dep.defT)
				// If the defining instance's block made calls that may
				// have produced the value (array stores by reference),
				// the call resolution happens when that instance is
				// processed.
				continue
			}
			// Value predates the frame: climb to the caller.
			if err := s.climb(n, push, sites); err != nil {
				return err
			}
		}
		push(n, nfd.ctrlDepAt[i])
		return nil
	}

	// Seed.
	critLocs := map[cfg.Loc]bool{}
	for _, v := range crit.Vars {
		critLocs[v] = true
	}
	if len(critLocs) == 0 {
		critLocs = nil
	}
	if err := visitDeps(node, fd, t, critLocs); err != nil {
		return nil, err
	}
	// The criterion block itself may contain calls feeding it.
	if err := s.descend(node, fd, t, push, sites); err != nil {
		return nil, err
	}

	instances := 1
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		instances++
		nfd, err := s.frame(k.node)
		if err != nil {
			return nil, err
		}
		blk := nfd.path[k.t-1]
		sites[SliceSite{Fn: s.TW.DCG.Fn[k.node], Block: blk}] = true
		if err := visitDeps(k.node, nfd, k.t, nil); err != nil {
			return nil, err
		}
		if err := s.descend(k.node, nfd, k.t, push, sites); err != nil {
			return nil, err
		}
	}

	out := &InterSlice{Instances: instances}
	for site := range sites {
		out.Sites = append(out.Sites, site)
	}
	sortSites(out.Sites)
	return out, nil
}

// descend walks into callees invoked by the instance (node, t): the
// callee's return-value computation joins the slice (and its own
// dependences follow via the worklist).
func (s *InterSlicer) descend(node int, fd *frameData, t core.Timestamp, push func(int, core.Timestamp), sites map[SliceSite]bool) error {
	d := &s.TW.DCG
	for kid := node + 1; kid < d.End[node]; kid = d.End[kid] {
		if d.Pos[kid] != int(t) {
			continue
		}
		kfd, err := s.frame(kid)
		if err != nil {
			return err
		}
		// The callee contributes through its returned value: slice
		// from the last return-carrying instance.
		if n := len(kfd.retTimes); n > 0 {
			push(kid, kfd.retTimes[n-1])
		}
		// And through array stores, when the callee may write arrays
		// (by-reference effects): every array-store instance can feed
		// the caller, so include the callee's store instances.
		if kfn := d.Fn[kid]; s.arrayWriter[kfn] {
			for i, b := range kfd.path {
				for _, def := range s.defs[kfn][b] {
					if def.Array {
						push(kid, core.Timestamp(i+1))
						break
					}
				}
			}
		}
	}
	return nil
}

// climb continues a dependence whose value predates the frame (a
// parameter, or an array passed in) at the caller's call-site
// instance, whose uses include the call's argument expressions.
func (s *InterSlicer) climb(node int, push func(int, core.Timestamp), sites map[SliceSite]bool) error {
	parent := s.parents[node]
	if parent < 0 {
		return nil // main's entry: input or undefined, nothing to add
	}
	pos := s.TW.DCG.Pos[node]
	if pos == 0 {
		// Called before the parent executed any block (impossible for
		// traced programs whose entry block always runs first).
		return nil
	}
	pfd, err := s.frame(parent)
	if err != nil {
		return err
	}
	sites[SliceSite{Fn: s.TW.DCG.Fn[parent], Block: pfd.path[pos-1]}] = true
	push(parent, core.Timestamp(pos))
	return nil
}

func sortSites(sites []SliceSite) {
	for i := 1; i < len(sites); i++ {
		for j := i; j > 0; j-- {
			a, b := sites[j-1], sites[j]
			if a.Fn < b.Fn || (a.Fn == b.Fn && a.Block <= b.Block) {
				break
			}
			sites[j-1], sites[j] = sites[j], sites[j-1]
		}
	}
}
