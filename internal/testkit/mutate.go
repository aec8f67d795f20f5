package testkit

import (
	"context"
	"fmt"
	"sort"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/diff"
	"twpp/internal/wpp"
)

// ProfileMutation selects a seeded profile perturbation for MutateProfile.
type ProfileMutation int

const (
	// MutDropPath removes one unique path (and every DCG call that
	// took it) from one function.
	MutDropPath ProfileMutation = iota
	// MutSwapRanks exchanges the call counts of a function's two
	// hottest paths, reordering its hot-path ranking without changing
	// the path set or the call count.
	MutSwapRanks
	// MutInflateCalls adds extra invocations of a function's hottest
	// path, raising its call count past the default threshold.
	MutInflateCalls
)

// String names the mutation for test labels.
func (m ProfileMutation) String() string {
	switch m {
	case MutDropPath:
		return "drop-path"
	case MutSwapRanks:
		return "swap-ranks"
	case MutInflateCalls:
		return "inflate-calls"
	default:
		return fmt.Sprintf("mutation(%d)", int(m))
	}
}

// Mutations lists every supported perturbation.
func ProfileMutations() []ProfileMutation {
	return []ProfileMutation{MutDropPath, MutSwapRanks, MutInflateCalls}
}

// MutationInfo records exactly what MutateProfile changed, in the
// vocabulary the diff engine reports in: function names and trace
// identity keys, so a test can assert the diff of original vs mutated
// contains precisely this delta and nothing else.
type MutationInfo struct {
	Kind ProfileMutation
	// Fn / Name identify the mutated function.
	Fn   cfg.FuncID
	Name string
	// Key is the identity of the affected trace (the dropped path,
	// the inflated path, or the pre-mutation hottest path for
	// MutSwapRanks); OtherKey is the second trace of a swap.
	Key      string
	OtherKey string
	// Delta is the call-count change: calls removed by MutDropPath
	// (negative) or added by MutInflateCalls (positive); 0 for
	// MutSwapRanks.
	Delta int
}

// MutateProfile returns a deep-enough copy of t with one seeded
// perturbation applied; t itself is never modified. The returned
// profile is structurally valid — it compacts, round-trips through
// every container format, and decodes cleanly — so the only
// difference a diff can observe is the injected one.
func MutateProfile(t *core.TWPP, m ProfileMutation, seed int64) (*core.TWPP, MutationInfo, error) {
	mt := cloneTWPP(t)
	switch m {
	case MutDropPath:
		return dropPath(mt, seed)
	case MutSwapRanks:
		return swapRanks(mt, seed)
	case MutInflateCalls:
		return inflateCalls(mt, seed)
	default:
		return nil, MutationInfo{}, fmt.Errorf("testkit: unknown mutation %d", int(m))
	}
}

// cloneTWPP copies everything a mutation may touch: the Funcs slice,
// each function's Traces/DictOf slices, and the DCG's columns. Trace
// and dictionary contents are shared — mutations only rearrange
// references, never edit timestamp data in place.
func cloneTWPP(t *core.TWPP) *core.TWPP {
	out := &core.TWPP{
		FuncNames: append([]string(nil), t.FuncNames...),
		Funcs:     make([]core.FunctionTWPP, len(t.Funcs)),
		DCG:       t.DCG.Clone(),
	}
	for i, f := range t.Funcs {
		out.Funcs[i] = core.FunctionTWPP{
			Fn:        f.Fn,
			Traces:    append([]*core.Trace(nil), f.Traces...),
			Dicts:     append([]wpp.Dictionary(nil), f.Dicts...),
			DictOf:    append([]int(nil), f.DictOf...),
			CallCount: f.CallCount,
		}
	}
	return out
}

// dcgUses counts DCG references per (function, trace index).
func dcgUses(t *core.TWPP) map[cfg.FuncID][]int {
	uses := make(map[cfg.FuncID][]int, len(t.Funcs))
	for i, fn := range t.DCG.Fn {
		u := uses[fn]
		if u == nil && int(fn) < len(t.Funcs) {
			u = make([]int, len(t.Funcs[fn].Traces))
			uses[fn] = u
		}
		if ti := t.DCG.Trace[i]; ti >= 0 && ti < len(u) {
			u[ti]++
		}
	}
	return uses
}

// identity resolves a trace's diff identity key, so MutationInfo
// speaks the same language as the reports under test.
func identity(t *core.TWPP, fn cfg.FuncID, idx int) (string, error) {
	key, _, err := diff.TraceIdentity(context.Background(), &t.Funcs[fn], idx)
	return key, err
}

func pick(n int, seed int64) int {
	if n <= 0 {
		return 0
	}
	// splitmix-style scramble so nearby seeds land on different
	// candidates.
	x := uint64(seed) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return int(x % uint64(n))
}

func funcDisplayName(t *core.TWPP, fn cfg.FuncID) string {
	names := t.FuncNames
	dup := make(map[string]int, len(names))
	for _, n := range names {
		dup[n]++
	}
	if int(fn) < len(names) && names[fn] != "" {
		if dup[names[fn]] > 1 {
			return fmt.Sprintf("%s#%d", names[fn], fn)
		}
		return names[fn]
	}
	return fmt.Sprintf("func%d", fn)
}

// dropPath removes one unique path. Eligible targets are traces
// referenced only by leaf, non-root DCG rows (so removing the calls
// never orphans a subtree) in functions with at least two traces (so
// the function itself survives).
func dropPath(t *core.TWPP, seed int64) (*core.TWPP, MutationInfo, error) {
	type target struct {
		fn  cfg.FuncID
		idx int
	}
	d := &t.DCG
	leaf := func(i int) bool { return i > 0 && d.End[i] == i+1 }
	leafOnly := make(map[target]bool)
	for i, fn := range d.Fn {
		tg := target{fn, d.Trace[i]}
		if !leaf(i) {
			leafOnly[tg] = false
		} else if _, seen := leafOnly[tg]; !seen {
			leafOnly[tg] = true
		}
	}
	var cands []target
	for fn := range t.Funcs {
		if len(t.Funcs[fn].Traces) < 2 {
			continue
		}
		for idx := range t.Funcs[fn].Traces {
			if leafOnly[target{cfg.FuncID(fn), idx}] {
				cands = append(cands, target{cfg.FuncID(fn), idx})
			}
		}
	}
	if len(cands) == 0 {
		return nil, MutationInfo{}, fmt.Errorf("testkit: no droppable path (every trace is root or interior)")
	}
	tg := cands[pick(len(cands), seed)]
	key, err := identity(t, tg.fn, tg.idx)
	if err != nil {
		return nil, MutationInfo{}, err
	}

	// Remove every leaf call of the target and renumber trace
	// references above the dropped index. gone[i] counts the rows
	// removed before row i, so a kept row moves to i-gone[i] and its
	// subtree end to End[i]-gone[End[i]]. Removing leaves keeps the
	// remaining positions monotonic, so the DCG stays encodable.
	n := d.Len()
	gone := make([]int, n+1)
	for i := range n {
		gone[i+1] = gone[i]
		if d.Fn[i] == tg.fn && d.Trace[i] == tg.idx && leaf(i) {
			gone[i+1]++
		}
	}
	k := 0
	for i := range n {
		if gone[i+1] > gone[i] {
			continue
		}
		ti := d.Trace[i]
		if d.Fn[i] == tg.fn && ti > tg.idx {
			ti--
		}
		d.Fn[k], d.Trace[k], d.Pos[k], d.End[k] = d.Fn[i], ti, d.Pos[i], d.End[i]-gone[d.End[i]]
		k++
	}
	d.Fn, d.Trace, d.Pos, d.End = d.Fn[:k], d.Trace[:k], d.Pos[:k], d.End[:k]
	removed := gone[n]

	f := &t.Funcs[tg.fn]
	f.Traces = append(f.Traces[:tg.idx], f.Traces[tg.idx+1:]...)
	if tg.idx < len(f.DictOf) {
		f.DictOf = append(f.DictOf[:tg.idx], f.DictOf[tg.idx+1:]...)
	}
	f.CallCount -= removed

	return t, MutationInfo{
		Kind:  MutDropPath,
		Fn:    tg.fn,
		Name:  funcDisplayName(t, tg.fn),
		Key:   key,
		Delta: -removed,
	}, nil
}

// swapRanks exchanges the DCG references of two of a function's paths
// with distinct use counts, chosen so the swap provably reorders the
// function's top-K hot-path ranking (simulated with the diff engine's
// own ordering: use count descending, identity key ascending). The
// path set and call count are untouched; only the ranking moves.
func swapRanks(t *core.TWPP, seed int64) (*core.TWPP, MutationInfo, error) {
	uses := dcgUses(t)
	type cand struct {
		fn     cfg.FuncID
		i1, i2 int // trace indices whose counts swap
	}
	topOf := func(u []int, keys []string) []string {
		order := make([]int, len(u))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			x, y := order[a], order[b]
			if u[x] != u[y] {
				return u[x] > u[y]
			}
			return keys[x] < keys[y]
		})
		k := diff.DefaultTopK
		if k > len(order) {
			k = len(order)
		}
		top := make([]string, k)
		for i := 0; i < k; i++ {
			top[i] = keys[order[i]]
		}
		return top
	}
	var cands []cand
	for fn := range t.Funcs {
		u := uses[cfg.FuncID(fn)]
		if len(u) < 2 {
			continue
		}
		keys := make([]string, len(u))
		for i := range u {
			k, err := identity(t, cfg.FuncID(fn), i)
			if err != nil {
				return nil, MutationInfo{}, err
			}
			keys[i] = k
		}
		before := topOf(u, keys)
		for i := 0; i < len(u); i++ {
			for j := i + 1; j < len(u); j++ {
				if u[i] == u[j] || u[i] == 0 || u[j] == 0 {
					continue
				}
				u2 := append([]int(nil), u...)
				u2[i], u2[j] = u2[j], u2[i]
				after := topOf(u2, keys)
				drift := len(after) != len(before)
				for p := 0; !drift && p < len(before); p++ {
					drift = before[p] != after[p]
				}
				if drift {
					cands = append(cands, cand{cfg.FuncID(fn), i, j})
				}
			}
		}
	}
	if len(cands) == 0 {
		return nil, MutationInfo{}, fmt.Errorf("testkit: no rank-swappable pair (no count swap moves the top-%d)", diff.DefaultTopK)
	}
	c := cands[pick(len(cands), seed)]
	key1, err := identity(t, c.fn, c.i1)
	if err != nil {
		return nil, MutationInfo{}, err
	}
	key2, err := identity(t, c.fn, c.i2)
	if err != nil {
		return nil, MutationInfo{}, err
	}

	for i, fn := range t.DCG.Fn {
		if fn != c.fn {
			continue
		}
		switch t.DCG.Trace[i] {
		case c.i1:
			t.DCG.Trace[i] = c.i2
		case c.i2:
			t.DCG.Trace[i] = c.i1
		}
	}

	return t, MutationInfo{
		Kind:     MutSwapRanks,
		Fn:       c.fn,
		Name:     funcDisplayName(t, c.fn),
		Key:      key1,
		OtherKey: key2,
	}, nil
}

// inflateCalls appends extra leaf invocations of one function's
// hottest path under the root, lifting the call count by >25% so the
// default 10% threshold trips.
func inflateCalls(t *core.TWPP, seed int64) (*core.TWPP, MutationInfo, error) {
	d := &t.DCG
	if d.Len() == 0 {
		return nil, MutationInfo{}, fmt.Errorf("testkit: profile has no DCG root")
	}
	uses := dcgUses(t)
	type cand struct {
		fn  cfg.FuncID
		idx int
	}
	var cands []cand
	for fn := range t.Funcs {
		if cfg.FuncID(fn) == d.Fn[0] {
			continue // inflating main would nest calls, not add them
		}
		u := uses[cfg.FuncID(fn)]
		// Pick the function's rank-1 trace under the diff engine's
		// ordering — use count descending, identity key ascending on
		// ties — so inflating it can only cement, never reorder, the
		// ranking.
		top, topKey := -1, ""
		for i, n := range u {
			if n == 0 {
				continue
			}
			key, err := identity(t, cfg.FuncID(fn), i)
			if err != nil {
				return nil, MutationInfo{}, err
			}
			if top < 0 || n > u[top] || (n == u[top] && key < topKey) {
				top, topKey = i, key
			}
		}
		if top >= 0 && t.Funcs[fn].CallCount > 0 {
			cands = append(cands, cand{cfg.FuncID(fn), top})
		}
	}
	if len(cands) == 0 {
		return nil, MutationInfo{}, fmt.Errorf("testkit: no inflatable function")
	}
	c := cands[pick(len(cands), seed)]
	key, err := identity(t, c.fn, c.idx)
	if err != nil {
		return nil, MutationInfo{}, err
	}

	f := &t.Funcs[c.fn]
	delta := f.CallCount/4 + 1
	// Repeat the root's last call site: delta-0 positions stay
	// encodable.
	pos := 0
	for r := 1; r < d.End[0]; r = d.End[r] {
		pos = d.Pos[r]
	}
	for range delta {
		d.Close(d.Open(c.fn, pos), c.idx)
	}
	d.End[0] = d.Len()
	f.CallCount += delta

	return t, MutationInfo{
		Kind:  MutInflateCalls,
		Fn:    c.fn,
		Name:  funcDisplayName(t, c.fn),
		Key:   key,
		Delta: delta,
	}, nil
}
