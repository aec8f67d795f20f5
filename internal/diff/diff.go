// Package diff compares two compacted TWPP containers — any mix of
// format v1, v2, and segmented directories, over any storage backend —
// and reports the deltas an optimizer consumer cares about: paths that
// appeared or disappeared (matched by trace identity, never by index),
// hot-path rank drift within a configurable top-K window, and
// call-count / compaction-factor regressions beyond configurable
// relative thresholds.
//
// Everything the diff needs is queryable from the compacted form:
// per-function unique traces, dictionaries, call counts, and the
// dynamic call graph. The engine never reconstructs the raw WPP, so
// diffing two containers costs one extraction pass per side.
//
// Two invariants anchor the delta model:
//
//   - Identity, not index. A trace's identity is the hash of its fully
//     dictionary-expanded block sequence (TraceIdentity), so two
//     containers that number their unique traces differently — or
//     split them differently across segments — still match path for
//     path. Derived quantities (compaction factor, rank order) are
//     computed from decoded structures only, never from encoded byte
//     lengths, which keeps diff(A, A') empty whenever A and A' hold
//     identical content in different layouts (v1 vs v2 vs segmented,
//     any backend).
//
//   - Stable snapshots. A summarize pass brackets its reads with the
//     container's content hash and retries if the hash moved, so a
//     live segmented mount being refreshed or merged underneath the
//     diff can never contribute a mixed-generation view.
package diff

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/segment"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// Default thresholds. The zero Options disables nothing and checks
// nothing loosely: callers wanting the CI defaults start from
// DefaultOptions and override.
const (
	// DefaultTopK is the hot-path rank window compared for drift.
	DefaultTopK = 3
	// DefaultCallThreshold flags a function whose call count moved by
	// more than this fraction in either direction.
	DefaultCallThreshold = 0.10
	// DefaultFactorThreshold flags a function whose compaction factor
	// dropped by more than this fraction.
	DefaultFactorThreshold = 0.25
)

// Options configures a diff. Thresholds are taken literally: 0 flags
// any change, negative disables the check; TopK <= 0 disables rank
// comparison.
type Options struct {
	// TopK is how many leading hot paths (by per-trace use count) are
	// compared for rank drift.
	TopK int
	// CallThreshold is the relative call-count change (either
	// direction) beyond which a matched function is a regression.
	CallThreshold float64
	// FactorThreshold is the relative compaction-factor drop beyond
	// which a matched function is a regression.
	FactorThreshold float64
}

// DefaultOptions returns the CI defaults documented above.
func DefaultOptions() Options {
	return Options{
		TopK:            DefaultTopK,
		CallThreshold:   DefaultCallThreshold,
		FactorThreshold: DefaultFactorThreshold,
	}
}

// Containers diffs two opened containers. Labels name the sides in the
// report (file paths for the CLI, mount names for the server). Decode
// failures keep their structured error classes, so a corrupt input
// maps to exit 3 / HTTP 422 downstream — never a panic.
func Containers(ctx context.Context, labelA, labelB string, a, b wppfile.Container, opts Options) (*Report, error) {
	sa, err := summarize(ctx, labelA, a)
	if err != nil {
		return nil, fmt.Errorf("diff side a (%s): %w", labelA, err)
	}
	sb, err := summarize(ctx, labelB, b)
	if err != nil {
		return nil, fmt.Errorf("diff side b (%s): %w", labelB, err)
	}
	return compare(sa, sb, opts), nil
}

// Files opens both paths (single compacted files or segmented
// container directories, auto-detected) and diffs them.
func Files(ctx context.Context, pathA, pathB string, open wppfile.OpenOptions, opts Options) (*Report, error) {
	a, err := openContainer(pathA, open)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	b, err := openContainer(pathB, open)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	return Containers(ctx, pathA, pathB, a, b, opts)
}

func openContainer(path string, open wppfile.OpenOptions) (wppfile.Container, error) {
	if segment.IsSegmented(path) {
		return segment.Open(path, open)
	}
	return wppfile.OpenCompactedOptions(path, open)
}

// identityPoll is how many expanded blocks TraceIdentity hashes
// between two polls of its context.
const identityPoll = 1 << 16

// TraceIdentity returns the content identity of one unique trace of a
// decoded function block: the 64-bit FNV-1a hash (16 hex digits) of
// its fully dictionary-expanded block sequence, plus the expanded
// length. Identity is what lets a diff match traces across containers
// whose trace indices, dictionaries, or segment layouts differ. It
// hashes chain by chain instead of calling FunctionTWPP.Expand: diff
// has no expansion bound, and a materialized expansion would let a
// small hostile container allocate trace length × chain length. The
// expansion can still be that long, so ctx is polled once per
// identityPoll expanded blocks.
func TraceIdentity(ctx context.Context, ft *core.FunctionTWPP, idx int) (key string, expLen int, err error) {
	dict, err := ft.Dict(idx)
	if err != nil {
		return "", 0, err
	}
	path, err := ft.Traces[idx].ToPath()
	if err != nil {
		return "", 0, err
	}
	h := wpp.HashStart
	var one [1]cfg.BlockID
	for _, id := range path {
		chain, ok := dict[id]
		if !ok {
			one[0] = id
			chain = one[:]
		}
		for _, b := range chain {
			h = wpp.Mix(h, uint32(b))
			if expLen++; expLen%identityPoll == 0 {
				if err := ctx.Err(); err != nil {
					return "", 0, err
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h), expLen, nil
}

// pathStat is one unique trace summarized for diffing.
type pathStat struct {
	key    string
	expLen int
	uses   int
}

// funcSummary is everything the comparator needs about one function on
// one side.
type funcSummary struct {
	name   string
	calls  int
	factor float64
	paths  map[string]pathStat
	rank   []string // all trace keys, hottest first
}

type sideSummary struct {
	side  Side
	funcs map[string]*funcSummary
}

// maxSnapshotRetries bounds the content-hash stability loop. Each
// retry means a refresh or merge swapped the container's generation
// mid-summarize; dozens in a row would mean a pathological writer.
const maxSnapshotRetries = 64

// summarize builds one side's summary from a consistent snapshot: the
// container's content hash is read before and after the pass, and the
// pass retries whenever the hash moved, so a mount refreshed or merged
// mid-flight never yields a mixed-generation summary. Containers
// without a content hash (v1) cannot change underneath an open handle
// and take a single pass.
func summarize(ctx context.Context, label string, c wppfile.Container) (*sideSummary, error) {
	for attempt := 0; attempt < maxSnapshotRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h0, ok0 := c.ContentHash()
		funcs, n, err := summarizeOnce(ctx, c)
		h1, ok1 := c.ContentHash()
		moved := ok0 && ok1 && h0 != h1
		if moved {
			continue // the view swapped mid-pass; try again on the settled one
		}
		if err != nil {
			return nil, err
		}
		side := Side{Label: label, Format: c.FormatVersion(), Functions: n}
		if ok1 {
			side.ContentHash = fmt.Sprintf("%016x", h1)
		}
		return &sideSummary{side: side, funcs: funcs}, nil
	}
	return nil, fmt.Errorf("diff: container %q kept changing underneath the diff", label)
}

func summarizeOnce(ctx context.Context, c wppfile.Container) (map[string]*funcSummary, int, error) {
	fns := c.Functions()
	names := c.Names()
	dup := make(map[string]int, len(names))
	for _, n := range names {
		dup[n]++
	}

	fts := make(map[cfg.FuncID]*core.FunctionTWPP, len(fns))
	for _, fn := range fns {
		ft, err := c.ExtractFunctionCtx(ctx, fn)
		if err != nil {
			return nil, 0, err
		}
		fts[fn] = ft
	}
	dcg, err := c.ReadDCG()
	if err != nil {
		return nil, 0, err
	}
	uses, err := useCounts(&dcg, fts)
	if err != nil {
		return nil, 0, err
	}

	out := make(map[string]*funcSummary, len(fns))
	for _, fn := range fns {
		ft := fts[fn]
		fs := &funcSummary{
			name:  funcName(names, dup, fn),
			calls: c.CallCount(fn),
			paths: make(map[string]pathStat, len(ft.Traces)),
		}
		words := 0
		var expanded int64
		u := uses[fn]
		for i := range ft.Traces {
			key, el, err := TraceIdentity(ctx, ft, i)
			if err != nil {
				return nil, 0, err
			}
			if _, ok := fs.paths[key]; ok {
				return nil, 0, encoding.Errf(encoding.CodeCorrupt, 0,
					"diff: function %d holds two traces with identity %s", fn, key)
			}
			n := 0
			if i < len(u) {
				n = u[i]
			}
			fs.paths[key] = pathStat{key: key, expLen: el, uses: n}
			words += ft.Traces[i].Words()
			expanded += int64(n) * int64(el)
		}
		for _, d := range ft.Dicts {
			words += d.Words()
		}
		if words > 0 {
			fs.factor = float64(expanded) / float64(words)
		}
		fs.rank = rankKeys(fs.paths)
		out[fs.name] = fs
	}
	return out, len(fns), nil
}

// useCounts counts invocations per (function, unique trace), one DCG
// row at a time.
func useCounts(d *trace.DCG, fts map[cfg.FuncID]*core.FunctionTWPP) (map[cfg.FuncID][]int, error) {
	out := make(map[cfg.FuncID][]int, len(fts))
	for i, fn := range d.Fn {
		ft, ok := fts[fn]
		if ti := d.Trace[i]; !ok || ti < 0 || ti >= len(ft.Traces) {
			return nil, encoding.Errf(encoding.CodeCorrupt, 0,
				"diff: DCG references function %d trace %d, not in container", fn, ti)
		}
		u := out[fn]
		if u == nil {
			u = make([]int, len(ft.Traces))
			out[fn] = u
		}
		u[d.Trace[i]]++
	}
	return out, nil
}

// rankKeys orders a function's trace keys hottest first, ties broken
// by key so the order is stable across containers.
func rankKeys(paths map[string]pathStat) []string {
	keys := make([]string, 0, len(paths))
	for k := range paths {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := paths[keys[i]], paths[keys[j]]
		if a.uses != b.uses {
			return a.uses > b.uses
		}
		return a.key < b.key
	})
	return keys
}

// funcName resolves a function's display name. Matching across sides
// is by name (program versions may renumber ids); names duplicated
// within one side's table get an #id suffix so the mapping stays
// injective and deterministic.
func funcName(names []string, dup map[string]int, fn cfg.FuncID) string {
	if int(fn) < len(names) && names[fn] != "" {
		if dup[names[fn]] > 1 {
			return fmt.Sprintf("%s#%d", names[fn], fn)
		}
		return names[fn]
	}
	return fmt.Sprintf("func%d", fn)
}

// compare builds the delta report from two side summaries.
func compare(a, b *sideSummary, opts Options) *Report {
	r := &Report{
		A:               a.side,
		B:               b.side,
		TopK:            opts.TopK,
		CallThreshold:   opts.CallThreshold,
		FactorThreshold: opts.FactorThreshold,
		Functions:       []FuncDelta{},
	}
	names := make([]string, 0, len(a.funcs)+len(b.funcs))
	for n := range a.funcs {
		names = append(names, n)
	}
	for n := range b.funcs {
		if _, ok := a.funcs[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	for _, name := range names {
		fa, fb := a.funcs[name], b.funcs[name]
		switch {
		case fa == nil:
			r.Functions = append(r.Functions, FuncDelta{
				Name:        name,
				Status:      StatusAdded,
				CallsB:      fb.calls,
				FactorB:     fb.factor,
				Appeared:    allPaths(fb),
				Disappeared: []PathInfo{},
				RankA:       []string{},
				RankB:       topK(fb.rank, opts.TopK),
			})
		case fb == nil:
			r.Functions = append(r.Functions, FuncDelta{
				Name:        name,
				Status:      StatusRemoved,
				CallsA:      fa.calls,
				FactorA:     fa.factor,
				Appeared:    []PathInfo{},
				Disappeared: allPaths(fa),
				RankA:       topK(fa.rank, opts.TopK),
				RankB:       []string{},
			})
		default:
			appeared := onlyIn(fb, fa)
			disappeared := onlyIn(fa, fb)
			ra, rb := topK(fa.rank, opts.TopK), topK(fb.rank, opts.TopK)
			drift := !slices.Equal(ra, rb)
			if fa.calls == fb.calls && fa.factor == fb.factor &&
				len(appeared) == 0 && len(disappeared) == 0 && !drift {
				continue // identical: no delta row
			}
			r.Functions = append(r.Functions, FuncDelta{
				Name:        name,
				Status:      StatusChanged,
				CallsA:      fa.calls,
				CallsB:      fb.calls,
				FactorA:     fa.factor,
				FactorB:     fb.factor,
				Appeared:    appeared,
				Disappeared: disappeared,
				RankA:       ra,
				RankB:       rb,
				RankDrift:   drift,
			})
		}
	}
	r.Regression, r.Regressions = evaluate(r.Functions, opts)
	return r
}

// onlyIn lists the paths present in x but not in y, sorted by key.
func onlyIn(x, y *funcSummary) []PathInfo {
	out := []PathInfo{}
	for k, p := range x.paths {
		if _, ok := y.paths[k]; !ok {
			out = append(out, PathInfo{Key: p.key, Len: p.expLen, Calls: p.uses})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// allPaths lists every path of a side, sorted by key.
func allPaths(f *funcSummary) []PathInfo {
	out := []PathInfo{}
	for _, p := range f.paths {
		out = append(out, PathInfo{Key: p.key, Len: p.expLen, Calls: p.uses})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func topK(rank []string, k int) []string {
	if k <= 0 {
		return []string{}
	}
	if k > len(rank) {
		k = len(rank)
	}
	out := make([]string, k)
	copy(out, rank[:k])
	return out
}
