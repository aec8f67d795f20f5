// Write and segment planning: how a compacted TWPP is cut into small
// v2 segment files. Write seals the first session of a new container
// and Append (append.go) every later one; both commit through the same
// routine. Functions pack into segments hottest-first; a function
// whose traces exceed the per-segment budget is split into trace
// windows across consecutive segments (a trace itself is never split).
// Because the windows partition each function's unique-trace list in
// order, the set-merged view concatenates back to exactly the
// single-file trace order — segmented extraction is byte-identical to
// the single-file container.

package segment

import (
	"fmt"
	"os"
	"path/filepath"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/wppfile"
)

// DefaultSegmentBytes is the per-segment payload budget when
// WriteOptions leaves both sizing knobs zero.
const DefaultSegmentBytes = int64(4) << 20

// WriteOptions configures Write and Append.
type WriteOptions struct {
	// SegmentBytes is the target encoded payload per segment; a
	// segment seals once its block bytes reach it. 0 selects
	// DefaultSegmentBytes (unless Segments is set). The floor is one
	// trace per segment: a single trace larger than the budget still
	// seals as one oversized segment.
	SegmentBytes int64
	// Segments, when > 0, overrides SegmentBytes with
	// ceil(total-payload / Segments): "aim for about this many
	// segments" — the benchmark knob.
	Segments int
	// Workers sizes each segment encode's worker pool (0 selects
	// GOMAXPROCS).
	Workers int
}

// Write seals t into dir as a new segmented container: it creates dir,
// refuses one that already holds a manifest, and commits t as session
// 1 of generation 1. Like Append, a failed Write removes the segment
// files it wrote and installs no manifest.
func Write(dir string, t *core.TWPP, opts WriteOptions) (*Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("segment: %s already contains a manifest", dir)
	}
	return commit(dir, t, opts, &Manifest{})
}

// resolveBudget turns the sizing knobs into a concrete per-segment
// byte budget.
func (o WriteOptions) resolveBudget(t *core.TWPP) int64 {
	if o.Segments > 0 {
		total := int64(0)
		var scratch []byte
		for _, fn := range wppfile.HotOrder(t) {
			ft := &t.Funcs[fn]
			for _, d := range ft.Dicts {
				scratch = wppfile.AppendDictionary(scratch[:0], d)
				total += int64(len(scratch))
			}
			for i, tr := range ft.Traces {
				total += int64(wppfile.TraceRecordLen(ft.DictOf[i], tr))
			}
		}
		budget := (total + int64(o.Segments) - 1) / int64(o.Segments)
		if budget < 1 {
			budget = 1
		}
		return budget
	}
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return DefaultSegmentBytes
}

// window is one function's contiguous trace range [Lo, Hi) assigned to
// a segment, with its apportioned call count.
type window struct {
	Fn        cfg.FuncID
	Lo, Hi    int
	CallCount int
}

// planSegments packs t's functions (hottest first, traces in order)
// into segments of roughly budget encoded-payload bytes each. The
// total call count of a split function is apportioned so every window
// gets at least 1 (the encoder drops zero-call functions) and the
// windows sum to the original: continuation windows get 1 call each,
// the first window the remainder. CallCount >= unique traces >=
// windows, so the remainder is always positive.
func planSegments(t *core.TWPP, budget int64) [][]window {
	var (
		plans   [][]window
		cur     []window
		curSize int64
		scratch []byte
	)
	seal := func() {
		if len(cur) > 0 {
			plans = append(plans, cur)
			cur, curSize = nil, 0
		}
	}
	for _, fn := range wppfile.HotOrder(t) {
		ft := &t.Funcs[fn]
		dictCounted := make(map[int]bool, len(ft.Dicts))
		open := false
		var wlo int
		closeWindow := func(hi int) {
			if !open {
				return
			}
			cur = append(cur, window{Fn: fn, Lo: wlo, Hi: hi})
			open = false
		}
		for i, tr := range ft.Traces {
			cost := int64(0)
			if di := ft.DictOf[i]; !dictCounted[di] {
				scratch = wppfile.AppendDictionary(scratch[:0], ft.Dicts[di])
				cost += int64(len(scratch))
				dictCounted[di] = true
			}
			cost += int64(wppfile.TraceRecordLen(ft.DictOf[i], tr))
			// Seal before adding when the segment already has content
			// and this trace would push it past the budget.
			if curSize > 0 && curSize+cost > budget {
				closeWindow(i)
				seal()
				// A dictionary shared across the split is re-emitted in
				// the new segment's window.
				clear(dictCounted)
				dictCounted[ft.DictOf[i]] = true
			}
			if !open {
				open, wlo = true, i
			}
			curSize += cost
		}
		closeWindow(len(ft.Traces))
	}
	seal()

	// Apportion call counts: count each function's windows, then give
	// continuation windows 1 call each and the first window the
	// remainder.
	nwin := make(map[cfg.FuncID]int)
	for _, p := range plans {
		for _, w := range p {
			nwin[w.Fn]++
		}
	}
	firstSeen := make(map[cfg.FuncID]bool, len(nwin))
	for pi := range plans {
		for wi := range plans[pi] {
			w := &plans[pi][wi]
			if !firstSeen[w.Fn] {
				firstSeen[w.Fn] = true
				w.CallCount = t.Funcs[w.Fn].CallCount - (nwin[w.Fn] - 1)
			} else {
				w.CallCount = 1
			}
		}
	}
	return plans
}

// buildSegmentTWPP materializes one planned segment as a standalone
// TWPP: full name table, the windows' trace slices, per-window
// dictionaries deduplicated in first-use order, and the DCG only when
// this segment carries it.
func buildSegmentTWPP(t *core.TWPP, plan []window, carryDCG bool) *core.TWPP {
	seg := &core.TWPP{
		FuncNames: t.FuncNames,
		Funcs:     make([]core.FunctionTWPP, len(t.Funcs)),
	}
	for f := range seg.Funcs {
		seg.Funcs[f].Fn = cfg.FuncID(f)
	}
	if carryDCG {
		seg.DCG = t.DCG
	}
	for _, w := range plan {
		src := &t.Funcs[w.Fn]
		dst := &seg.Funcs[w.Fn]
		dst.CallCount = w.CallCount
		dst.Traces = src.Traces[w.Lo:w.Hi:w.Hi]
		dst.DictOf = make([]int, 0, w.Hi-w.Lo)
		// Window-local dictionary list in first-use order. The source
		// Dicts are already content-unique, so index identity is
		// content identity.
		remap := make(map[int]int)
		for i := w.Lo; i < w.Hi; i++ {
			di := src.DictOf[i]
			ni, ok := remap[di]
			if !ok {
				ni = len(dst.Dicts)
				remap[di] = ni
				dst.Dicts = append(dst.Dicts, src.Dicts[di])
			}
			dst.DictOf = append(dst.DictOf, ni)
		}
	}
	return seg
}
