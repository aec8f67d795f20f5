// Merger: folds adjacent runs of small segments into one larger
// segment at the next manifest generation. The fold extracts every
// function from the run in manifest order, re-deduplicates traces
// keep-first (preserving the set-global numbering, so the DCG's trace
// indices survive unchanged), re-ranks the merged hottest-first index
// through the encoder, writes the merged segment under the new
// generation's name, and atomically swaps the manifest. Readers drain
// on the old view before the folded files are deleted.

package segment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/wppfile"
)

// MergeOptions configures a Merger.
type MergeOptions struct {
	// MinRun is the smallest adjacent run worth folding; values < 2 act
	// as 2.
	MinRun int
	// MaxRun caps how many segments one fold consumes (0 = unlimited).
	MaxRun int
	// MaxBytes limits folding to segments of at most this size
	// (0 = fold any size).
	MaxBytes int64
	// Workers sizes the merged segment's encode pool (0 selects
	// GOMAXPROCS).
	Workers int
}

// Merger folds a Set's segments in the background. Methods are safe
// to call while readers query the Set concurrently; merges themselves
// serialize on the Set's swap lock.
type Merger struct {
	set  *Set
	opts MergeOptions
}

// NewMerger returns a Merger folding segments of set.
func NewMerger(set *Set, opts MergeOptions) *Merger {
	if opts.MinRun < 2 {
		opts.MinRun = 2
	}
	return &Merger{set: set, opts: opts}
}

// MergeOnce performs at most one fold: the leftmost longest adjacent
// run of eligible segments (size <= MaxBytes when set), clamped to
// MaxRun. It reports whether a fold happened. The fold is
// deterministic — the same input segments always produce a
// byte-identical merged segment.
func (m *Merger) MergeOnce(ctx context.Context) (bool, error) {
	s := m.set
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.closed.Load() {
		return false, fmt.Errorf("segment: set: %w", os.ErrClosed)
	}
	v := s.view.Load()
	if v == nil {
		return false, fmt.Errorf("segment: set: %w", os.ErrClosed)
	}
	lo, hi := m.pickRun(v.man)
	if hi-lo < m.opts.MinRun {
		return false, nil
	}
	entry, err := m.fold(ctx, v, lo, hi)
	if err != nil {
		return false, err
	}

	nm := &Manifest{Generation: v.man.Generation + 1}
	nm.Segments = append(nm.Segments, v.man.Segments[:lo]...)
	nm.Segments = append(nm.Segments, entry)
	nm.Segments = append(nm.Segments, v.man.Segments[hi:]...)
	if err := WriteManifest(s.dir, nm); err != nil {
		os.Remove(filepath.Join(s.dir, entry.Name))
		return false, err
	}
	nv, err := openView(s.dir, nm, s.opts, v)
	if err != nil {
		// The manifest on disk now names a segment we cannot open;
		// surface loudly rather than half-swap.
		return false, err
	}
	obsolete := make([]string, 0, hi-lo)
	for _, e := range v.man.Segments[lo:hi] {
		obsolete = append(obsolete, e.Name)
	}
	// swap waits for in-flight readers of the old view to drain and
	// closes the folded segments' handles; only then are their files
	// unlinked.
	s.swap(nv)
	for _, name := range obsolete {
		os.Remove(filepath.Join(s.dir, name))
	}
	return true, nil
}

// MergeAll folds repeatedly until no eligible run remains, returning
// the number of folds performed.
func (m *Merger) MergeAll(ctx context.Context) (int, error) {
	n := 0
	for {
		did, err := m.MergeOnce(ctx)
		if err != nil || !did {
			return n, err
		}
		n++
	}
}

// Run folds on a fixed interval until ctx is cancelled.
func (m *Merger) Run(ctx context.Context, interval time.Duration) error {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			if _, err := m.MergeOnce(ctx); err != nil {
				return err
			}
		}
	}
}

// pickRun chooses the leftmost longest adjacent run of eligible
// segments, clamped to MaxRun.
func (m *Merger) pickRun(man *Manifest) (lo, hi int) {
	eligible := func(e Entry) bool {
		return m.opts.MaxBytes <= 0 || e.Size <= m.opts.MaxBytes
	}
	bestLo, bestHi := 0, 0
	i := 0
	for i < len(man.Segments) {
		if !eligible(man.Segments[i]) {
			i++
			continue
		}
		j := i
		for j < len(man.Segments) && eligible(man.Segments[j]) {
			j++
		}
		if j-i > bestHi-bestLo {
			bestLo, bestHi = i, j
		}
		i = j
	}
	if m.opts.MaxRun > 0 && bestHi-bestLo > m.opts.MaxRun {
		bestHi = bestLo + m.opts.MaxRun
	}
	return bestLo, bestHi
}

// fold extracts segments [lo, hi) of v, merges them into one TWPP, and
// seals it as the next generation's segment file. It returns the new
// manifest entry; the file is written but not yet referenced by any
// manifest.
func (m *Merger) fold(ctx context.Context, v *setView, lo, hi int) (Entry, error) {
	run := v.segs[lo:hi]

	// Union of the run's functions; merged call counts decide nothing
	// here — the encoder re-ranks hottest-first from the merged
	// CallCount sums.
	maxFn := len(v.names)
	present := make(map[cfg.FuncID]bool)
	for _, cf := range run {
		for _, fn := range cf.Functions() {
			present[fn] = true
			if int(fn) >= maxFn {
				maxFn = int(fn) + 1
			}
		}
	}
	t := &core.TWPP{
		FuncNames: v.names,
		Funcs:     make([]core.FunctionTWPP, maxFn),
	}
	for f := range t.Funcs {
		t.Funcs[f].Fn = cfg.FuncID(f)
	}
	parts := make([]*core.FunctionTWPP, 0, hi-lo)
	for fn := range present {
		if err := ctx.Err(); err != nil {
			return Entry{}, err
		}
		parts = parts[:0]
		// disjoint when every owner in the run shares one non-zero
		// write session: its windows partition one unique-trace list,
		// so the merge is pure concatenation (see mergeParts).
		var ownerSess uint64
		disjoint := true
		for ri, cf := range run {
			p, err := cf.ExtractFunctionCtx(ctx, fn)
			if err != nil {
				if errors.Is(err, wppfile.ErrNoFunction) {
					continue
				}
				return Entry{}, err
			}
			sess := v.man.Segments[lo+ri].Session
			if len(parts) == 0 {
				ownerSess = sess
			}
			disjoint = disjoint && sess != 0 && sess == ownerSess
			parts = append(parts, p)
		}
		if len(parts) == 1 {
			t.Funcs[fn] = *parts[0]
		} else {
			t.Funcs[fn] = *mergeParts(fn, parts, disjoint, nil)
		}
	}

	// The run carrying the container's DCG passes it — with its
	// unchanged set-global trace indices — into the merged segment.
	carryDCG := v.dcgSeg >= lo && v.dcgSeg < hi
	if carryDCG {
		root, err := v.segs[v.dcgSeg].ReadDCG()
		if err != nil {
			return Entry{}, err
		}
		t.Root = root
	}

	return sealSegment(m.set.dir, t, v.man.Generation+1, lo, m.opts.Workers, foldSession(v.man, lo, hi), carryDCG)
}

// foldSession picks the merged segment's write session. When every
// folded input shares one non-zero session the output keeps it — the
// merged traces are still that session's windows in order, so
// disjointness with the session's remaining segments survives the
// fold. Otherwise the deduplicated output gets a fresh session id
// above every live one, forcing the full dedup path against any
// other segment.
func foldSession(man *Manifest, lo, hi int) uint64 {
	common := man.Segments[lo].Session
	for _, e := range man.Segments[lo:hi] {
		if e.Session != common {
			common = 0
			break
		}
	}
	if common != 0 {
		return common
	}
	var max uint64
	for _, e := range man.Segments {
		if e.Session > max {
			max = e.Session
		}
	}
	return max + 1
}
