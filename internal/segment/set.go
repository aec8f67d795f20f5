// Set: the read side of a segmented container. A Set holds an
// immutable view (the decoded manifest plus one opened CompactedFile
// per live segment) behind an atomic pointer; queries acquire the
// view with a reference count, so a concurrent manifest swap (merge,
// refresh) installs the new generation without blocking readers and
// retires the old generation's handles only after the last in-flight
// query drains. Every query runs against exactly one view — one
// generation, never a mix.

package segment

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/trace"
	"twpp/internal/wppfile"
)

// Set is an opened segmented container. It implements
// wppfile.Container and is safe for concurrent use; see the package
// comment for the swap protocol.
type Set struct {
	dir  string
	opts wppfile.OpenOptions

	view   atomic.Pointer[setView]
	swapMu sync.Mutex
	closed atomic.Bool
}

var _ wppfile.Container = (*Set)(nil)

// setView is one immutable generation of the container: the manifest,
// the opened segments in manifest order, and the merged per-function
// index.
type setView struct {
	man   *Manifest
	segs  []*wppfile.CompactedFile
	index map[cfg.FuncID]*fnInfo
	// order is the merged hottest-first ranking: summed call count
	// descending, id ascending — the same rule hotOrder applies inside
	// each segment.
	order  []cfg.FuncID
	names  []string
	dcgSeg int
	hash   uint64
	// refs counts in-flight queries; the swapper waits for it to reach
	// zero before closing handles absent from the next view.
	refs atomic.Int64
}

// fnInfo is one function's merged index entry.
type fnInfo struct {
	calls    int
	blockLen int
	// owners lists the segments holding a trace window of the
	// function, in manifest order — the order whose concatenation is
	// the set-global trace numbering.
	owners []int
	// session is the first owner's write session; disjoint reports
	// that every owner shares that one non-zero session. Windows of a
	// single session partition one compaction's unique (trace, dict)
	// list — the pair determines the original path, so no duplicates
	// can exist within a session — and the spanning merge degenerates
	// to concatenation with no per-trace dedup hashing.
	session  uint64
	disjoint bool
}

// Open opens the segmented container in dir. opts applies to every
// segment (each gets its own decode cache of opts.CacheEntries).
func Open(dir string, opts wppfile.OpenOptions) (*Set, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	v, err := openView(dir, man, opts, nil)
	if err != nil {
		return nil, err
	}
	s := &Set{dir: dir, opts: opts}
	s.view.Store(v)
	return s, nil
}

// openView opens a manifest's segments, reusing handles from a prior
// view when the (name, hash) pair is unchanged. On error every
// newly-opened handle is closed; reused handles stay open (the prior
// view still owns them).
func openView(dir string, man *Manifest, opts wppfile.OpenOptions, prior *setView) (*setView, error) {
	if len(man.Segments) == 0 {
		return nil, encoding.Errf(encoding.CodeCorrupt, 0, "segment: manifest lists no segments")
	}
	reuse := make(map[string]*wppfile.CompactedFile)
	if prior != nil {
		for i, e := range prior.man.Segments {
			reuse[e.Name] = prior.segs[i]
		}
	}
	v := &setView{man: man, dcgSeg: man.DCGIndex()}
	var opened []*wppfile.CompactedFile
	fail := func(err error) (*setView, error) {
		for _, cf := range opened {
			cf.Close()
		}
		return nil, err
	}
	for _, e := range man.Segments {
		if cf, ok := reuse[e.Name]; ok {
			if h, hok := cf.ContentHash(); hok && h == e.Hash {
				v.segs = append(v.segs, cf)
				continue
			}
		}
		cf, err := wppfile.OpenCompactedOptions(filepath.Join(dir, e.Name), opts)
		if err != nil {
			return fail(err)
		}
		opened = append(opened, cf)
		h, ok := cf.ContentHash()
		if !ok || h != e.Hash {
			return fail(encoding.Errf(encoding.CodeChecksum, 0,
				"segment: %s content hash %016x does not match manifest %016x", e.Name, h, e.Hash))
		}
		v.segs = append(v.segs, cf)
	}

	// Merged per-function index: owners in manifest order, call counts
	// and block lengths summed across windows.
	v.index = make(map[cfg.FuncID]*fnInfo)
	for si, cf := range v.segs {
		if n := cf.Names(); len(n) > len(v.names) {
			v.names = n
		}
		sess := man.Segments[si].Session
		for _, fn := range cf.Functions() {
			info := v.index[fn]
			if info == nil {
				info = &fnInfo{session: sess, disjoint: sess != 0}
				v.index[fn] = info
			} else if sess != info.session {
				info.disjoint = false
			}
			info.calls += cf.CallCount(fn)
			info.blockLen += cf.BlockLength(fn)
			info.owners = append(info.owners, si)
		}
	}
	v.order = make([]cfg.FuncID, 0, len(v.index))
	for fn := range v.index {
		v.order = append(v.order, fn)
	}
	sort.Slice(v.order, func(i, j int) bool {
		a, b := v.index[v.order[i]], v.index[v.order[j]]
		if a.calls != b.calls {
			return a.calls > b.calls
		}
		return v.order[i] < v.order[j]
	})

	// Container identity: generation plus every live segment's content
	// hash — changes on every swap, so ETags and response-cache keys
	// derived from it invalidate on merge.
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	put(man.Generation)
	for _, e := range man.Segments {
		put(e.Hash)
	}
	v.hash = h.Sum64()
	return v, nil
}

// acquire pins the current view for one query.
func (s *Set) acquire() (*setView, error) {
	for {
		if s.closed.Load() {
			return nil, fmt.Errorf("segment: set: %w", os.ErrClosed)
		}
		v := s.view.Load()
		if v == nil {
			return nil, fmt.Errorf("segment: set: %w", os.ErrClosed)
		}
		v.refs.Add(1)
		if s.view.Load() == v {
			return v, nil
		}
		// A swap raced in between load and pin; retry on the new view.
		v.refs.Add(-1)
	}
}

func (v *setView) release() { v.refs.Add(-1) }

// swap installs nv, waits for the old view's queries to drain, and
// closes every handle the new view does not share. Callers hold
// swapMu.
func (s *Set) swap(nv *setView) {
	old := s.view.Load()
	s.view.Store(nv)
	if old == nil {
		return
	}
	for old.refs.Load() != 0 {
		runtime.Gosched()
	}
	live := make(map[*wppfile.CompactedFile]bool)
	if nv != nil {
		for _, cf := range nv.segs {
			live[cf] = true
		}
	}
	for _, cf := range old.segs {
		if !live[cf] {
			cf.Close()
		}
	}
}

// Refresh re-reads the manifest from disk and, when its generation
// advanced, atomically swaps the new view in. It reports whether a
// swap happened — the cross-process path for picking up merges done
// elsewhere; in-process merges swap directly.
func (s *Set) Refresh() (bool, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.closed.Load() {
		return false, fmt.Errorf("segment: set: %w", os.ErrClosed)
	}
	man, err := ReadManifest(s.dir)
	if err != nil {
		return false, err
	}
	cur := s.view.Load()
	if cur != nil && man.Generation == cur.man.Generation {
		return false, nil
	}
	nv, err := openView(s.dir, man, s.opts, cur)
	if err != nil {
		return false, err
	}
	s.swap(nv)
	return true, nil
}

// Close retires the current view and closes every segment. Queries
// started after Close fail with os.ErrClosed; in-flight queries
// drain first.
func (s *Set) Close() error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.closed.Swap(true) {
		return nil
	}
	old := s.view.Load()
	s.view.Store(nil)
	if old == nil {
		return nil
	}
	for old.refs.Load() != 0 {
		runtime.Gosched()
	}
	var first error
	for _, cf := range old.segs {
		if err := cf.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Dir returns the container directory.
func (s *Set) Dir() string { return s.dir }

// Generation reports the live manifest generation.
func (s *Set) Generation() uint64 {
	if v := s.view.Load(); v != nil {
		return v.man.Generation
	}
	return 0
}

// SegmentCount reports the number of live segments.
func (s *Set) SegmentCount() int {
	if v := s.view.Load(); v != nil {
		return len(v.segs)
	}
	return 0
}

// Functions returns the merged function ids, hottest first (summed
// call count descending, id ascending).
func (s *Set) Functions() []cfg.FuncID {
	v := s.view.Load()
	if v == nil {
		return nil
	}
	out := make([]cfg.FuncID, len(v.order))
	copy(out, v.order)
	return out
}

// CallCount reports fn's total invocation count across segments.
func (s *Set) CallCount(fn cfg.FuncID) int {
	if v := s.view.Load(); v != nil {
		if info := v.index[fn]; info != nil {
			return info.calls
		}
	}
	return 0
}

// BlockLength reports the summed encoded size of fn's blocks across
// segments.
func (s *Set) BlockLength(fn cfg.FuncID) int {
	if v := s.view.Load(); v != nil {
		if info := v.index[fn]; info != nil {
			return info.blockLen
		}
	}
	return 0
}

// Names returns the function name table.
func (s *Set) Names() []string {
	if v := s.view.Load(); v != nil {
		return v.names
	}
	return nil
}

// FormatVersion reports FormatV2: every segment is a v2 container.
func (s *Set) FormatVersion() int { return wppfile.FormatV2 }

// ContentHash returns the container identity: a hash over the
// manifest generation and every live segment's content hash. It
// changes whenever a merge (or any manifest rewrite) swaps in a new
// generation.
func (s *Set) ContentHash() (uint64, bool) {
	if v := s.view.Load(); v != nil {
		return v.hash, true
	}
	return 0, false
}

// SectionSizes sums the Table 3 breakdown across live segments.
func (s *Set) SectionSizes() (header, dcg, blocks int64, err error) {
	v := s.view.Load()
	if v == nil {
		return 0, 0, 0, fmt.Errorf("segment: set: %w", os.ErrClosed)
	}
	for _, cf := range v.segs {
		h, d, b, err := cf.SectionSizes()
		if err != nil {
			return 0, 0, 0, err
		}
		header += h
		dcg += d
		blocks += b
	}
	return header, dcg, blocks, nil
}

// CacheStats sums decode-cache hits and misses across segments.
func (s *Set) CacheStats() (hits, misses uint64) {
	v := s.view.Load()
	if v == nil {
		return 0, 0
	}
	for _, cf := range v.segs {
		h, m := cf.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// CacheShardStats aggregates per-shard decode-cache counters across
// segments (shard i sums every segment's shard i).
func (s *Set) CacheShardStats() []wppfile.CacheShardStats {
	v := s.view.Load()
	if v == nil {
		return nil
	}
	var out []wppfile.CacheShardStats
	for _, cf := range v.segs {
		for i, st := range cf.CacheShardStats() {
			if i == len(out) {
				out = append(out, wppfile.CacheShardStats{})
			}
			out[i].Hits += st.Hits
			out[i].Misses += st.Misses
		}
	}
	return out
}

// ExtractFunction merges fn's trace windows across live segments:
// single-owner functions delegate to that segment's one-seek
// extraction; spanning functions extract each window and merge with
// keep-first deduplication, preserving the set-global trace order.
func (s *Set) ExtractFunction(fn cfg.FuncID) (*core.FunctionTWPP, error) {
	return s.ExtractFunctionCtx(context.Background(), fn)
}

// ExtractFunctionCtx is ExtractFunction with cooperative cancellation.
// The result is freshly assembled (or segment-cache shared) and safe
// to retain; treat it as read-only.
func (s *Set) ExtractFunctionCtx(ctx context.Context, fn cfg.FuncID) (*core.FunctionTWPP, error) {
	v, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer v.release()
	info := v.index[fn]
	if info == nil {
		return nil, fmt.Errorf("segment: function %d: %w", fn, wppfile.ErrNoFunction)
	}
	if len(info.owners) == 1 {
		return v.segs[info.owners[0]].ExtractFunctionCtx(ctx, fn)
	}
	parts := make([]*core.FunctionTWPP, len(info.owners))
	for i, si := range info.owners {
		if parts[i], err = v.segs[si].ExtractFunctionCtx(ctx, fn); err != nil {
			return nil, err
		}
	}
	return mergeParts(fn, parts, info.disjoint, nil), nil
}

// ExtractFunctionInto is the pooled extraction path: zero heap
// allocations once buf is warm. The result aliases buf (and, for
// spanning functions, buf's per-segment sub-buffers) and is valid only
// until buf's next use — the same ownership contract as
// wppfile.ExtractFunctionInto.
func (s *Set) ExtractFunctionInto(fn cfg.FuncID, buf *Buffer) (*core.FunctionTWPP, error) {
	return s.ExtractFunctionIntoCtx(context.Background(), fn, buf)
}

// ExtractFunctionIntoCtx is ExtractFunctionInto with cooperative
// cancellation.
func (s *Set) ExtractFunctionIntoCtx(ctx context.Context, fn cfg.FuncID, buf *Buffer) (*core.FunctionTWPP, error) {
	v, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer v.release()
	info := v.index[fn]
	if info == nil {
		return nil, fmt.Errorf("segment: function %d: %w", fn, wppfile.ErrNoFunction)
	}
	if len(info.owners) == 1 {
		return v.segs[info.owners[0]].ExtractFunctionIntoCtx(ctx, fn, buf.part(0))
	}
	parts := buf.partResults(len(info.owners))
	for i, si := range info.owners {
		if parts[i], err = v.segs[si].ExtractFunctionIntoCtx(ctx, fn, buf.part(i)); err != nil {
			return nil, err
		}
	}
	return mergeParts(fn, parts, info.disjoint, buf), nil
}

// ReadDCG decodes the dynamic call graph from the FlagDCG segment.
// Its trace indices are set-global (see the package comment).
func (s *Set) ReadDCG() (trace.DCG, error) {
	v, err := s.acquire()
	if err != nil {
		return trace.DCG{}, err
	}
	defer v.release()
	if v.dcgSeg < 0 {
		return trace.DCG{}, encoding.Errf(encoding.CodeCorrupt, 0,
			"segment: no segment carries the dynamic call graph")
	}
	return v.segs[v.dcgSeg].ReadDCG()
}

// ReadAll reconstructs the complete TWPP from the merged view,
// validating every DCG reference against the merged trace lists. The
// DCG and every function (its windows extracted and merged) decode in
// parallel through wppfile.Assemble.
func (s *Set) ReadAll() (*core.TWPP, error) {
	v, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer v.release()
	readDCG := func() (trace.DCG, error) {
		if v.dcgSeg < 0 {
			return trace.DCG{}, nil
		}
		return v.segs[v.dcgSeg].ReadDCG()
	}
	extract := func(fn cfg.FuncID) (*core.FunctionTWPP, error) {
		info := v.index[fn]
		parts := make([]*core.FunctionTWPP, len(info.owners))
		for i, si := range info.owners {
			p, err := v.segs[si].ExtractFunction(fn)
			if err != nil {
				return nil, err
			}
			parts[i] = p
		}
		if len(parts) == 1 {
			return parts[0], nil
		}
		return mergeParts(fn, parts, info.disjoint, nil), nil
	}
	return wppfile.Assemble(v.names, v.order, readDCG, extract, func(fn cfg.FuncID, traceIdx int) error {
		return encoding.Errf(encoding.CodeCorrupt, 0,
			"segment: DCG node references function %d trace %d, not in container", fn, traceIdx)
	})
}
