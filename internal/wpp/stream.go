package wpp

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"twpp/internal/cfg"
)

// StreamCompactor performs the paper's first three compaction
// transformations online, one trace event at a time, without ever
// holding the full WPP: each call's path trace is buffered only while
// the call is open, and on exit it is interned against the function's
// unique traces (hash + verified equality) and either discarded as
// redundant or queued for DBB compaction. Peak memory is
// O(unique traces + open call stack + DCG) instead of O(trace); a
// queued batch references only unique traces already kept.
//
// DBB discovery and the dictionary hash are pure functions of one
// unique trace, so they run off the event loop: once the queued new
// traces hold batchBlocks original blocks, one goroutine compacts the
// whole batch. At most GOMAXPROCS batches run at once (the event loop
// waits for a slot), and at GOMAXPROCS 1 a batch runs inline. FinishCtx
// waits for every batch, on every return path, and re-raises on its
// caller's goroutine a panic that a batch recovered.
//
// It implements trace.EventSink, so it can be driven from a live
// tracer, from trace.RawWPP.Replay, or — the production path — from a
// raw WPP file streamed through wppfile. Like trace.Builder it panics
// on events that violate call nesting; feed untrusted streams through
// trace.Demux, which turns those violations into errors before the
// sink sees them.
//
// Finish produces a Compacted and Stats identical (deeply, and hence
// byte-identically once encoded) to CompactWorkers on the same event
// stream. The one ordering wrinkle: the batch path interns traces in
// preorder (a call's trace is seen at entry, parent before children),
// while a streaming compactor only knows a call's trace at exit
// (children before parent). Each unique trace therefore records the
// earliest EnterCall sequence number among the calls that produced it,
// and Finish sorts unique traces into that first-entry order —
// restoring the documented first-occurrence order — then rewrites the
// provisional DCG indices.
type StreamCompactor struct {
	funcNames []string
	funcs     []streamFunc
	stack     []streamFrame
	root      *CallNode
	seq       int // EnterCall counter: global first-occurrence clock
	blocks    int
	calls     int
	// spare recycles block buffers of calls whose traces proved
	// redundant — the overwhelmingly common case (Figure 8) — so
	// steady-state ingestion allocates only on new unique traces.
	spare    []PathTrace
	finished bool

	// queue collects new unique traces until they hold batchBlocks
	// blocks; batches lists every batch launched, in order.
	queue       *dbbBatch
	queueBlocks int
	batches     []*dbbBatch
	// slots holds one token per running batch goroutine, GOMAXPROCS at
	// most; nil at GOMAXPROCS 1, where batches run inline.
	slots   chan struct{}
	running sync.WaitGroup
}

// batchBlocks is the number of original blocks of new unique traces
// that fill one background DBB batch: large enough that a batch
// amortizes its goroutine, small enough that several run while the
// stream is still being fed.
const batchBlocks = 4096

// dbbBatch is a run of new unique traces compacted together. While it
// runs, the event loop only reads its traces' original blocks, which
// are immutable once interned, and updates their firstSeq, a field the
// batch never touches.
type dbbBatch struct {
	traces   []*uniqueTrace
	panicked any // a panic recovered while compacting, re-raised by FinishCtx
}

// batchHook, when set (only ever by tests), runs at the start of every
// batch.
var batchHook func()

// run compacts every trace of the batch, recovering a panic for
// FinishCtx to re-raise.
func (b *dbbBatch) run() {
	defer func() { b.panicked = recover() }()
	if batchHook != nil {
		batchHook()
	}
	for _, u := range b.traces {
		u.comp, u.dict = compactTrace(u.orig)
		u.dictHash = hashDict(u.dict)
	}
}

// uniqueTrace is one interned unique trace: the original block
// sequence (kept for verified-equality lookups), the earliest
// EnterCall sequence that produced it, and — written by its batch,
// read only once FinishCtx has waited for it — its DBB-compacted form,
// dictionary and dictionary hash.
type uniqueTrace struct {
	orig     PathTrace
	firstSeq int
	comp     PathTrace
	dict     Dictionary
	dictHash uint64
}

// streamFunc is the per-function intern state.
type streamFunc struct {
	in        *Interner
	uniq      []*uniqueTrace
	callCount int
}

// streamFrame is one open call: its DCG node, the trace buffered so
// far, and its EnterCall sequence number.
type streamFrame struct {
	node *CallNode
	tr   PathTrace
	seq  int
}

// NewStreamCompactor returns a compactor for a program with the given
// function names (they become Compacted.FuncNames; functions beyond
// the name table may still appear in the stream).
func NewStreamCompactor(funcNames []string) *StreamCompactor {
	s := &StreamCompactor{funcNames: funcNames}
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		s.slots = make(chan struct{}, procs)
	}
	return s
}

// EnterCall records the start of an invocation of f.
func (s *StreamCompactor) EnterCall(f cfg.FuncID) {
	for int(f) >= len(s.funcs) {
		s.funcs = append(s.funcs, streamFunc{in: newInterner()})
	}
	n := &CallNode{Fn: f}
	if len(s.stack) == 0 {
		if s.root != nil {
			panic("wpp: multiple root calls in event stream")
		}
		s.root = n
	} else {
		p := &s.stack[len(s.stack)-1]
		p.node.Children = append(p.node.Children, n)
		p.node.ChildPos = append(p.node.ChildPos, len(p.tr))
	}
	var tr PathTrace
	if k := len(s.spare); k > 0 {
		tr = s.spare[k-1][:0]
		s.spare = s.spare[:k-1]
	}
	s.stack = append(s.stack, streamFrame{node: n, tr: tr, seq: s.seq})
	s.seq++
}

// Blocks records execution of the blocks ids in the current
// invocation.
func (s *StreamCompactor) Blocks(ids []cfg.BlockID) {
	if len(s.stack) == 0 {
		panic("wpp: block event outside any call")
	}
	fr := &s.stack[len(s.stack)-1]
	fr.tr = append(fr.tr, ids...)
	s.blocks += len(ids)
}

// ExitCall completes the current invocation: its trace is interned
// against the function's unique traces and, when new, queued for DBB
// compaction.
func (s *StreamCompactor) ExitCall() {
	if len(s.stack) == 0 {
		panic("wpp: exit event outside any call")
	}
	fr := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	fs := &s.funcs[fr.node.Fn]
	h := hashTrace(fr.tr)
	idx, ok := fs.in.lookup(h, func(i int) bool { return tracesEqual(fs.uniq[i].orig, fr.tr) })
	if !ok {
		idx = len(fs.uniq)
		u := &uniqueTrace{orig: fr.tr, firstSeq: fr.seq}
		fs.uniq = append(fs.uniq, u)
		fs.in.insert(h, idx)
		s.enqueue(u)
	} else {
		if u := fs.uniq[idx]; fr.seq < u.firstSeq {
			u.firstSeq = fr.seq
		}
		if cap(fr.tr) > 0 {
			s.spare = append(s.spare, fr.tr)
		}
	}
	fr.node.TraceIdx = idx
	fs.callCount++
	s.calls++
}

// enqueue queues a new unique trace for DBB compaction and launches
// the queue once it holds batchBlocks blocks.
func (s *StreamCompactor) enqueue(u *uniqueTrace) {
	if s.queue == nil {
		s.queue = &dbbBatch{}
	}
	s.queue.traces = append(s.queue.traces, u)
	s.queueBlocks += len(u.orig)
	if s.queueBlocks >= batchBlocks {
		s.launch()
	}
}

// launch starts the queued batch: inline at GOMAXPROCS 1, otherwise on
// a goroutine once fewer than GOMAXPROCS batches are running.
func (s *StreamCompactor) launch() {
	b := s.queue
	if b == nil {
		return
	}
	s.queue, s.queueBlocks = nil, 0
	s.batches = append(s.batches, b)
	if s.slots == nil {
		b.run()
		return
	}
	s.slots <- struct{}{}
	s.running.Add(1)
	go func() {
		defer func() {
			<-s.slots
			s.running.Done()
		}()
		b.run()
	}()
}

// wait blocks until every launched batch has returned and re-raises
// the first panic one of them recovered.
func (s *StreamCompactor) wait() {
	s.running.Wait()
	for _, b := range s.batches {
		if b.panicked != nil {
			panic(b.panicked)
		}
	}
}

// Finish seals the stream and assembles the Compacted: unique traces
// are ordered by first occurrence, dictionaries deduplicated in that
// order, provisional DCG indices rewritten, and stats accumulated —
// all exactly as the batch path would have produced them.
func (s *StreamCompactor) Finish() (*Compacted, Stats, error) {
	return s.FinishCtx(context.Background())
}

// FinishCtx is Finish with cooperative cancellation: the per-function
// assembly loop checks ctx between functions, so sealing a stream with
// very many functions can be abandoned promptly. Whatever it returns,
// it first waits for every DBB batch, canceled or not. Once FinishCtx
// has been called — even if canceled — the compactor is sealed and
// cannot be finished again.
func (s *StreamCompactor) FinishCtx(ctx context.Context) (*Compacted, Stats, error) {
	err := s.seal()
	s.wait()
	if err != nil {
		return nil, Stats{}, err
	}
	numFuncs := len(s.funcNames)
	if len(s.funcs) > numFuncs {
		numFuncs = len(s.funcs)
	}
	c := &Compacted{
		FuncNames: s.funcNames,
		Root:      s.root,
		Funcs:     make([]FunctionTraces, numFuncs),
	}
	for f := range c.Funcs {
		c.Funcs[f].Fn = cfg.FuncID(f)
	}

	var stats Stats
	stats.RawTraceBytes = 4 * s.blocks
	stats.Calls = s.calls

	remaps := make([][]int, len(s.funcs))
	for f := range s.funcs {
		if ctx.Err() != nil {
			return nil, Stats{}, ctx.Err()
		}
		fs := &s.funcs[f]
		ft := &c.Funcs[f]
		ft.CallCount = fs.callCount
		n := len(fs.uniq)
		if n == 0 {
			continue
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			return fs.uniq[order[i]].firstSeq < fs.uniq[order[j]].firstSeq
		})
		remap := make([]int, n)
		for final, prov := range order {
			remap[prov] = final
		}
		remaps[f] = remap

		ft.Traces = make([]PathTrace, 0, n)
		ft.OrigLen = make([]int, 0, n)
		ft.DictOf = make([]int, 0, n)
		dictSeen := newInterner()
		for _, prov := range order {
			u := fs.uniq[prov]
			di, ok := dictSeen.lookup(u.dictHash, func(i int) bool { return dictsEqual(ft.Dicts[i], u.dict) })
			if !ok {
				di = len(ft.Dicts)
				dictSeen.insert(u.dictHash, di)
				ft.Dicts = append(ft.Dicts, u.dict)
			}
			ft.Traces = append(ft.Traces, u.comp)
			ft.OrigLen = append(ft.OrigLen, len(u.orig))
			ft.DictOf = append(ft.DictOf, di)
			stats.AfterRedundancy += 4 * len(u.orig)
			stats.UniqueTraces++
		}
		for _, tr := range ft.Traces {
			stats.AfterDictionary += 4 * len(tr)
		}
		for _, d := range ft.Dicts {
			stats.DictionaryBytes += 4 * d.Words()
		}
	}
	stats.AfterDictionary += stats.DictionaryBytes

	var rewrite func(n *CallNode)
	rewrite = func(n *CallNode) {
		n.TraceIdx = remaps[n.Fn][n.TraceIdx]
		for _, ch := range n.Children {
			rewrite(ch)
		}
	}
	rewrite(s.root)
	return c, stats, nil
}

// seal checks that the stream ended well-formed, marks the compactor
// finished, and launches the last queued batch.
func (s *StreamCompactor) seal() error {
	switch {
	case s.finished:
		return fmt.Errorf("wpp: StreamCompactor already finished")
	case len(s.stack) != 0:
		return fmt.Errorf("wpp: event stream ended with %d unclosed calls", len(s.stack))
	case s.root == nil:
		return fmt.Errorf("wpp: event stream contained no calls")
	}
	s.finished = true
	s.launch()
	return nil
}
