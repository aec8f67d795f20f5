// Package trace defines the in-memory whole program path (WPP): the
// complete control flow trace of one program execution, organized as a
// dynamic call graph (DCG) whose nodes reference per-call path traces —
// the representation of Figure 2 in Zhang & Gupta (PLDI 2001), before
// any compaction.
//
// A path trace records the basic blocks a single function invocation
// executed, excluding blocks of its callees; each callee invocation is
// a DCG child annotated with its position in the parent's trace, which
// is enough to reconstruct the fully interleaved linear WPP of
// Figure 1 exactly.
package trace

import (
	"fmt"
	"slices"

	"twpp/internal/cfg"
	"twpp/internal/sequitur"
)

// DCG is a dynamic call graph stored flat: one row per call, in
// preorder (call order), as four parallel columns. Row i is a call of
// Fn[i] that executed path trace Trace[i]. Pos[i] counts the blocks of
// its caller's own trace that ran before it (so its sub-WPP
// interleaves after caller block Pos[i]-1; 0 for a root). End[i] is
// one past the last row of i's subtree, so i's children are i+1,
// End[i+1], ... while below End[i], and a forest's roots are 0,
// End[0], .... Trace indexes RawWPP.Traces in a raw WPP and the
// function's unique traces in a compacted one; the other columns mean
// the same in both.
type DCG struct {
	Fn    []cfg.FuncID
	Trace []int
	Pos   []int
	End   []int
}

// Len reports the number of calls.
func (d *DCG) Len() int { return len(d.Fn) }

// Open appends a row for a call of fn at position pos of its caller's
// trace and returns the row. Its Trace and End are set by Close.
func (d *DCG) Open(fn cfg.FuncID, pos int) int {
	d.Fn = append(d.Fn, fn)
	d.Trace = append(d.Trace, 0)
	d.Pos = append(d.Pos, pos)
	d.End = append(d.End, 0)
	return len(d.Fn) - 1
}

// Close completes row i, whose call executed trace tr: its subtree is
// every row appended since Open.
func (d *DCG) Close(i, tr int) {
	d.Trace[i] = tr
	d.End[i] = len(d.Fn)
}

// Parents returns each row's caller row, -1 for a root.
func (d *DCG) Parents() []int {
	parent := make([]int, d.Len())
	for i := range parent {
		parent[i] = -1
	}
	for i, end := range d.End {
		for c := i + 1; c < end; c = d.End[c] {
			parent[c] = i
		}
	}
	return parent
}

// Clone returns a copy of d that shares no storage with it.
func (d *DCG) Clone() DCG {
	return DCG{Fn: slices.Clone(d.Fn), Trace: slices.Clone(d.Trace), Pos: slices.Clone(d.Pos), End: slices.Clone(d.End)}
}

// RawWPP is an uncompacted whole program path.
type RawWPP struct {
	// FuncNames[f] names function f; indexes align with cfg.FuncID.
	FuncNames []string
	// DCG is the dynamic call graph; its one root is the top-level
	// call (main).
	DCG DCG
	// Traces[i] is the block sequence of call i, in invocation order
	// (preorder of the DCG).
	Traces [][]cfg.BlockID
}

// Builder implements the tracer callbacks and assembles a RawWPP.
// It is the bridge between the interpreter and this package.
type Builder struct {
	wpp   *RawWPP
	stack []int // rows of the open calls
}

// NewBuilder returns a builder for a program with the given function
// names.
func NewBuilder(funcNames []string) *Builder {
	return &Builder{wpp: &RawWPP{FuncNames: funcNames}}
}

// EnterCall records the start of an invocation of f. Call i's trace
// is Traces[i].
func (b *Builder) EnterCall(f cfg.FuncID) {
	pos := 0
	if len(b.stack) == 0 {
		if b.wpp.DCG.Len() != 0 {
			panic("trace: multiple root calls")
		}
	} else {
		pos = len(b.wpp.Traces[b.stack[len(b.stack)-1]])
	}
	b.stack = append(b.stack, b.wpp.DCG.Open(f, pos))
	b.wpp.Traces = append(b.wpp.Traces, nil)
}

// Block records execution of block id in the current invocation.
func (b *Builder) Block(id cfg.BlockID) {
	b.Blocks([]cfg.BlockID{id})
}

// Blocks records execution of the blocks ids, in order, in the current
// invocation.
func (b *Builder) Blocks(ids []cfg.BlockID) {
	if len(b.stack) == 0 {
		panic("trace: block event outside any call")
	}
	cur := b.stack[len(b.stack)-1]
	b.wpp.Traces[cur] = append(b.wpp.Traces[cur], ids...)
}

// ExitCall records the return of the current invocation.
func (b *Builder) ExitCall() {
	if len(b.stack) == 0 {
		panic("trace: exit event outside any call")
	}
	cur := b.stack[len(b.stack)-1]
	b.wpp.DCG.Close(cur, cur)
	b.stack = b.stack[:len(b.stack)-1]
}

// Finish returns the assembled WPP. It panics if calls are still open.
func (b *Builder) Finish() *RawWPP {
	if len(b.stack) != 0 {
		panic(fmt.Sprintf("trace: %d calls still open", len(b.stack)))
	}
	if b.wpp.DCG.Len() == 0 {
		panic("trace: no root call recorded")
	}
	return b.wpp
}

// NumCalls reports the number of invocations in the WPP.
func (w *RawWPP) NumCalls() int { return len(w.Traces) }

// NumBlocks reports the total number of block events across all
// traces.
func (w *RawWPP) NumBlocks() int {
	n := 0
	for _, t := range w.Traces {
		n += len(t)
	}
	return n
}

// RawSizes reports the byte sizes of the two components of the
// uncompacted WPP as Table 1 of the paper accounts them: the DCG at
// one 32-bit word per node field (function id, child count, and one
// word per child position — the natural in-memory form) and the
// traces at one 32-bit word per executed block.
func (w *RawWPP) RawSizes() (dcgBytes, traceBytes int) {
	d := &w.DCG
	// Every call but a root is some call's child.
	words := 3 * d.Len()
	for r := 0; r < d.Len(); r = d.End[r] {
		words--
	}
	return 4 * words, 4 * w.NumBlocks()
}

// symbolCollector is the EventSink that rebuilds the linear symbol
// stream.
type symbolCollector struct{ out []uint32 }

func (s *symbolCollector) EnterCall(f cfg.FuncID) {
	s.out = append(s.out, sequitur.EnterMarker(int(f)))
}
func (s *symbolCollector) Blocks(ids []cfg.BlockID) {
	for _, id := range ids {
		s.out = append(s.out, uint32(id))
	}
}
func (s *symbolCollector) ExitCall() { s.out = append(s.out, sequitur.ExitMarker) }

// Linear flattens the WPP into the single interleaved symbol stream of
// Figure 1, in the symbol vocabulary shared with the Sequitur baseline:
// sequitur.EnterMarker(f), block ids, sequitur.ExitMarker.
func (w *RawWPP) Linear() []uint32 {
	c := &symbolCollector{}
	w.Replay(c)
	return c.out
}

// Equal reports whether two WPPs describe the same execution.
func Equal(a, b *RawWPP) bool {
	la, lb := a.Linear(), b.Linear()
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if la[i] != lb[i] {
			return false
		}
	}
	return true
}

// FuncName returns the name of function f, or a placeholder.
func (w *RawWPP) FuncName(f cfg.FuncID) string {
	if int(f) < len(w.FuncNames) {
		return w.FuncNames[f]
	}
	return fmt.Sprintf("func%d", int(f))
}
