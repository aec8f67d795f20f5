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

	"twpp/internal/cfg"
	"twpp/internal/sequitur"
)

// CallNode is one function invocation in the dynamic call graph.
type CallNode struct {
	Fn cfg.FuncID
	// Trace indexes RawWPP.Traces.
	Trace int
	// Children are callee invocations in call order.
	Children []*CallNode
	// ChildPos[i] is the number of blocks of this call's own trace that
	// had executed when Children[i] was invoked (so the child's
	// sub-WPP interleaves after block index ChildPos[i]-1).
	ChildPos []int
}

// RawWPP is an uncompacted whole program path.
type RawWPP struct {
	// FuncNames[f] names function f; indexes align with cfg.FuncID.
	FuncNames []string
	// Root is the top-level call (main).
	Root *CallNode
	// Traces[i] is the block sequence of call i, in invocation order
	// (preorder of the DCG).
	Traces [][]cfg.BlockID
}

// Builder implements the tracer callbacks and assembles a RawWPP.
// It is the bridge between the interpreter and this package.
type Builder struct {
	wpp   *RawWPP
	stack []*CallNode
}

// NewBuilder returns a builder for a program with the given function
// names.
func NewBuilder(funcNames []string) *Builder {
	return &Builder{wpp: &RawWPP{FuncNames: funcNames}}
}

// EnterCall records the start of an invocation of f.
func (b *Builder) EnterCall(f cfg.FuncID) {
	n := &CallNode{Fn: f, Trace: len(b.wpp.Traces)}
	b.wpp.Traces = append(b.wpp.Traces, nil)
	if len(b.stack) == 0 {
		if b.wpp.Root != nil {
			panic("trace: multiple root calls")
		}
		b.wpp.Root = n
	} else {
		parent := b.stack[len(b.stack)-1]
		parent.Children = append(parent.Children, n)
		parent.ChildPos = append(parent.ChildPos, len(b.wpp.Traces[parent.Trace]))
	}
	b.stack = append(b.stack, n)
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
	b.wpp.Traces[cur.Trace] = append(b.wpp.Traces[cur.Trace], ids...)
}

// ExitCall records the return of the current invocation.
func (b *Builder) ExitCall() {
	if len(b.stack) == 0 {
		panic("trace: exit event outside any call")
	}
	b.stack = b.stack[:len(b.stack)-1]
}

// Finish returns the assembled WPP. It panics if calls are still open.
func (b *Builder) Finish() *RawWPP {
	if len(b.stack) != 0 {
		panic(fmt.Sprintf("trace: %d calls still open", len(b.stack)))
	}
	if b.wpp.Root == nil {
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
	words := 0
	w.Walk(func(n *CallNode) { words += 2 + len(n.Children) })
	return 4 * words, 4 * w.NumBlocks()
}

// Walk visits every call node in preorder.
func (w *RawWPP) Walk(fn func(*CallNode)) {
	var rec func(n *CallNode)
	rec = func(n *CallNode) {
		fn(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	if w.Root != nil {
		rec(w.Root)
	}
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
