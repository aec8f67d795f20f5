// Streaming event plumbing: the WPP is, at its most primitive, a
// stream of ENTER/block/EXIT events. EventSink is the consumer-side
// contract of that stream, Demux validates and routes a linear symbol
// stream into a sink without materializing it, and Replay regenerates
// the event stream from an in-memory WPP — so any sink can be driven
// either from a file or from a tree. Blocks travel in runs: one event
// carries every block a call executes between two call boundaries, so
// the per-event cost is paid per run, not per block.
package trace

import (
	"fmt"

	"twpp/internal/cfg"
	"twpp/internal/sequitur"
)

// EventSink consumes trace events in execution order. Builder
// implements it (assembling an in-memory RawWPP), as does
// wpp.StreamCompactor (compacting online without ever holding the full
// WPP).
type EventSink interface {
	// EnterCall records the start of an invocation of f.
	EnterCall(f cfg.FuncID)
	// Blocks records execution of the blocks ids, in order, in the
	// current invocation. ids is only valid during the call: a sink
	// must copy what it keeps.
	Blocks(ids []cfg.BlockID)
	// ExitCall records the return of the current invocation.
	ExitCall()
}

// StreamErrorKind classifies a malformed-event-stream failure.
type StreamErrorKind uint8

const (
	// StreamExitUnderflow: an EXIT arrived with no call open.
	StreamExitUnderflow StreamErrorKind = iota
	// StreamSecondRoot: a second top-level call after the root closed.
	StreamSecondRoot
	// StreamBlockOutsideCall: a block event with no call open.
	StreamBlockOutsideCall
	// StreamUnknownFunc: an ENTER for a function id at or beyond the
	// demux's declared function-table bound.
	StreamUnknownFunc
	// StreamUnclosedCalls: the stream ended with calls still open.
	StreamUnclosedCalls
	// StreamEmpty: the stream ended without any call.
	StreamEmpty
)

// String names the kind for logs and error text.
func (k StreamErrorKind) String() string {
	switch k {
	case StreamExitUnderflow:
		return "exit-underflow"
	case StreamSecondRoot:
		return "second-root"
	case StreamBlockOutsideCall:
		return "block-outside-call"
	case StreamUnknownFunc:
		return "unknown-func"
	case StreamUnclosedCalls:
		return "unclosed-calls"
	case StreamEmpty:
		return "empty-stream"
	default:
		return "unknown"
	}
}

// StreamError is a structured malformed-stream failure from Demux:
// the violation kind, the symbol position at which it was detected
// (-1 for end-of-stream checks), and kind-specific context. Callers
// dispatch with errors.As; Error renders the same messages the demux
// historically produced.
type StreamError struct {
	Kind StreamErrorKind
	// Pos is the 0-based symbol position, or -1 for end-of-stream.
	Pos int
	// Sym is the offending symbol (block id or raw symbol), when
	// meaningful.
	Sym uint32
	// Func is the unknown function id for StreamUnknownFunc.
	Func cfg.FuncID
	// Open is the open-call depth for StreamUnclosedCalls.
	Open int
	// Declared is the demux's function-table bound for
	// StreamUnknownFunc.
	Declared int
}

func (e *StreamError) Error() string {
	switch e.Kind {
	case StreamExitUnderflow:
		return fmt.Sprintf("trace: EXIT at position %d with empty stack", e.Pos)
	case StreamSecondRoot:
		return fmt.Sprintf("trace: second root call at position %d", e.Pos)
	case StreamBlockOutsideCall:
		return fmt.Sprintf("trace: block %d at position %d outside any call", e.Sym, e.Pos)
	case StreamUnknownFunc:
		return fmt.Sprintf("trace: ENTER for unknown function %d at position %d (%d declared)", e.Func, e.Pos, e.Declared)
	case StreamUnclosedCalls:
		return fmt.Sprintf("trace: %d unclosed calls", e.Open)
	case StreamEmpty:
		return "trace: empty symbol stream (no calls)"
	default:
		return fmt.Sprintf("trace: malformed stream at position %d", e.Pos)
	}
}

// Is matches template *StreamError values by kind (position and
// context fields in the target are ignored when zero-valued), so
// errors.Is(err, &StreamError{Kind: StreamExitUnderflow}) works.
func (e *StreamError) Is(target error) bool {
	t, ok := target.(*StreamError)
	if !ok {
		return false
	}
	return t.Kind == e.Kind && (t.Pos == 0 || t.Pos == e.Pos)
}

// Demux validates a linear WPP symbol stream (the vocabulary of
// RawWPP.Linear: sequitur.EnterMarker(f), block ids,
// sequitur.ExitMarker) and routes each symbol to a sink as a typed
// event. It enforces the structural invariants a well-formed WPP
// stream satisfies — balanced ENTER/EXIT, blocks only inside calls,
// exactly one root call, ENTER ids within the declared function table —
// returning structured *StreamError values where Builder, which trusts
// its (programmatic) caller, would panic. The zero Demux with a Sink
// set is ready to use.
type Demux struct {
	Sink EventSink
	// NumFuncs, when positive, bounds valid ENTER function ids: an
	// ENTER for id >= NumFuncs is rejected as StreamUnknownFunc before
	// the sink sees it, so sinks never size per-function state by an
	// attacker-controlled id. Zero disables the check.
	NumFuncs int

	depth  int
	pos    int
	rooted bool
	ids    []cfg.BlockID // the run handed to Sink.Blocks, reused
}

// Feed routes syms in order, delivering each maximal run of block
// symbols inside a call as one Blocks event. On error the sink has
// seen every event before the offending symbol and not that symbol,
// and the stream should be abandoned.
func (d *Demux) Feed(syms ...uint32) error {
	base, run := d.pos, -1 // run: start of the pending block run, or -1
	flush := func(i int) {
		if run >= 0 {
			d.ids = d.ids[:0]
			for _, sym := range syms[run:i] {
				d.ids = append(d.ids, cfg.BlockID(sym))
			}
			d.Sink.Blocks(d.ids)
			run = -1
		}
	}
	for i, sym := range syms {
		pos := base + i
		if sym == sequitur.ExitMarker {
			if d.depth == 0 {
				d.pos = pos
				return &StreamError{Kind: StreamExitUnderflow, Pos: pos, Sym: sym}
			}
			flush(i)
			d.Sink.ExitCall()
			d.depth--
		} else if f, ok := sequitur.IsEnter(sym); ok {
			flush(i)
			if d.NumFuncs > 0 && f >= d.NumFuncs {
				d.pos = pos
				return &StreamError{Kind: StreamUnknownFunc, Pos: pos, Sym: sym, Func: cfg.FuncID(f), Declared: d.NumFuncs}
			}
			if d.depth == 0 && d.rooted {
				d.pos = pos
				return &StreamError{Kind: StreamSecondRoot, Pos: pos, Sym: sym}
			}
			d.Sink.EnterCall(cfg.FuncID(f))
			d.depth++
			d.rooted = true
		} else if d.depth == 0 {
			d.pos = pos
			return &StreamError{Kind: StreamBlockOutsideCall, Pos: pos, Sym: sym}
		} else if run < 0 {
			run = i
		}
	}
	flush(len(syms))
	d.pos = base + len(syms)
	return nil
}

// Accepted reports how many symbols Feed has accepted so far.
func (d *Demux) Accepted() int { return d.pos }

// Close checks end-of-stream invariants: every call closed and a root
// call present.
func (d *Demux) Close() error {
	if d.depth != 0 {
		return &StreamError{Kind: StreamUnclosedCalls, Pos: -1, Open: d.depth}
	}
	if !d.rooted {
		return &StreamError{Kind: StreamEmpty, Pos: -1}
	}
	return nil
}

// Replay regenerates the WPP's event stream in execution order,
// interleaving each callee's events at its recorded call position —
// the event-level equivalent of Linear. Each stretch of a trace
// between two call positions is one Blocks event.
func (w *RawWPP) Replay(sink EventSink) {
	var rec func(n *CallNode)
	rec = func(n *CallNode) {
		sink.EnterCall(n.Fn)
		tr := w.Traces[n.Trace]
		prev := 0
		for i, ch := range n.Children {
			// A position behind the previous one or past the trace's
			// end is never reached, so that child and the rest are
			// not replayed.
			pos := n.ChildPos[i]
			if pos < prev || pos > len(tr) {
				break
			}
			if pos > prev {
				sink.Blocks(tr[prev:pos])
				prev = pos
			}
			rec(ch)
		}
		if prev < len(tr) {
			sink.Blocks(tr[prev:])
		}
		sink.ExitCall()
	}
	if w.Root != nil {
		rec(w.Root)
	}
}
