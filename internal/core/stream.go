package core

import (
	"context"

	"twpp/internal/cfg"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// StreamCompactor runs the full compaction pipeline — redundant-trace
// elimination, DBB dictionaries, and the timestamp inversion — online
// over a trace event stream. It wraps wpp.StreamCompactor, which
// interns each call's trace as the call exits and compacts new unique
// traces in background batches; Finish then inverts every unique trace
// in one parallel stage, the batch path's FromCompactedWorkersCtx. No
// stage ever sees the whole WPP: peak memory stays O(unique traces +
// open call stack + DCG).
//
// It implements trace.EventSink. Finish returns a TWPP deeply equal to
// core.FromCompacted(wpp.Compact(...)) on the same stream, and the
// same Stats.
type StreamCompactor struct {
	sc *wpp.StreamCompactor
}

// NewStreamCompactor returns a streaming pipeline for a program with
// the given function names.
func NewStreamCompactor(funcNames []string) *StreamCompactor {
	return &StreamCompactor{sc: wpp.NewStreamCompactor(funcNames)}
}

// EnterCall records the start of an invocation of f.
func (s *StreamCompactor) EnterCall(f cfg.FuncID) { s.sc.EnterCall(f) }

// Blocks records execution of the blocks ids in the current
// invocation.
func (s *StreamCompactor) Blocks(ids []cfg.BlockID) { s.sc.Blocks(ids) }

// ExitCall completes the current invocation.
func (s *StreamCompactor) ExitCall() { s.sc.ExitCall() }

// Finish seals the stream and assembles the TWPP and compaction stats.
func (s *StreamCompactor) Finish() (*TWPP, wpp.Stats, error) {
	return s.FinishCtx(context.Background())
}

// FinishCtx is Finish with cooperative cancellation, threaded through
// the wrapped wpp.StreamCompactor's assembly (which waits for its DBB
// batches whatever it returns) and the inversion stage.
func (s *StreamCompactor) FinishCtx(ctx context.Context) (*TWPP, wpp.Stats, error) {
	c, stats, err := s.sc.FinishCtx(ctx)
	if err != nil {
		return nil, stats, err
	}
	t, err := FromCompactedWorkersCtx(ctx, c, 0)
	return t, stats, err
}

// Ensure the sink contract stays satisfied.
var _ trace.EventSink = (*StreamCompactor)(nil)
