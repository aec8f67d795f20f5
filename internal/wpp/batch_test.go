package wpp

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"twpp/internal/cfg"
	"twpp/internal/trace"
)

// uniqueCallsWPP builds a WPP whose calls to f all have distinct
// traces, so streaming it fills many DBB batches.
func uniqueCallsWPP(calls, blocksPerCall int) *trace.RawWPP {
	b := trace.NewBuilder([]string{"main", "f"})
	b.EnterCall(0)
	for c := 0; c < calls; c++ {
		b.EnterCall(1)
		b.Block(cfg.BlockID(100 + c))
		for i := 1; i < blocksPerCall; i++ {
			b.Block(cfg.BlockID(1 + (c+i*i)%7))
		}
		b.ExitCall()
	}
	b.ExitCall()
	return b.Finish()
}

// withGOMAXPROCS runs the rest of the test at GOMAXPROCS n.
func withGOMAXPROCS(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// setBatchHook installs fn as the batch seam for the rest of the test.
// Every test that sets it waits for its batches before returning.
func setBatchHook(t *testing.T, fn func()) {
	batchHook = fn
	t.Cleanup(func() { batchHook = nil })
}

// Streaming output is the batch path's whatever the number of batches
// and however many run at once, inline at GOMAXPROCS 1 included.
func TestStreamBatchesMatchBatch(t *testing.T) {
	w := uniqueCallsWPP(400, 40) // 16,000 blocks: four full batches
	want, wantStats := Compact(w)
	for _, procs := range []int{1, 2, 4} {
		withGOMAXPROCS(t, procs)
		var batches atomic.Int32
		setBatchHook(t, func() { batches.Add(1) })
		got, gotStats, _ := streamCompact(t, w)
		if n := batches.Load(); n < 4 {
			t.Errorf("GOMAXPROCS %d: %d batches, want at least 4", procs, n)
		}
		if gotStats != wantStats || !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS %d: streaming differs from batch", procs)
		}
	}
}

// A compactor dropped mid-stream leaves no goroutine behind once its
// batches end: nothing waits on a Finish that never comes.
func TestStreamAbandonedLeavesNoGoroutine(t *testing.T) {
	withGOMAXPROCS(t, 2)
	base := runtime.NumGoroutine()
	s := NewStreamCompactor([]string{"main", "f"})
	s.EnterCall(0)
	ids := make([]cfg.BlockID, 40)
	for c := 0; c < 400; c++ {
		s.EnterCall(1)
		for i := range ids {
			ids[i] = cfg.BlockID(1 + (c+i*i)%7)
		}
		ids[0] = cfg.BlockID(100 + c)
		s.Blocks(ids)
		s.ExitCall()
	}
	if len(s.batches) < 2 {
		t.Fatalf("%d batches launched, want several", len(s.batches))
	}
	s.running.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain after the batches ended, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// FinishCtx returns only after every batch has ended, even when its
// context is already canceled.
func TestStreamFinishCanceledWaitsForBatches(t *testing.T) {
	withGOMAXPROCS(t, 2)
	var started, ended atomic.Int32
	setBatchHook(t, func() {
		started.Add(1)
		time.Sleep(5 * time.Millisecond)
		ended.Add(1)
	})
	s := NewStreamCompactor(nil)
	uniqueCallsWPP(400, 40).Replay(s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.FinishCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("FinishCtx(canceled) = %v, want context.Canceled", err)
	}
	if n, e := started.Load(), ended.Load(); n < 4 || e != n {
		t.Fatalf("FinishCtx returned with %d of %d batches ended", e, n)
	}
}

// A panic inside a batch is re-raised by FinishCtx on the caller's
// goroutine, where callers' own recovery (the ingest session guard,
// net/http's handler recovery) applies; it never crashes the process
// from a batch goroutine.
func TestStreamBatchPanicReraisedByFinish(t *testing.T) {
	for _, procs := range []int{1, 2} {
		withGOMAXPROCS(t, procs)
		var calls atomic.Int32
		setBatchHook(t, func() {
			if calls.Add(1) == 2 {
				panic("boom")
			}
		})
		s := NewStreamCompactor(nil)
		uniqueCallsWPP(400, 40).Replay(s)
		got := func() (p any) {
			defer func() { p = recover() }()
			s.Finish()
			return nil
		}()
		if got != "boom" {
			t.Errorf("GOMAXPROCS %d: Finish raised %v, want the batch's panic", procs, got)
		}
	}
}
