package wpp

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestRunJobs checks the shared pool runs every job exactly once at
// any worker and job count, and skips the remaining jobs once its
// context is canceled.
func TestRunJobs(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 3, 100} {
			ran := make([]atomic.Int32, n)
			if err := RunJobs(context.Background(), n, workers, func(i int) { ran[i].Add(1) }); err != nil {
				t.Fatalf("workers %d, %d jobs: %v", workers, n, err)
			}
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("workers %d, %d jobs: job %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran, late atomic.Int32
		var canceled atomic.Bool
		err := RunJobs(ctx, 1000, workers, func(int) {
			if canceled.Load() {
				late.Add(1)
			}
			if ran.Add(1) == 3 {
				cancel()
				canceled.Store(true)
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers %d: canceled pool returned %v", workers, err)
		}
		// Other workers may run jobs while job 3 is still canceling,
		// but once cancel has returned each can start at most the one
		// job whose context check it already passed.
		if got := late.Load(); got > int32(workers-1) {
			t.Errorf("workers %d: %d jobs started after cancel returned", workers, got)
		}
	}
}
