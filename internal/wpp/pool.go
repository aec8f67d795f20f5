package wpp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunJobs runs fn(0), ..., fn(n-1) on a bounded pool of at most
// workers goroutines (workers <= 0 selects runtime.GOMAXPROCS(0)) and
// never more goroutines than jobs; with one worker or one job it runs
// them inline, in order. Jobs are handed out in index order. Once ctx
// is done the remaining jobs are skipped and RunJobs returns
// ctx.Err(). Results are independent of scheduling as long as each
// job writes only its own slots. The compaction stages and the file
// encoder all fan out through it.
func RunJobs(ctx context.Context, n, workers int, fn func(i int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
