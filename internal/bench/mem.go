package bench

import (
	"runtime"
	"sync"
	"time"
)

// PeakHeap runs fn and reports the peak heap growth (bytes above the
// pre-call baseline) and the number of heap allocations it performed.
// The peak is observed by a sampler polling the runtime twice per
// millisecond, so very short-lived spikes between samples can be
// missed; for the multi-millisecond pipeline runs measured here the
// error is small. The caller should be the only allocating goroutine.
func PeakHeap(fn func() error) (peakBytes, mallocs uint64, err error) {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	err = fn()

	close(stop)
	wg.Wait()
	var final runtime.MemStats
	runtime.ReadMemStats(&final)
	if final.HeapAlloc > peak {
		peak = final.HeapAlloc
	}
	if peak > base.HeapAlloc {
		peakBytes = peak - base.HeapAlloc
	}
	mallocs = final.Mallocs - base.Mallocs
	return peakBytes, mallocs, err
}
