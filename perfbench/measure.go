package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// durLog records op latencies in nanoseconds (saturating at ~4.3 s).
// Four bytes an op, appended in fixed-size chunks, keep the benchmark's
// own bookkeeping small and free of copying garbage, since it shares
// the heap that peak_heap_mb measures.
type durLog struct{ chunks [][]uint32 }

func (l *durLog) add(d time.Duration) {
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == cap(l.chunks[n-1]) {
		l.chunks = append(l.chunks, make([]uint32, 0, 1<<14))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, uint32(min(d, math.MaxUint32)))
}

// sample is one op: its index in the client's sequence and its latency.
type sample struct {
	i   int
	dur time.Duration
}

// window is what one measured interval of closed-loop load produced.
type window struct {
	elapsed   time.Duration   // from the window's start until its last op returned
	lat       []time.Duration // latency of every op, reads excluded
	byClient  [][]sample      // each op client's ops, in issue order
	reads     []time.Duration // ingest-live's reader; compact's read-back
	ops       int             // ops run
	attempted int             // ops and reads whose outcome counts
	failed    int
	errs      []error  // the first few failures, for the report
	steal     float64  // percent of CPU time the hypervisor withheld in the window
	peakHeap  uint64   // highest heap-object bytes sampled in the window
	heap      []uint64 // heap-object bytes after each of client 0's first heapOps ops
	baseHeap  uint64   // heap-object bytes when the window opened
	before    runtime.MemStats
	after     runtime.MemStats
}

func (w *window) opsPerSec() float64 {
	if w.elapsed <= 0 {
		return 0
	}
	return float64(len(w.lat)) / w.elapsed.Seconds()
}

// fail records one failed op; only the first few errors are kept.
func (w *window) fail(err error) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err)
	}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// heapSampler reads live heap-object bytes (HeapAlloc's runtime/metrics
// twin, which needs no stop-the-world). Load goroutines call it at op
// boundaries: the benchmark runs no timer-driven work in a window.
type heapSampler struct {
	s []rtmetrics.Sample
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []rtmetrics.Sample{{Name: heapMetric}}}
}

func (h *heapSampler) read() uint64 {
	rtmetrics.Read(h.s)
	if h.s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return h.s[0].Value.Uint64()
}

// closedLoop runs clients goroutines, each issuing op back to back (a
// closed loop: the next op starts when the previous one returns), until
// d has passed. Every op's latency is recorded; a non-nil error marks
// it failed. The heap is sampled after every op; client 0's first
// heapOps samples are also kept in w.heap. Steal is recorded, not filtered: w.steal tells a run on a busy host
// apart from a regression.
func closedLoop(clients int, d time.Duration, heapOps int, op func(client, i int) error) *window {
	w := &window{}
	runtime.ReadMemStats(&w.before)
	w.baseHeap = newHeapSampler().read()
	type local struct {
		log  durLog
		errs []error
		fail int
		peak uint64
	}
	locals := make([]local, clients)
	w.heap = make([]uint64, 0, heapOps)
	var wg sync.WaitGroup
	cpu := readCPUStat()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &locals[c]
			hs := newHeapSampler()
			for i := 0; ; i++ {
				t0 := time.Now()
				if t0.Sub(start) >= d {
					break
				}
				err := op(c, i)
				l.log.add(time.Since(t0))
				if err != nil {
					l.fail++
					if len(l.errs) < 5 {
						l.errs = append(l.errs, err)
					}
				}
				h := hs.read()
				l.peak = max(l.peak, h)
				if c == 0 && i < heapOps {
					w.heap = append(w.heap, h)
				}
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.steal = stealPct(cpu, readCPUStat())
	runtime.ReadMemStats(&w.after)
	for _, l := range locals {
		var ks []sample
		i := 0
		for _, chunk := range l.log.chunks {
			for _, ns := range chunk {
				dur := time.Duration(ns)
				ks = append(ks, sample{i, dur})
				w.lat = append(w.lat, dur)
				i++
			}
		}
		w.byClient = append(w.byClient, ks)
		w.ops += i
		w.attempted += i
		w.failed += l.fail
		for _, err := range l.errs {
			if len(w.errs) < 5 {
				w.errs = append(w.errs, err)
			}
		}
		w.peakHeap = max(w.peakHeap, l.peak)
	}
	return w
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durQuantile is quantile over durations, in the given unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in jiffies.
type cpuStat struct {
	total, steal uint64
	ok           bool
}

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	st.ok = true
	return st
}

// stealPct is the share of CPU time the hypervisor withheld between two
// readings, in percent (0 when /proc/stat is unavailable).
func stealPct(a, b cpuStat) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// promSample parses Prometheus text exposition into name{labels} → value.
func promSample(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// histQuantile estimates the q-quantile of the observations a
// Prometheus histogram gained between two scrapes, interpolating
// linearly inside the bucket that holds it.
func histQuantile(before, after map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		bound := math.Inf(1)
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = b
		}
		bs = append(bs, bucket{bound, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.n == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return lo
}
