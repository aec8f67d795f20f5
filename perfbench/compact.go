package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"twpp/internal/bench"
	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/interp"
	"twpp/internal/minilang"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// genProfile executes one synthetic paper profile and returns its WPP,
// exactly as the bench harness does.
func genProfile(p bench.Profile, scale float64) (*trace.RawWPP, error) {
	prog, err := minilang.Parse(p.Generate(scale))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	cp, err := cfg.Build(prog, cfg.MaxBlocks)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	names := make([]string, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		names[i] = fn.Name
	}
	b := trace.NewBuilder(names)
	if _, err := interp.Run(cp, b, nil, interp.Limits{MaxSteps: 200_000_000}); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return b.Finish(), nil
}

func rawBytes(w *trace.RawWPP) int {
	d, t := w.RawSizes()
	return d + t
}

// compactBench: one op compacts the whole five-profile paper suite,
// the chain twpp-compact runs (Workers = GOMAXPROCS, v2 format).
type compactBench struct {
	c       *config
	dir     string
	workers int
	names   []string
	ws      []*trace.RawWPP
	raw     []int
	enc     []int // encoded bytes per profile, from the warm-up op
	stats   []wpp.Stats
	rng     *rand.Rand // profile order within an op
	pick    *rand.Rand // which op's output the check samples
	sample  [][]byte
}

func setupCompact(c *config, dir string) (runner, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &compactBench{
		c: c, dir: dir, workers: runtime.GOMAXPROCS(0),
		rng:  rand.New(rand.NewSource(c.seed)),
		pick: rand.New(rand.NewSource(c.seed ^ 0x5eed)),
	}
	for _, p := range bench.Profiles() {
		w, err := genProfile(p, c.sz.suiteScale)
		if err != nil {
			return nil, err
		}
		b.names = append(b.names, p.Name)
		b.ws = append(b.ws, w)
		b.raw = append(b.raw, rawBytes(w))
	}
	// Warm-up op: fixes the expected output sizes and the stage stats.
	b.enc = make([]int, len(b.ws))
	b.stats = make([]wpp.Stats, len(b.ws))
	for p, w := range b.ws {
		c, st, err := wpp.CompactWorkersCtx(context.Background(), w, b.workers)
		if err != nil {
			return nil, err
		}
		tw, err := core.FromCompactedWorkersCtx(context.Background(), c, b.workers)
		if err != nil {
			return nil, err
		}
		data, err := wppfile.EncodeCompactedFormat(tw, b.workers, wppfile.FormatV2)
		if err != nil {
			return nil, err
		}
		b.enc[p], b.stats[p] = len(data), st
	}
	return b, nil
}

// op compacts every profile in a seeded order and returns the encoded
// containers indexed by profile.
func (b *compactBench) op(tr *tracer) ([][]byte, error) {
	ctx := context.Background()
	id := tr.op()
	root := tr.begin(id, -1, "op")
	defer tr.end(root)
	out := make([][]byte, len(b.ws))
	for _, p := range b.rng.Perm(len(b.ws)) {
		var (
			c    *wpp.Compacted
			tw   *core.TWPP
			data []byte
			err  error
		)
		tr.timed(id, root, "wpp.compact", func() { c, _, err = wpp.CompactWorkersCtx(ctx, b.ws[p], b.workers) })
		if err != nil {
			return nil, err
		}
		tr.timed(id, root, "core.invert", func() { tw, err = core.FromCompactedWorkersCtx(ctx, c, b.workers) })
		if err != nil {
			return nil, err
		}
		tr.timed(id, root, "wppfile.encode", func() { data, err = wppfile.EncodeCompactedFormat(tw, b.workers, wppfile.FormatV2) })
		if err != nil {
			return nil, err
		}
		if len(data) != b.enc[p] {
			return nil, fmt.Errorf("%s encoded %d bytes, the warm-up op %d", b.names[p], len(data), b.enc[p])
		}
		out[p] = data
	}
	return out, nil
}

func (b *compactBench) run(tr *tracer, d time.Duration) *window {
	return closedLoop(1, d, 0, func(_, i int) error {
		out, err := b.op(tr)
		if err != nil {
			return err
		}
		// Reservoir sampling: every op is equally likely to be checked.
		if b.pick.Intn(i+1) == 0 {
			b.sample = out
		}
		return nil
	})
}

// check reads the sampled op's output back readReps times: one read
// reopens all five containers with every checksum verified and decodes
// each in full (ReadAll) — the read-back latency, over one population
// like the op itself. The first read's decodes must reconstruct the
// input WPPs. It also checks the Table 3 ordering: regular-loop
// profiles out-compact the branchy go-like one.
func (b *compactBench) check(w *window) {
	if b.sample == nil {
		w.fail(fmt.Errorf("no op completed"))
		return
	}
	tws := make([]*core.TWPP, len(b.sample))
	// The window's garbage is collected here, not inside the reads.
	runtime.GC()
	for r := 0; r < b.c.sz.readReps; r++ {
		t0 := time.Now()
		for p, data := range b.sample {
			cf, err := wppfile.OpenCompactedBytes(data, wppfile.OpenOptions{VerifyChecksums: true})
			if err == nil {
				tws[p], err = cf.ReadAll()
				cf.Close()
			}
			if err != nil {
				w.fail(fmt.Errorf("%s: read back: %w", b.names[p], err))
				return
			}
		}
		w.reads = append(w.reads, time.Since(t0))
		if r > 0 {
			continue
		}
		for p, tw := range tws {
			if err := reconstructs(tw, b.ws[p]); err != nil {
				w.fail(fmt.Errorf("%s: %w", b.names[p], err))
			}
		}
	}
	f := func(prefix string) float64 {
		for p, n := range b.names {
			if strings.HasPrefix(n, prefix) {
				return float64(b.raw[p]) / float64(b.enc[p])
			}
		}
		return 0
	}
	if goF := f("099.go"); !(f("134.perl") > goF && f("132.ijpeg") > goF) {
		w.fail(fmt.Errorf("table 3 ordering: perl %.2f, ijpeg %.2f, go %.2f", f("134.perl"), f("132.ijpeg"), goF))
	}
}

// reconstructs checks that a decoded container gives back w,
// Linear-equal.
func reconstructs(tw *core.TWPP, w *trace.RawWPP) error {
	c, err := tw.ToCompacted()
	if err != nil {
		return fmt.Errorf("to compacted: %w", err)
	}
	if !trace.Equal(c.Reconstruct(), w) {
		return fmt.Errorf("reconstructed WPP differs from the input")
	}
	return nil
}

func (b *compactBench) factor() float64 {
	raw, enc := 0, 0
	for p := range b.raw {
		raw += b.raw[p]
		enc += b.enc[p]
	}
	return float64(raw) / float64(enc)
}

func (b *compactBench) layers(tr *tracer, w *window, m metrics) error {
	ops := float64(max(w.ops, 1))
	m.set("compact.wpp.compact_ms", "ms", median(perOp(tr, "wpp.compact")))
	m.set("compact.core.invert_ms", "ms", median(perOp(tr, "core.invert")))
	m.set("compact.wppfile.encode_ms", "ms", median(perOp(tr, "wppfile.encode")))
	uniq, calls, enc := 0, 0, 0
	for p := range b.stats {
		uniq += b.stats[p].UniqueTraces
		calls += b.stats[p].Calls
		enc += b.enc[p]
	}
	m.set("compact.wpp.unique_trace_ratio", "ratio", float64(uniq)/float64(calls))
	m.set("compact.wppfile.encoded_bytes", "bytes", float64(enc))
	m.set("compact.runtime.alloc_mb_per_op", "MB", float64(w.after.TotalAlloc-w.before.TotalAlloc)/1e6/ops)
	m.set("compact.runtime.gc_per_op", "count", float64(w.after.NumGC-w.before.NumGC)/ops)
	x, spread, err := b.scanOverExtract(tr)
	if err != nil {
		return err
	}
	m.set("compact.wppfile.scan_over_extract_x", "x", x)
	m.set("compact.wppfile.scan_over_extract_spread", "ratio", spread)
	return nil
}

// scanOverExtract is the paper's Table 4 ratio: scanning the raw WPP
// file for one function against pooled extraction of that function
// from the compacted file, over each profile's hottest functions. It
// returns the median per-function ratio and its spread (interquartile
// range over median).
func (b *compactBench) scanOverExtract(tr *tracer) (float64, float64, error) {
	var ratios []float64
	for p, w := range b.ws {
		rawPath := filepath.Join(b.dir, fmt.Sprintf("p%d.wpp", p))
		compPath := filepath.Join(b.dir, fmt.Sprintf("p%d.twpp", p))
		if err := wppfile.WriteRaw(rawPath, w); err != nil {
			return 0, 0, err
		}
		c, _ := wpp.CompactWorkers(w, b.workers)
		if err := wppfile.WriteCompactedFormat(compPath, core.FromCompactedWorkers(c, b.workers), b.workers, wppfile.FormatV2); err != nil {
			return 0, 0, err
		}
		cf, err := wppfile.OpenCompacted(compPath)
		if err != nil {
			return 0, 0, err
		}
		fns := cf.Functions()
		fns = fns[:min(len(fns), b.c.sz.scanFuncs)]
		buf := wppfile.GetExtractBuffer()
		for _, fn := range fns {
			id := tr.op()
			root := tr.begin(id, -1, "table4")
			var scanErr error
			scan := tr.timed(id, root, "wppfile.scan_raw", func() { _, scanErr = wppfile.ScanRawForFunction(rawPath, fn) })
			ext := make([]float64, 0, b.c.sz.layerReps)
			for r := 0; r < b.c.sz.layerReps && scanErr == nil; r++ {
				d := tr.timed(id, root, "wppfile.extract", func() { _, scanErr = cf.ExtractFunctionInto(fn, buf) })
				ext = append(ext, float64(d))
			}
			tr.end(root)
			if scanErr != nil {
				wppfile.PutExtractBuffer(buf)
				cf.Close()
				return 0, 0, fmt.Errorf("%s f%d: %w", b.names[p], fn, scanErr)
			}
			ratios = append(ratios, float64(scan)/median(ext))
		}
		wppfile.PutExtractBuffer(buf)
		cf.Close()
		os.Remove(rawPath)
		os.Remove(compPath)
	}
	med := median(ratios)
	return med, (quantile(ratios, 0.75) - quantile(ratios, 0.25)) / med, nil
}

func (b *compactBench) close() error { return os.RemoveAll(b.dir) }

// perOp sums, for each traced op, the durations of its spans named
// name, in milliseconds.
func perOp(tr *tracer, name string) []float64 {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sums := map[uint64]float64{}
	for _, s := range tr.spans {
		if s.Name == name && s.End >= 0 {
			sums[s.Op] += float64(s.End-s.Start) / 1e6
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}
