// Benchmarks regenerating each table and figure of Zhang & Gupta
// (PLDI 2001). Each BenchmarkTableN/BenchmarkFigureN times the
// operation the corresponding table or figure measures, on a scaled
// instance of the synthetic workloads; the printed report metrics
// (ReportMetric) carry the paper-facing numbers (compaction factors,
// speedups). Run the full-scale experiment suite with
// cmd/twpp-bench, which prints the tables themselves.
package twpp_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"twpp"
	"twpp/internal/bench"
	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/currency"
	"twpp/internal/dataflow"
	"twpp/internal/figures"
	"twpp/internal/interp"
	"twpp/internal/lzw"
	"twpp/internal/minilang"
	"twpp/internal/sequitur"
	"twpp/internal/slicing"
	"twpp/internal/storage"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// benchScale keeps the per-iteration work small enough for go test
// -bench while preserving workload shape. cmd/twpp-bench runs scale 1.
const benchScale = 0.10

// buildWorkload traces one profile's program (setup helper, untimed).
func buildWorkload(b *testing.B, name string) *trace.RawWPP {
	b.Helper()
	return buildWorkloadScale(b, name, benchScale)
}

// buildWorkloadScale traces one profile's program at an explicit
// scale, for tests and benchmarks alike.
func buildWorkloadScale(tb testing.TB, name string, scale float64) *trace.RawWPP {
	tb.Helper()
	p, err := bench.ProfileByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	src := p.Generate(scale)
	parsed, err := minilang.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := cfg.Build(parsed, cfg.MaxBlocks)
	if err != nil {
		tb.Fatal(err)
	}
	names := make([]string, len(parsed.Funcs))
	for i, fn := range parsed.Funcs {
		names[i] = fn.Name
	}
	b := trace.NewBuilder(names)
	if _, err := interp.Run(prog, b, nil, interp.Limits{}); err != nil {
		tb.Fatal(err)
	}
	return b.Finish()
}

// BenchmarkTable1 times WPP collection (traced execution), whose
// output sizes are Table 1's rows.
func BenchmarkTable1(b *testing.B) {
	p, err := bench.ProfileByName("130.li-like")
	if err != nil {
		b.Fatal(err)
	}
	src := p.Generate(benchScale)
	parsed, err := minilang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := cfg.Build(parsed, cfg.MaxBlocks)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, len(parsed.Funcs))
	for i, fn := range parsed.Funcs {
		names[i] = fn.Name
	}
	b.ReportAllocs()
	b.ResetTimer()
	var blocks int
	for i := 0; i < b.N; i++ {
		tb := trace.NewBuilder(names)
		if _, err := interp.Run(prog, tb, nil, interp.Limits{}); err != nil {
			b.Fatal(err)
		}
		blocks = tb.Finish().NumBlocks()
	}
	b.ReportMetric(float64(blocks), "trace-blocks")
}

// BenchmarkTable2 times the three compaction transformations and
// reports their factors.
func BenchmarkTable2(b *testing.B) {
	w := buildWorkload(b, "130.li-like")
	b.ReportAllocs()
	b.ResetTimer()
	var stats wpp.Stats
	var tb, db int
	for i := 0; i < b.N; i++ {
		c, s := wpp.Compact(w)
		tw := core.FromCompacted(c)
		stats = s
		tb, db = tw.SizeStats()
	}
	b.ReportMetric(float64(stats.RawTraceBytes)/float64(stats.AfterRedundancy), "x-redundancy")
	b.ReportMetric(float64(stats.AfterRedundancy)/float64(stats.AfterDictionary), "x-dictionary")
	b.ReportMetric(float64(stats.AfterDictionary)/float64(tb+db), "x-twpp")
}

// BenchmarkTable3 times full compacted-file production (including the
// LZW-compressed DCG) and reports the overall compaction factor.
func BenchmarkTable3(b *testing.B) {
	w := buildWorkload(b, "132.ijpeg-like")
	dir := b.TempDir()
	path := dir + "/t.twpp"
	rawDCG, rawTr := w.RawSizes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := wpp.Compact(w)
		tw := core.FromCompacted(c)
		if err := wppfile.WriteCompacted(path, tw); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rawDCG+rawTr)/float64(fi.Size()), "x-overall")
}

// BenchmarkTable4Compacted times indexed per-function extraction (the
// paper's column C).
func BenchmarkTable4Compacted(b *testing.B) {
	w := buildWorkload(b, "126.gcc-like")
	c, _ := wpp.Compact(w)
	tw := core.FromCompacted(c)
	path := b.TempDir() + "/t.twpp"
	if err := wppfile.WriteCompacted(path, tw); err != nil {
		b.Fatal(err)
	}
	cf, err := wppfile.OpenCompacted(path)
	if err != nil {
		b.Fatal(err)
	}
	defer cf.Close()
	fns := cf.Functions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cf.ExtractFunction(fns[i%len(fns)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Uncompacted times full-scan extraction (the paper's
// column U).
func BenchmarkTable4Uncompacted(b *testing.B) {
	w := buildWorkload(b, "126.gcc-like")
	path := b.TempDir() + "/t.wpp"
	if err := wppfile.WriteRaw(path, w); err != nil {
		b.Fatal(err)
	}
	c, _ := wpp.Compact(w)
	_ = c
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wppfile.ScanRawForFunction(path, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Sequitur times Larus-style extraction: decode the
// grammar and expand it collecting one function's traces.
func BenchmarkTable5Sequitur(b *testing.B) {
	w := buildWorkload(b, "130.li-like")
	comp := sequitur.CompressWPP(w.Linear())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.ExtractFunction(1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(comp.Size()), "grammar-bytes")
}

// BenchmarkTable5Compress times Sequitur grammar construction itself.
func BenchmarkTable5Compress(b *testing.B) {
	w := buildWorkload(b, "134.perl-like")
	stream := w.Linear()
	b.SetBytes(int64(len(stream) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sequitur.CompressWPP(stream)
	}
}

// BenchmarkTable6 times construction of timestamp-annotated dynamic
// CFGs (the representation whose sizes Table 6 reports).
func BenchmarkTable6(b *testing.B) {
	w := buildWorkload(b, "099.go-like")
	c, _ := wpp.Compact(w)
	tw := core.FromCompacted(c)
	// Pick the hottest function with at least one trace.
	var ft *core.FunctionTWPP
	for f := range tw.Funcs {
		cand := &tw.Funcs[f]
		if len(cand.Traces) > 0 && (ft == nil || cand.CallCount > ft.CallCount) {
			ft = cand
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataflow.Build(ft, i%len(ft.Traces)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	avgC, avgRaw := tw.VectorStats()
	b.ReportMetric(avgC, "avg-vec-compact")
	b.ReportMetric(avgRaw, "avg-vec-raw")
}

// BenchmarkFigure8 times the redundancy-CDF computation.
func BenchmarkFigure8(b *testing.B) {
	w := buildWorkload(b, "126.gcc-like")
	c, _ := wpp.Compact(w)
	uniques, calls := c.UniqueTraceDistribution()
	r := &bench.Result{Uniques: uniques, CallCounts: calls}
	th := []int{1, 2, 5, 10, 25, 50, 100, 200, 300}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RedundancyCDF(th)
	}
}

// BenchmarkFigure9 times the load-redundancy demand-driven query of
// Figure 9 (the 100-iteration, 3-path loop).
func BenchmarkFigure9(b *testing.B) {
	var path wpp.PathTrace
	add := func(blocks []cfg.BlockID, n int) {
		for i := 0; i < n; i++ {
			path = append(path, blocks...)
		}
	}
	add([]cfg.BlockID{1, 2, 3, 4, 5}, 40)
	add([]cfg.BlockID{1, 2, 7, 4, 5}, 20)
	add([]cfg.BlockID{1, 6, 7, 8, 5}, 40)
	tg := dataflow.BuildFromPath(path)
	prob := &dataflow.GenKillProblem{
		GenBlocks:  map[cfg.BlockID]bool{1: true},
		KillBlocks: map[cfg.BlockID]bool{6: true},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var queries int
	for i := 0; i < b.N; i++ {
		res, err := dataflow.SolveAll(tg, prob, 4)
		if err != nil {
			b.Fatal(err)
		}
		queries = res.Queries
	}
	b.ReportMetric(float64(queries), "queries")
}

// BenchmarkFigure10 times the three dynamic slicing algorithms on the
// paper's example.
func BenchmarkFigure10(b *testing.B) {
	prog, err := twpp.CompileMode(figure10Src, twpp.PerStatement)
	if err != nil {
		b.Fatal(err)
	}
	run, err := prog.Trace([]int64{3, -4, 3, -2})
	if err != nil {
		b.Fatal(err)
	}
	tg := dataflow.BuildFromPath(wpp.PathTrace(run.WPP.Traces[run.WPP.Root.Trace]))
	crit := slicing.Criterion{Block: 14, Vars: []cfg.Loc{{Var: "Z"}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := slicing.New(prog.CFG.Graphs[0], tg)
		if _, err := s.Approach1(crit); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Approach2(crit); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Approach3(crit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure12 times currency determination over a looped trace.
func BenchmarkFigure12(b *testing.B) {
	if err := figures.Print(discard{}, 12); err != nil {
		b.Fatal(err)
	}
	var path wpp.PathTrace
	for i := 0; i < 500; i++ {
		if i%2 == 0 {
			path = append(path, 1, 2, 3)
		} else {
			path = append(path, 1, 4, 3)
		}
	}
	tg := dataflow.BuildFromPath(path)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := currencyAtAll(tg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Parallel pipeline benchmarks.
// ---------------------------------------------------------------------

// parallelWorkerCounts returns the worker counts the parallel
// benchmarks sweep: 1 (the sequential baseline), 2, 4, and GOMAXPROCS
// when it exceeds 4. On a 4+-core machine the gcc-like profile shows
// >= 2x at 4 workers; output is byte-identical at every point.
func parallelWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	return counts
}

// BenchmarkParallelCompact times the full compact -> timestamp-invert
// -> encode pipeline at increasing worker counts on each of the five
// SPECint-like profiles.
func BenchmarkParallelCompact(b *testing.B) {
	for _, p := range bench.Profiles() {
		b.Run(p.Name, func(b *testing.B) {
			w := buildWorkload(b, p.Name)
			for _, workers := range parallelWorkerCounts() {
				b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c, _ := wpp.CompactWorkers(w, workers)
						tw := core.FromCompactedWorkers(c, workers)
						if _, err := wppfile.EncodeCompactedWorkers(tw, workers); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkConcurrentExtract hammers one compacted file from
// GOMAXPROCS x 4 goroutines, sweeping the storage backend (positioned
// file reads vs a read-only memory mapping) and the decode cache off
// and on. With the cache enabled, every post-warmup extraction is a
// hit and skips both the read and the decode; the hit rate is
// reported.
func BenchmarkConcurrentExtract(b *testing.B) {
	w := buildWorkload(b, "126.gcc-like")
	c, _ := wpp.Compact(w)
	tw := core.FromCompacted(c)
	path := b.TempDir() + "/t.twpp"
	if err := wppfile.WriteCompacted(path, tw); err != nil {
		b.Fatal(err)
	}
	for _, backend := range []storage.Kind{storage.KindFile, storage.KindMmap} {
		for _, cacheEntries := range []int{0, 256} {
			b.Run(fmt.Sprintf("backend=%s/cache=%d", backend, cacheEntries), func(b *testing.B) {
				cf, err := wppfile.OpenCompactedOptions(path, wppfile.OpenOptions{
					Backend:      backend,
					CacheEntries: cacheEntries,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer cf.Close()
				fns := cf.Functions()
				b.ReportAllocs()
				b.SetParallelism(4)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						if _, err := cf.ExtractFunction(fns[i%len(fns)]); err != nil {
							b.Fatal(err)
						}
						i++
					}
				})
				b.StopTimer()
				if hits, misses := cf.CacheStats(); hits+misses > 0 {
					b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks: quantify the design decisions DESIGN.md calls
// out.
// ---------------------------------------------------------------------

// BenchmarkAblationSeriesVsRawTimestamps compares storing a loop
// block's timestamps as arithmetic series against a raw list, the
// core TWPP design decision.
func BenchmarkAblationSeriesVsRawTimestamps(b *testing.B) {
	ts := make([]core.Timestamp, 100000)
	for i := range ts {
		ts[i] = core.Timestamp(2 + 5*i)
	}
	b.Run("series", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := core.CompactSeries(ts)
			_ = s.Shift(-1)
		}
		b.ReportMetric(float64(core.CompactSeries(ts).Words()), "words")
	})
	b.Run("raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := make([]core.Timestamp, len(ts))
			for j, t := range ts {
				out[j] = t - 1
			}
		}
		b.ReportMetric(float64(len(ts)), "words")
	})
}

// BenchmarkAblationDCGCompression compares LZW against storing the
// DCG uncompressed.
func BenchmarkAblationDCGCompression(b *testing.B) {
	w := buildWorkload(b, "126.gcc-like")
	raw := w.EncodeDCG()
	b.Run("lzw", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		var n int
		for i := 0; i < b.N; i++ {
			n = len(lzw.Compress(raw))
		}
		b.ReportMetric(float64(len(raw))/float64(n), "x-ratio")
	})
	b.Run("none", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			_ = raw
		}
		b.ReportMetric(1.0, "x-ratio")
	})
}

// The paper's Figure 10 program (shared with the slicing benchmark).
const figure10Src = `
func main() {
    read N;
    var I = 1;
    var J = 0;
    while (I <= N) {
        read X;
        if (X < 0) {
            Y = f1(X);
        } else {
            Y = f2(X);
        }
        Z = f3(Y);
        print(Z);
        J = 1;
        I = I + 1;
    }
    Z = Z + J;
    print(Z);
}
func f1(x) { return 0 - x; }
func f2(x) { return x * 2; }
func f3(y) { return y + 1; }
`

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func currencyAtAll(tg *dataflow.TGraph) (core.Seq, core.Seq, error) {
	return currencyAll(tg)
}

func currencyAll(tg *dataflow.TGraph) (core.Seq, core.Seq, error) {
	m := currency.Motion{Var: "X", From: 1, To: 2}
	return currency.AtAll(tg, m, 3)
}

// BenchmarkStreamCompact compares the batch pipeline (slurp the file,
// compact, invert, encode to a byte slice) against the streaming
// pipeline on the same raw file. The report metrics carry each
// variant's peak heap growth — the number the streaming pipeline
// exists to shrink; both produce byte-identical output (pinned by
// TestStreamCompactMatchesBatch).
func BenchmarkStreamCompact(b *testing.B) {
	// A larger instance than benchScale: the pipelines differ in
	// asymptotics, so the gap needs a trace that dwarfs the fixed
	// costs (unique traces, DCG) both share.
	w := buildWorkloadScale(b, "126.gcc-like", 0.5)
	rawPath := filepath.Join(b.TempDir(), "t.wpp")
	if err := wppfile.WriteRaw(rawPath, w); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(rawPath)
	if err != nil {
		b.Fatal(err)
	}
	// The min over iterations is the cleanest peak estimate: GC
	// pacing can only add to an iteration's observed peak, never
	// subtract from it.
	minPeak := func(b *testing.B, run func() error) uint64 {
		b.Helper()
		var m uint64
		for i := 0; i < b.N; i++ {
			p, _, err := bench.PeakHeap(run)
			if err != nil {
				b.Fatal(err)
			}
			if m == 0 || p < m {
				m = p
			}
		}
		return m
	}
	b.Run("batch", func(b *testing.B) {
		b.SetBytes(fi.Size())
		peak := minPeak(b, func() error {
			w, err := wppfile.ReadRaw(rawPath)
			if err != nil {
				return err
			}
			c, _ := wpp.CompactWorkers(w, 1)
			tw := core.FromCompactedWorkers(c, 1)
			_, err = wppfile.EncodeCompactedWorkers(tw, 1)
			return err
		})
		b.ReportMetric(float64(peak), "peak-heap-bytes")
	})
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(fi.Size())
		peak := minPeak(b, func() error {
			f, err := os.Open(rawPath)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = twpp.StreamCompact(f, discard{}, twpp.CompactOptions{Workers: 1})
			return err
		})
		b.ReportMetric(float64(peak), "peak-heap-bytes")
	})
}
