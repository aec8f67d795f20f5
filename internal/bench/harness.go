package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/interp"
	"twpp/internal/minilang"
	"twpp/internal/sequitur"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// Result holds everything measured for one benchmark: the inputs to
// Tables 1-3 and 6 plus the artifacts (files, program, TWPP) the
// timing experiments of Tables 4-5 and the Figure analyses consume.
type Result struct {
	Profile Profile

	// Program and execution shape.
	Prog        *cfg.Program
	StaticFuncs int
	Calls       int
	Blocks      int

	// Table 1: raw component sizes (bytes).
	RawDCGBytes   int
	RawTraceBytes int

	// Table 2: per-stage trace sizes (bytes).
	Stats          wpp.Stats
	TWPPTraceBytes int
	TWPPDictBytes  int

	// Table 3: compacted on-disk component sizes (bytes).
	FileHeader int64
	FileDCG    int64
	FileBlocks int64
	FileTotal  int64

	// Table 6 inputs.
	StaticNodes, StaticEdges int
	DynNodes, DynEdges       int
	AvgVecCompact, AvgVecRaw float64

	// Figure 8 inputs: per called function, unique trace count and
	// call count.
	Uniques, CallCounts []int

	// Artifacts.
	TWPP     *core.TWPP
	RawPath  string
	CompPath string
}

// Run generates, executes, compacts, and serializes one benchmark
// sequentially, collecting all size statistics. Files are written
// under dir.
func Run(p Profile, scale float64, dir string) (*Result, error) {
	return RunWorkers(p, scale, dir, 1)
}

// RunWorkers is Run with the compaction pipeline's per-function work
// fanned out over workers goroutines (<= 0 selects GOMAXPROCS). The
// produced artifacts are identical for every worker count.
func RunWorkers(p Profile, scale float64, dir string, workers int) (*Result, error) {
	src := p.Generate(scale)
	prog, err := minilang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("bench %s: generated program does not parse: %w", p.Name, err)
	}
	cfgProg, err := cfg.Build(prog, cfg.MaxBlocks)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", p.Name, err)
	}
	names := make([]string, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		names[i] = fn.Name
	}
	builder := trace.NewBuilder(names)
	if _, err := interp.Run(cfgProg, builder, nil, interp.Limits{MaxSteps: 200_000_000}); err != nil {
		return nil, fmt.Errorf("bench %s: execution failed: %w", p.Name, err)
	}
	w := builder.Finish()

	res := &Result{Profile: p, Prog: cfgProg, StaticFuncs: len(prog.Funcs)}
	res.Calls = w.NumCalls()
	res.Blocks = w.NumBlocks()
	res.RawDCGBytes, res.RawTraceBytes = w.RawSizes()

	compacted, stats := wpp.CompactWorkers(w, workers)
	res.Stats = stats
	res.Uniques, res.CallCounts = compacted.UniqueTraceDistribution()

	tw := core.FromCompactedWorkers(compacted, workers)
	res.TWPP = tw
	res.TWPPTraceBytes, res.TWPPDictBytes = tw.SizeStats()
	res.DynNodes, res.DynEdges = tw.DynamicGraphStats()
	res.AvgVecCompact, res.AvgVecRaw = tw.VectorStats()
	for _, g := range cfgProg.Graphs {
		res.StaticNodes += len(g.Blocks)
		res.StaticEdges += g.NumEdges()
	}

	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		res.RawPath = filepath.Join(dir, p.Name+".wpp")
		res.CompPath = filepath.Join(dir, p.Name+".twpp")
		if err := wppfile.WriteRaw(res.RawPath, w); err != nil {
			return nil, err
		}
		data, err := wppfile.EncodeCompactedWorkers(tw, workers)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(res.CompPath, data, 0o644); err != nil {
			return nil, err
		}
		cf, err := wppfile.OpenCompacted(res.CompPath)
		if err != nil {
			return nil, err
		}
		defer cf.Close()
		res.FileHeader, res.FileDCG, res.FileBlocks, err = cf.SectionSizes()
		if err != nil {
			return nil, err
		}
		res.FileTotal = res.FileHeader + res.FileDCG + res.FileBlocks
	}
	return res, nil
}

// RunAllWorkers runs every profile with the given compaction worker
// pool size.
func RunAllWorkers(scale float64, dir string, workers int) ([]*Result, error) {
	var out []*Result
	for _, p := range Profiles() {
		r, err := RunWorkers(p, scale, dir, workers)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// CompactionFactor is Table 3's bottom line: raw total size over
// compacted file size.
func (r *Result) CompactionFactor() float64 {
	if r.FileTotal == 0 {
		return 0
	}
	return float64(r.RawDCGBytes+r.RawTraceBytes) / float64(r.FileTotal)
}

// ---------------------------------------------------------------------
// Table 4: per-function extraction timing.
// ---------------------------------------------------------------------

// ExtractTiming measures the time to extract a single function's path
// traces from the uncompacted file (full scan) and from the compacted
// indexed file (one seek). Every function present in the WPP is
// measured once; avg and max are over functions, as in Table 4.
type ExtractTiming struct {
	AvgUncompacted, MaxUncompacted time.Duration
	AvgCompacted, MaxCompacted     time.Duration
	Functions                      int
}

// Speedup is the paper's headline ratio avg(U)/avg(C).
func (t *ExtractTiming) Speedup() float64 {
	if t.AvgCompacted == 0 {
		return 0
	}
	return float64(t.AvgUncompacted) / float64(t.AvgCompacted)
}

// MeasureExtraction runs the Table 4 experiment on one benchmark's
// files. maxFuncs caps the number of functions measured (0 = all) on
// both paths. The compacted file is opened without a decode cache, so
// every extraction is cold: one seek plus decode.
func MeasureExtraction(r *Result, maxFuncs int) (*ExtractTiming, error) {
	cf, err := wppfile.OpenCompacted(r.CompPath)
	if err != nil {
		return nil, err
	}
	defer cf.Close()
	fns := cf.Functions()
	if len(fns) == 0 {
		return nil, fmt.Errorf("bench: no functions in %s", r.CompPath)
	}
	scanFns := fns
	if maxFuncs > 0 && len(scanFns) > maxFuncs {
		scanFns = scanFns[:maxFuncs] // hottest first; mirrors paper's per-function averages
	}

	t := &ExtractTiming{Functions: len(scanFns)}
	for _, fn := range scanFns {
		start := time.Now()
		if _, err := wppfile.ScanRawForFunction(r.RawPath, fn); err != nil {
			return nil, err
		}
		d := time.Since(start)
		t.AvgUncompacted += d
		if d > t.MaxUncompacted {
			t.MaxUncompacted = d
		}
	}
	for _, fn := range scanFns {
		start := time.Now()
		if _, err := cf.ExtractFunction(fn); err != nil {
			return nil, err
		}
		d := time.Since(start)
		t.AvgCompacted += d
		if d > t.MaxCompacted {
			t.MaxCompacted = d
		}
	}
	t.AvgUncompacted /= time.Duration(len(scanFns))
	t.AvgCompacted /= time.Duration(len(scanFns))
	return t, nil
}

// ---------------------------------------------------------------------
// Table 5: Sequitur (Larus) baseline comparison.
// ---------------------------------------------------------------------

// SequiturComparison holds the Table 5 measurements for one benchmark.
type SequiturComparison struct {
	// Sizes in bytes.
	SequiturBytes int
	TWPPBytes     int64
	// Per-function extraction from the Sequitur grammar, split into
	// the paper's read (decode) and process (expand+collect) phases.
	ReadTime, ProcessTime time.Duration
	// TWPP indexed extraction time for the same functions.
	TWPPTime time.Duration
	// CompressTime is how long Sequitur took to build the grammar
	// (not reported in the paper's tables; informative).
	CompressTime time.Duration
	Functions    int
}

// AccessRatio is Sequitur extraction time / TWPP extraction time (the
// paper reports 89-553x).
func (s *SequiturComparison) AccessRatio() float64 {
	if s.TWPPTime == 0 {
		return 0
	}
	return float64(s.ReadTime+s.ProcessTime) / float64(s.TWPPTime)
}

// MeasureSequitur rebuilds the benchmark's linear WPP, compresses it
// with Sequitur, and times per-function extraction from both
// representations, averaging over at most maxFuncs functions (0 =
// all).
func MeasureSequitur(r *Result, maxFuncs int) (*SequiturComparison, error) {
	raw, err := wppfile.ReadRaw(r.RawPath)
	if err != nil {
		return nil, err
	}
	stream := raw.Linear()

	s := &SequiturComparison{TWPPBytes: r.FileTotal}
	start := time.Now()
	comp := sequitur.CompressWPP(stream)
	s.CompressTime = time.Since(start)
	s.SequiturBytes = comp.Size()

	cf, err := wppfile.OpenCompacted(r.CompPath)
	if err != nil {
		return nil, err
	}
	defer cf.Close()
	fns := cf.Functions()
	if maxFuncs > 0 && len(fns) > maxFuncs {
		fns = fns[:maxFuncs]
	}
	s.Functions = len(fns)
	for _, fn := range fns {
		// Read phase: parse the stored grammar.
		start = time.Now()
		dec, err := sequitur.Decode(comp.Data)
		if err != nil {
			return nil, err
		}
		s.ReadTime += time.Since(start)
		// Process phase: expand and collect the function's traces.
		start = time.Now()
		if _, err := extractDecoded(dec, int(fn)); err != nil {
			return nil, err
		}
		s.ProcessTime += time.Since(start)

		start = time.Now()
		if _, err := cf.ExtractFunction(fn); err != nil {
			return nil, err
		}
		s.TWPPTime += time.Since(start)
	}
	n := time.Duration(len(fns))
	s.ReadTime /= n
	s.ProcessTime /= n
	s.TWPPTime /= n
	return s, nil
}

// extractDecoded collects function f's traces from a decoded grammar
// (the process phase of Larus-style extraction).
func extractDecoded(d *sequitur.Decoded, f int) (int, error) {
	want := sequitur.EnterMarker(f)
	depthTarget := -1
	depth := 0
	traces := 0
	var streamErr error
	err := d.ExpandFunc(func(sym uint32) {
		if streamErr != nil {
			return
		}
		switch {
		case sym == sequitur.ExitMarker:
			if depth == 0 {
				streamErr = fmt.Errorf("bench: EXIT underflow")
				return
			}
			depth--
			if depthTarget == depth {
				depthTarget = -1
				traces++
			}
		case sym >= sequitur.EnterMarker(0):
			if sym == want && depthTarget == -1 {
				depthTarget = depth
			}
			depth++
		}
	})
	if err != nil {
		return 0, err
	}
	if streamErr != nil {
		return 0, streamErr
	}
	return traces, nil
}

// ---------------------------------------------------------------------
// Figure 8: trace redundancy CDF.
// ---------------------------------------------------------------------

// RedundancyCDF returns, for each threshold N in thresholds, the
// percentage of all function calls attributable to functions with at
// most N unique path traces.
func (r *Result) RedundancyCDF(thresholds []int) []float64 {
	type fn struct{ uniq, calls int }
	fns := make([]fn, len(r.Uniques))
	total := 0
	for i := range r.Uniques {
		fns[i] = fn{r.Uniques[i], r.CallCounts[i]}
		total += r.CallCounts[i]
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].uniq < fns[j].uniq })
	out := make([]float64, len(thresholds))
	for i, th := range thresholds {
		covered := 0
		for _, f := range fns {
			if f.uniq <= th {
				covered += f.calls
			}
		}
		if total > 0 {
			out[i] = 100 * float64(covered) / float64(total)
		}
	}
	return out
}
