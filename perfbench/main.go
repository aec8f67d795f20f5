// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload (compact, serve-hot, serve-mixed, ingest-live)
// through the same layers the shipped binaries use, in closed loop for
// a fixed window, checks the outputs outside that window, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload compact --seed 1 --seconds 15 --trace 0
//
// --trace 1 is the per-layer run: it times the calls into each layer
// from this package's own code (spans kept in memory, written at exit
// under --dir) and reports the per-layer metrics of every workload plus
// host.steal_pct and bench.tracing_overhead_pct. README.md documents
// the workloads, their sizes against the program's caches, and why
// each exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// sizes fixes how much work a run does. Every field is part of the
// benchmark's definition: changing one changes what the numbers mean.
type sizes struct {
	suiteScale   float64 // compact: bench.Profiles() generator scale
	serveScale   float64 // serve-*: 126.gcc-like generator scale
	hotFuncs     int     // serve-hot: hottest functions requested
	segments     int     // serve-mixed: segments the mount is written as
	warmReqs     int     // serve-*: warm-up requests per client
	sessionCalls int     // ingest-live: calls in one session's WPP
	perMount     int     // ingest-live: sessions sealed into one mount
	heapSessions int     // ingest-live: producer sessions peak_heap_mb covers
	setupReps    int     // setups per untraced run; setup_s is their median
	layerReps    int     // in-process repetitions behind each per-layer timing
	scanFuncs    int     // compact: hottest functions per profile in the scan/extract ratio
	readReps     int     // compact: read-back passes over the checked op's containers
	sideWindow   time.Duration
}

// fullSizes is the benchmark; tinySizes keeps the smoke test fast.
var (
	fullSizes = sizes{
		suiteScale: 0.25, serveScale: 0.25, hotFuncs: 32, segments: 16, warmReqs: 300,
		sessionCalls: 1500, perMount: 16, heapSessions: 128, setupReps: 3, layerReps: 40, scanFuncs: 20,
		readReps: 300, sideWindow: 2 * time.Second,
	}
	tinySizes = sizes{
		suiteScale: 0.01, serveScale: 0.02, hotFuncs: 8, segments: 4, warmReqs: 20,
		sessionCalls: 60, perMount: 4, heapSessions: 4, setupReps: 2, layerReps: 3, scanFuncs: 3,
		readReps: 1, sideWindow: 200 * time.Millisecond,
	}
)

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	dir      string // scratch root: containers, spans, run log
	sz       sizes
	start    time.Time // process start, for setup_s
	log      io.Writer // the human-readable report
}

// runner is one workload after setup.
type runner interface {
	// run drives closed-loop load for d; tr is nil outside the traced
	// run.
	run(tr *tracer, d time.Duration) *window
	// check verifies outputs after the window; each failure marks one
	// op failed. It may fill w.reads.
	check(w *window)
	// factor is the compaction factor: raw WPP bytes over stored bytes.
	factor() float64
	// layers adds the workload's per-layer metrics, timing in-process
	// layer calls under tr.
	layers(tr *tracer, w *window, m metrics) error
	close() error
}

type workload struct {
	name  string
	setup func(c *config, dir string) (runner, error)
}

var workloads = []workload{
	{"compact", setupCompact},
	{"serve-hot", setupServeHot},
	{"serve-mixed", setupServeMixed},
	{"ingest-live", setupIngest},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	start := time.Now()
	c := config{start: start, sz: fullSizes, log: os.Stdout}
	var secs float64
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "compact, serve-hot, serve-mixed or ingest-live")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&secs, "seconds", 15, "measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the per-layer traced run")
	flag.StringVar(&c.dir, "dir", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	flag.Parse()
	c.window = time.Duration(secs * float64(time.Second))
	c.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := runBench(&c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runBench runs one benchmark invocation in a private scratch directory
// that it removes afterwards.
func runBench(c *config) (*result, error) {
	wl, ok := findWorkload(c.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.window <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(c.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var res *result
	if c.trace {
		res, err = runTraced(c, scratch)
	} else {
		res, err = runUntraced(c, wl, scratch)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runUntraced measures the end-to-end metrics of one workload. It sets
// the workload up setupReps times and reports the median as setup_s;
// each set-up is timed as the first one is, from process start: the
// start-up before the first set-up plus the set-up itself.
func runUntraced(c *config, wl workload, scratch string) (*result, error) {
	var setups []float64
	var b runner
	boot := time.Since(c.start)
	for r := 0; r < c.sz.setupReps; r++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		b, err = wl.setup(c, filepath.Join(scratch, fmt.Sprintf("setup%d", r)))
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		// Setup garbage is collected here, not inside the window.
		runtime.GC()
		setups = append(setups, (boot + time.Since(t0)).Seconds())
	}
	defer b.close()

	w := b.run(nil, c.window)
	b.check(w)

	m := metrics{}
	m.set("setup_s", "s", median(setups))
	m.set("ops_s", "1/s", w.opsPerSec())
	m.set("op_p50_ms", "ms", durQuantile(w.lat, 0.5, time.Millisecond))
	m.set("op_p90_ms", "ms", durQuantile(w.lat, 0.9, time.Millisecond))
	m.set("peak_heap_mb", "MB", float64(int64(w.peakHeap)-int64(w.baseHeap))/1e6)
	m.set("compaction_factor", "x", b.factor())
	m.set("read_p50_ms", "ms", durQuantile(w.reads, 0.5, time.Millisecond))
	m.set("read_p90_ms", "ms", durQuantile(w.reads, 0.9, time.Millisecond))

	fmt.Fprintf(c.log, "workload %s: %d ops (%d failed), %d timed in %.3fs, %d reads timed, setups %v\n",
		wl.name, w.attempted, w.failed, len(w.lat), w.elapsed.Seconds(), len(w.reads), setups)
	report(c, w, m, w.steal)
	return &result{Correct: w.failed == 0, Attempted: w.attempted, Failed: w.failed, Metrics: m}, nil
}

// runTraced measures every workload's per-layer metrics. The named
// workload's window is cut into quarters that alternate untraced and
// traced, so host drift weighs on both sides of
// bench.tracing_overhead_pct alike; the other workloads run a short
// traced window each.
func runTraced(c *config, scratch string) (*result, error) {
	m := metrics{}
	res := &result{Metrics: m}
	cpu0 := readCPUStat()
	var overhead float64
	for _, wl := range workloads {
		tally := func(w *window) {
			res.Attempted += w.attempted
			res.Failed += w.failed
			for _, err := range w.errs {
				fmt.Fprintf(c.log, "%s failure: %v\n", wl.name, err)
			}
		}
		b, err := wl.setup(c, filepath.Join(scratch, wl.name))
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		runtime.GC()
		tr := newTracer()
		var w *window
		if wl.name == c.workload {
			var ops [2]int
			var secs [2]float64
			for q := 0; q < 4; q++ {
				if w != nil {
					tally(w)
				}
				runtime.GC()
				side := q % 2 // 0 untraced, 1 traced
				var t *tracer
				if side == 1 {
					t = tr
				}
				w = b.run(t, c.window/4)
				ops[side] += len(w.lat)
				secs[side] += w.elapsed.Seconds()
			}
			plain, traced := float64(ops[0])/max(secs[0], 1e-9), float64(ops[1])/max(secs[1], 1e-9)
			if plain > 0 {
				overhead = 100 * (plain - traced) / plain
			}
			fmt.Fprintf(c.log, "%s: %.2f ops/s untraced, %.2f ops/s traced\n", wl.name, plain, traced)
		} else {
			w = b.run(tr, c.sz.sideWindow)
		}
		b.check(w)
		if err := b.layers(tr, w, m); err != nil {
			b.close()
			return nil, fmt.Errorf("%s layers: %w", wl.name, err)
		}
		if err := b.close(); err != nil {
			return nil, err
		}
		tally(w)
		printSummary(c.log, wl.name, tr.summary())
		path := filepath.Join(c.dir, fmt.Sprintf("spans-%s-seed%d-%s.jsonl", c.workload, c.seed, wl.name))
		if err := tr.write(path); err != nil {
			return nil, err
		}
	}
	steal := stealPct(cpu0, readCPUStat())
	m.set("host.steal_pct", "%", steal)
	m.set("bench.tracing_overhead_pct", "%", overhead)
	res.Correct = res.Failed == 0
	report(c, &window{attempted: res.Attempted, failed: res.Failed}, m, steal)
	return res, nil
}

// runEnv is recorded with every run so a noisy run can be told apart
// from a regression.
type runEnv struct {
	Workload   string  `json:"workload"`
	Trace      bool    `json:"trace"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
	StealPct   float64 `json:"host_steal_pct"`
	Time       string  `json:"time"`
}

// report prints the environment and every metric, and appends both to
// runs.jsonl under the scratch root.
func report(c *config, w *window, m metrics, steal float64) {
	env := runEnv{
		Workload: c.workload, Trace: c.trace, Seed: c.seed, Seconds: c.window.Seconds(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"),
		GoVersion: runtime.Version(), Revision: os.Getenv("PERFBENCH_REV"), StealPct: steal,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if env.Revision == "" {
		env.Revision = "unknown"
	}
	for _, err := range w.errs {
		fmt.Fprintf(c.log, "failure: %v\n", err)
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(c.log, "  %-46s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(c.log, "env %s\n", envLine)
	rec, _ := json.Marshal(struct {
		Env     runEnv  `json:"env"`
		Failed  int     `json:"failed"`
		Metrics metrics `json:"metrics"`
	}{env, w.failed, m})
	if f, err := os.OpenFile(filepath.Join(c.dir, "runs.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
		fmt.Fprintf(f, "%s\n", rec)
		f.Close()
	}
}
