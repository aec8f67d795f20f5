// Package testkit is the shared fault-injection test kit for the WPP
// pipeline: a deterministic seeded generator of whole program paths
// (covering the benchmark profile styles plus pathological shapes), a
// corruption injector over encoded images (bit flips, truncation,
// splices, length-field inflation), and invariant oracles (round-trip
// identity, batch-vs-stream byte equality, extract-vs-raw-scan
// agreement, structured-error discipline) that every decode surface is
// exercised against. It lives below the public facade so the wppfile,
// encoding, and root test suites can all drive the same kit.
package testkit

import (
	"fmt"
	"math/rand"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// Shape selects the control structure of a generated WPP.
type Shape int

const (
	// Regular mirrors the benchmark profiles with few unique traces:
	// fixed straight-line loop bodies, high redundancy.
	Regular Shape = iota
	// Periodic alternates two branch arms with a fixed period, the
	// go/compress-style profiles.
	Periodic
	// Irregular drives branches from the seeded rng, the gcc-style
	// profiles with many unique traces.
	Irregular
	// DeepRecursion nests calls hundreds of frames deep, stressing the
	// DCG encoders and any recursive walker.
	DeepRecursion
	// SingleBlock makes every call's path trace exactly one block, the
	// degenerate minimum the DBB pass must not mangle.
	SingleBlock
	// MaxChain emits strictly increasing block chains so each whole
	// trace collapses into a single maximal dynamic basic block.
	MaxChain
	// SeriesBoundary crafts traces whose timestamp sets hit the
	// arithmetic-series encoding edges: singletons, two-element runs,
	// step>1 series, and a block on every timestamp.
	SeriesBoundary
)

// String names the shape for test labels.
func (s Shape) String() string {
	switch s {
	case Regular:
		return "regular"
	case Periodic:
		return "periodic"
	case Irregular:
		return "irregular"
	case DeepRecursion:
		return "deep-recursion"
	case SingleBlock:
		return "single-block"
	case MaxChain:
		return "max-chain"
	case SeriesBoundary:
		return "series-boundary"
	default:
		return fmt.Sprintf("shape(%d)", int(s))
	}
}

// Shapes lists every generator shape, for table-driven sweeps.
func Shapes() []Shape {
	return []Shape{Regular, Periodic, Irregular, DeepRecursion, SingleBlock, MaxChain, SeriesBoundary}
}

// Config parameterizes Generate. Zero values select the defaults.
type Config struct {
	// Seed drives every random choice; equal configs generate equal
	// WPPs.
	Seed int64
	// Shape selects the control structure.
	Shape Shape
	// Funcs is the number of functions (>= 2; default 5).
	Funcs int
	// Calls is the number of non-root calls (for DeepRecursion, the
	// nesting depth; default 24).
	Calls int
	// MaxLen bounds the block count of one call's path trace
	// (default 64).
	MaxLen int
}

func (c Config) withDefaults() Config {
	if c.Funcs < 2 {
		c.Funcs = 5
	}
	if c.Calls <= 0 {
		c.Calls = 24
	}
	if c.MaxLen <= 0 {
		c.MaxLen = 64
	}
	return c
}

// Generate builds a structurally valid raw WPP deterministically from
// cfg. The result always has one root call of function 0 and function
// names "f0".."fN".
func Generate(c Config) *trace.RawWPP {
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	names := make([]string, c.Funcs)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	b := trace.NewBuilder(names)

	if c.Shape == DeepRecursion {
		// A call chain c.Calls deep, each frame sandwiching its callee
		// between two blocks; functions cycle so every one recurs.
		depth := c.Calls
		for i := 0; i < depth; i++ {
			b.EnterCall(cfg.FuncID(i % c.Funcs))
			b.Block(cfg.BlockID(1 + i%3))
		}
		b.Block(2)
		for i := depth - 1; i >= 0; i-- {
			if i%2 == 0 {
				b.Block(cfg.BlockID(4 + i%2))
			}
			b.ExitCall()
		}
		return b.Finish()
	}

	// All other shapes: a root call of f0 interleaving its own blocks
	// with calls to the worker functions.
	b.EnterCall(0)
	b.Block(1)
	for i := 0; i < c.Calls; i++ {
		fn := cfg.FuncID(1 + i%(c.Funcs-1))
		b.EnterCall(fn)
		for _, id := range workerPath(c, rng, int(fn), i) {
			b.Block(id)
		}
		b.ExitCall()
		if i%3 == 0 {
			b.Block(cfg.BlockID(2 + i%2))
		}
	}
	b.Block(3)
	b.ExitCall()
	return b.Finish()
}

// workerPath produces one call's path trace for the shape.
func workerPath(c Config, rng *rand.Rand, fn, call int) []cfg.BlockID {
	switch c.Shape {
	case Periodic:
		// Head, then arms alternating with a per-function period, then
		// tail: few unique traces, periodic timestamp sets.
		period := 2 + fn%3
		n := c.MaxLen / 4
		out := []cfg.BlockID{1}
		for i := 0; i < n; i++ {
			if i%period == 0 {
				out = append(out, 2, 3)
			} else {
				out = append(out, 4, 5)
			}
			out = append(out, 6)
		}
		return append(out, 7)
	case Irregular:
		// Random arm per iteration: many unique traces per function.
		n := 2 + rng.Intn(c.MaxLen/3+1)
		out := []cfg.BlockID{1}
		for i := 0; i < n; i++ {
			out = append(out, cfg.BlockID(2+rng.Intn(6)), 8)
		}
		return append(out, 9)
	case SingleBlock:
		// One block per call; a couple of variants so dedup still has
		// work to do.
		return []cfg.BlockID{cfg.BlockID(1 + call%3)}
	case MaxChain:
		// A strictly increasing chain: every block exactly once, so the
		// whole trace is one maximal DBB.
		n := c.MaxLen
		out := make([]cfg.BlockID, n)
		for i := range out {
			out[i] = cfg.BlockID(i + 1)
		}
		return out
	case SeriesBoundary:
		// Timestamp-set edge cases within one trace: block 1 on every
		// position ≡ 0 (mod 3) — a step-3 series; block 2 a singleton;
		// block 3 a two-element run; block 4 the dense filler.
		n := c.MaxLen
		out := make([]cfg.BlockID, 0, n)
		for i := 0; i < n; i++ {
			switch {
			case i%3 == 0:
				out = append(out, 1)
			case i == 1:
				out = append(out, 2)
			case i == 4 || i == 5:
				out = append(out, 3)
			default:
				out = append(out, 4)
			}
		}
		return out
	default: // Regular
		// A fixed loop body per function, repetition count in a narrow
		// band: high redundancy, long runs.
		body := []cfg.BlockID{2, 3, 4}
		reps := 2 + (call%2)*2 + fn%2
		out := []cfg.BlockID{1}
		for r := 0; r < reps && len(out)+len(body) < c.MaxLen; r++ {
			out = append(out, body...)
		}
		return append(out, 5)
	}
}

// Corpus generates one WPP per shape from the given seed, the standard
// input set for sweep tests and fuzz seeding.
func Corpus(seed int64) map[Shape]*trace.RawWPP {
	out := make(map[Shape]*trace.RawWPP, len(Shapes()))
	for _, s := range Shapes() {
		cfg := Config{Seed: seed + int64(s), Shape: s}
		if s == DeepRecursion {
			cfg.Calls = 300
		}
		out[s] = Generate(cfg)
	}
	return out
}

// ExpansionProbe is a one-function TWPP that is small compacted and
// huge expanded: main's one trace is head block 1 repeated 2^20
// times, and head 1's dictionary chain is the blocks 1..1000. Encoded
// as v2 it is 1,955 bytes; expanded it is about 10^9 blocks, seconds
// of diff identity hashing.
func ExpansionProbe() *core.TWPP {
	path := make(wpp.PathTrace, 1<<20)
	for i := range path {
		path[i] = 1
	}
	chain := make(wpp.PathTrace, 1000)
	for i := range chain {
		chain[i] = cfg.BlockID(i + 1)
	}
	return &core.TWPP{
		FuncNames: []string{"main"},
		DCG:       trace.DCG{Fn: []cfg.FuncID{0}, Trace: []int{0}, Pos: []int{0}, End: []int{1}},
		Funcs: []core.FunctionTWPP{{
			Traces:    []*core.Trace{core.FromPath(path)},
			Dicts:     []wpp.Dictionary{{1: chain}},
			DictOf:    []int{0},
			CallCount: 1,
		}},
	}
}
