// Package twpp is the public API of the timestamped whole program path
// (TWPP) library, a reproduction of Zhang & Gupta, "Timestamped Whole
// Program Path Representation and its Applications" (PLDI 2001).
//
// The library covers the full system the paper describes:
//
//   - a tracing substrate: the minilang language, compiled to control
//     flow graphs and executed by an instrumented interpreter that
//     produces whole program paths (WPPs);
//   - the WPP compaction pipeline: partitioning into per-function path
//     traces with a dynamic call graph, redundant trace elimination,
//     dynamic-basic-block dictionaries, and the timestamped (TWPP)
//     representation with arithmetic-series timestamp compression;
//   - an indexed on-disk format answering per-function trace queries
//     with a single seek, plus the uncompacted baseline format;
//   - the Sequitur-based Larus representation as a baseline;
//   - profile-limited data flow analysis: demand-driven GEN-KILL query
//     propagation over timestamp-annotated dynamic CFGs, with three
//     applications — load redundancy detection, the Agrawal-Horgan
//     dynamic slicing algorithms, and dynamic currency determination.
//
// # Quick start
//
//	prog, _ := twpp.Compile(src)
//	run, _ := prog.Trace(nil)
//	t, stats := twpp.Compact(run.WPP)
//	_ = twpp.WriteFile("trace.twpp", t)
//	f, _ := twpp.OpenFile("trace.twpp")
//	hot, _ := f.ExtractFunction(f.Functions()[0])
//
// See the examples/ directory for complete programs.
package twpp

import (
	"context"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/dataflow"
	"twpp/internal/encoding"
	"twpp/internal/interp"
	"twpp/internal/minilang"
	"twpp/internal/segment"
	"twpp/internal/sequitur"
	"twpp/internal/storage"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// Re-exported identifier types.
type (
	// BlockID identifies a basic block within a function (1-based).
	BlockID = cfg.BlockID
	// FuncID identifies a function within a program.
	FuncID = cfg.FuncID
	// Timestamp is a 1-based position within a path trace.
	Timestamp = core.Timestamp
	// Loc is an abstract storage location (scalar variable or array
	// region) used by the dataflow applications.
	Loc = cfg.Loc
)

// Re-exported core representation types.
type (
	// RawWPP is an uncompacted whole program path.
	RawWPP = trace.RawWPP
	// PathTrace is a sequence of block ids.
	PathTrace = wpp.PathTrace
	// CompactStats reports per-stage compaction sizes (Table 2 data).
	CompactStats = wpp.Stats
	// TWPP is the compacted, timestamped whole program path.
	TWPP = core.TWPP
	// FunctionTWPP is one function's unique traces and dictionaries.
	FunctionTWPP = core.FunctionTWPP
	// Seq is a compacted timestamp set (arithmetic series list).
	Seq = core.Seq
	// TGraph is a timestamp-annotated dynamic control flow graph.
	TGraph = dataflow.TGraph
	// File is an opened compacted TWPP file with a per-function index.
	File = wppfile.CompactedFile
)

// CFGMode selects basic-block granularity for compilation.
type CFGMode = cfg.Mode

// CFG granularity options.
const (
	// MaxBlocks groups maximal straight-line statement runs (default;
	// used for trace collection and compaction experiments).
	MaxBlocks = cfg.MaxBlocks
	// PerStatement gives each statement its own block (used by the
	// dataflow, slicing and currency applications, matching the
	// paper's statement-numbered examples).
	PerStatement = cfg.PerStatement
)

// Program is a compiled minilang program ready for traced execution.
type Program struct {
	// CFG holds the per-function control flow graphs.
	CFG *cfg.Program
	// Names lists function names by FuncID.
	Names []string
}

// Compile parses minilang source and builds CFGs with MaxBlocks
// granularity. Use CompileMode for per-statement graphs.
func Compile(src string) (*Program, error) {
	return CompileMode(src, MaxBlocks)
}

// CompileMode parses minilang source and builds CFGs with the given
// granularity.
func CompileMode(src string, mode CFGMode) (*Program, error) {
	parsed, err := minilang.Parse(src)
	if err != nil {
		return nil, err
	}
	built, err := cfg.Build(parsed, mode)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(parsed.Funcs))
	for i, fn := range parsed.Funcs {
		names[i] = fn.Name
	}
	return &Program{CFG: built, Names: names}, nil
}

// FuncByName resolves a function name to its id.
func (p *Program) FuncByName(name string) (FuncID, bool) {
	id, _, ok := p.CFG.FuncByName(name)
	return id, ok
}

// Run is the outcome of a traced execution.
type Run struct {
	// WPP is the collected whole program path.
	WPP *RawWPP
	// Output collects print() values.
	Output []int64
	// Steps counts executed blocks.
	Steps int
}

// Trace executes the program's main function with the given input
// vector (consumed by `read` statements) and collects its WPP.
func (p *Program) Trace(input []int64) (*Run, error) {
	return p.TraceLimits(input, interp.Limits{})
}

// TraceLimits is Trace with explicit execution limits.
func (p *Program) TraceLimits(input []int64, limits interp.Limits) (*Run, error) {
	b := trace.NewBuilder(p.Names)
	res, err := interp.Run(p.CFG, b, input, limits)
	if err != nil {
		return nil, err
	}
	return &Run{WPP: b.Finish(), Output: res.Output, Steps: res.Steps}, nil
}

// Limits bounds a traced execution; zero values select defaults.
type Limits = interp.Limits

// Validate checks a WPP against the program's control flow graphs:
// traces must start at entries, end at exits, and follow CFG edges.
// Run it on traces ingested from elsewhere before compacting or
// analyzing them.
func (p *Program) Validate(w *RawWPP) error {
	return trace.Validate(w, p.CFG)
}

// Compact runs the full compaction pipeline on a raw WPP: partition,
// redundant-trace elimination, DBB dictionaries, and the timestamp
// transformation. The returned stats carry the per-stage sizes.
func Compact(w *RawWPP) (*TWPP, CompactStats) {
	return CompactOpts(w, CompactOptions{Workers: 1})
}

// CompactOptions configures the compaction pipeline.
type CompactOptions struct {
	// Workers bounds the worker pool that fans per-function work
	// (redundant-trace elimination, DBB dictionary discovery, and the
	// timestamp inversion) across goroutines. 0 selects
	// runtime.GOMAXPROCS; 1 runs sequentially. Output is byte-for-byte
	// independent of the worker count.
	Workers int
}

// CompactOpts is Compact with explicit options. The produced TWPP is
// identical for every worker count; only wall-clock time changes.
func CompactOpts(w *RawWPP, opts CompactOptions) (*TWPP, CompactStats) {
	t, stats, err := CompactContext(context.Background(), w, opts)
	if err != nil {
		// Background is never canceled; no other error source exists.
		panic(err)
	}
	return t, stats
}

// CompactContext is CompactOpts with cooperative cancellation: the
// pipeline polls ctx between per-function work items (and every few
// thousand DCG nodes), so canceling abandons a large compaction
// promptly with ctx.Err() and discards the partial result.
func CompactContext(ctx context.Context, w *RawWPP, opts CompactOptions) (*TWPP, CompactStats, error) {
	c, stats, err := wpp.CompactWorkersCtx(ctx, w, opts.Workers)
	if err != nil {
		return nil, CompactStats{}, err
	}
	t, err := core.FromCompactedWorkersCtx(ctx, c, opts.Workers)
	if err != nil {
		return nil, CompactStats{}, err
	}
	return t, stats, nil
}

// Reconstruct inverts Compact, recovering a WPP Linear-equal to the
// original.
func Reconstruct(t *TWPP) (*RawWPP, error) {
	c, err := t.ToCompacted()
	if err != nil {
		return nil, err
	}
	return c.Reconstruct(), nil
}

// WriteFile serializes a TWPP in the compacted indexed file format.
func WriteFile(path string, t *TWPP) error {
	return wppfile.WriteCompacted(path, t)
}

// WriteFileOpts is WriteFile with per-function block encoding fanned
// out over opts.Workers goroutines into pooled buffers. The on-disk
// bytes are identical for every worker count.
func WriteFileOpts(path string, t *TWPP, opts CompactOptions) error {
	return wppfile.WriteCompactedFormat(path, t, opts.Workers, FormatV2)
}

// OpenFile opens a compacted TWPP file with the decode cache disabled,
// reading only its header and function index; per-function extraction
// is a single positioned read.
func OpenFile(path string) (*File, error) {
	return wppfile.OpenCompacted(path)
}

// OpenOptions configures OpenFileOpts: the storage backend
// (Backend), eager checksum verification (VerifyChecksums), the
// decode cache size, the decode resource limits (MaxTraceBytes,
// MaxFuncTraces, MaxSeqValues) enforced against hostile or corrupt
// inputs, and optional Instrument hooks feeding decode-path events to
// a metrics layer.
type OpenOptions = wppfile.OpenOptions

// BackendKind selects how an opened container's bytes are accessed
// (OpenOptions.Backend).
type BackendKind = storage.Kind

// Storage backends for OpenOptions.Backend.
const (
	// BackendFile reads through positioned I/O on a file descriptor
	// (the zero value / default).
	BackendFile = storage.KindFile
	// BackendMmap maps the file read-only into memory; extraction
	// reads become memory copies. Falls back to BackendFile on
	// platforms without mmap support.
	BackendMmap = storage.KindMmap
	// BackendMemory loads the whole file into memory up front.
	BackendMemory = storage.KindMemory
)

// Container formats, as File.FormatVersion reports them.
const (
	// FormatV1 is the legacy compacted layout: implicit sections, no
	// checksums. Still readable; no longer written.
	FormatV1 = wppfile.FormatV1
	// FormatV2 is the sectioned container with a trailer section
	// directory and CRC32-C checksums on every section: what every
	// writer emits.
	FormatV2 = wppfile.FormatV2
)

// Instrument carries optional decode-path callbacks (cache hits, block
// decodes) for OpenOptions.Instrument; the twpp-serve observability
// layer uses it to feed its metrics registry.
type Instrument = wppfile.Instrument

// ErrNoFunction matches (errors.Is) extraction of a function that is
// not in the file's index — a lookup miss, distinct from any decode
// failure.
var ErrNoFunction = wppfile.ErrNoFunction

// NoLimit disables an OpenOptions resource limit; zero values select
// the defaults below.
const (
	NoLimit              = wppfile.NoLimit
	DefaultMaxTraceBytes = wppfile.DefaultMaxTraceBytes
	DefaultMaxFuncTraces = wppfile.DefaultMaxFuncTraces
	DefaultMaxSeqValues  = wppfile.DefaultMaxSeqValues
)

// Structured error types reported by the decode surfaces. DecodeError
// carries a machine-dispatchable code and byte offset (errors.As);
// StreamError classifies malformed trace event streams. The
// ErrTruncated sentinel matches any truncation via errors.Is.
type (
	DecodeError = encoding.Error
	StreamError = trace.StreamError
)

// Decode failure codes (DecodeError.Code).
const (
	CodeTruncated  = encoding.CodeTruncated
	CodeOverflow   = encoding.CodeOverflow
	CodeBadMagic   = encoding.CodeBadMagic
	CodeBadVersion = encoding.CodeBadVersion
	CodeCorrupt    = encoding.CodeCorrupt
	CodeLimit      = encoding.CodeLimit
	CodeChecksum   = encoding.CodeChecksum
)

// ErrTruncated matches (errors.Is) every truncated-input failure.
var ErrTruncated = encoding.ErrTruncated

// OpenFileOpts is OpenFile with options: OpenOptions.CacheEntries > 0
// enables a sharded LRU cache of decoded per-function blocks, so
// repeated hot-function extractions skip both I/O and decode. The
// returned File is safe for concurrent use; with the cache enabled,
// extracted blocks are shared and must be treated as read-only.
func OpenFileOpts(path string, opts OpenOptions) (*File, error) {
	return wppfile.OpenCompactedOptions(path, opts)
}

// Container is the read surface shared by a single compacted file
// (*File) and a segmented container (*SegmentedFile): per-function
// extraction, the DCG, section sizes, and cache statistics, agnostic
// of the on-disk layout. OpenContainer returns one.
type Container = wppfile.Container

// SegmentedFile is an opened segmented container: a directory holding
// a manifest plus sealed v2 segment files. Queries merge per-segment
// results transparently; a background SegmentMerger can fold segments
// underneath concurrent readers without blocking them.
type SegmentedFile = segment.Set

// SegmentOptions sizes the segments CompactSegmented seals.
type SegmentOptions = segment.WriteOptions

// SegmentMergeOptions configures NewSegmentMerger.
type SegmentMergeOptions = segment.MergeOptions

// SegmentMerger folds adjacent small segments into larger ones at the
// next manifest generation, atomically and concurrently with readers.
type SegmentMerger = segment.Merger

// CompactSegmented seals t into dir as a new segmented container:
// hottest functions pack first, functions larger than the per-segment
// budget split into trace windows, and the manifest commits the
// container atomically.
func CompactSegmented(dir string, t *TWPP, opts SegmentOptions) error {
	_, err := segment.Write(dir, t, opts)
	return err
}

// OpenSegmented opens a segmented container directory.
func OpenSegmented(dir string, opts OpenOptions) (*SegmentedFile, error) {
	return segment.Open(dir, opts)
}

// NewSegmentMerger returns a Merger folding s's segments in the
// background; see SegmentMerger.MergeOnce and Run.
func NewSegmentMerger(s *SegmentedFile, opts SegmentMergeOptions) *SegmentMerger {
	return segment.NewMerger(s, opts)
}

// IsSegmented reports whether path is a segmented-container directory.
func IsSegmented(path string) bool {
	return segment.IsSegmented(path)
}

// OpenContainer opens path as whichever container kind it is: a
// directory with a manifest opens as a segmented container, anything
// else as a single compacted file.
func OpenContainer(path string, opts OpenOptions) (Container, error) {
	if segment.IsSegmented(path) {
		return segment.Open(path, opts)
	}
	return wppfile.OpenCompactedOptions(path, opts)
}

// WriteRawFile serializes a WPP in the uncompacted linear format (the
// slow-extraction baseline of the paper's Table 4).
func WriteRawFile(path string, w *RawWPP) error {
	return wppfile.WriteRaw(path, w)
}

// ReadRawFile parses an uncompacted WPP file.
func ReadRawFile(path string) (*RawWPP, error) {
	return wppfile.ReadRaw(path)
}

// ScanRawFile extracts one function's path traces from an uncompacted
// file by scanning all of it.
func ScanRawFile(path string, fn FuncID) ([]PathTrace, error) {
	return wppfile.ScanRawForFunction(path, fn)
}

// CompressSequitur compresses a WPP's linear symbol stream with
// Sequitur, the Larus (PLDI 1999) baseline representation.
func CompressSequitur(w *RawWPP) *sequitur.CompressedWPP {
	return sequitur.CompressWPP(w.Linear())
}

// DynamicCFG expands one unique trace of a function through its DBB
// dictionary and builds the timestamp-annotated dynamic control flow
// graph used by the profile-limited analyses.
func DynamicCFG(ft *FunctionTWPP, traceIdx int) (*TGraph, error) {
	return dataflow.Build(ft, traceIdx)
}

// DynamicCFGFromPath builds a timestamp-annotated dynamic CFG directly
// from an expanded path trace.
func DynamicCFGFromPath(path PathTrace) *TGraph {
	return dataflow.BuildFromPath(path)
}
