// Command twpp-compact converts a raw WPP file into the compacted,
// indexed TWPP format, reporting the per-stage compaction factors of
// the paper's Table 2. It can also produce the Sequitur (Larus)
// baseline representation for comparison.
//
// Usage:
//
//	twpp-compact -in trace.wpp [-o trace.twpp] [-j workers] [-stream]
//	             [-segment-bytes n] [-verify] [-sequitur trace.seq]
//
// The output is a format v2 container (sectioned, with checksums).
// -segment-bytes writes a segmented container directory of sealed v2
// segments with roughly that many bytes each, instead of one file; the
// default output name then gains a .twppd suffix. -verify reopens the
// output after writing and checks it end to end: every section
// checksum, plus a full decode of the call graph and every function's
// blocks. Verification failures exit with the same structured codes as
// reads (3 corrupt, 4 truncated, 5 limit).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"twpp"
	"twpp/internal/cli"
)

// compactConfig carries the validated flag values run consumes.
type compactConfig struct {
	in       string
	out      string
	seq      string
	workers  int
	segBytes int64
	stream   bool
	verify   bool
	verbose  bool
}

func main() {
	var c compactConfig
	flag.StringVar(&c.in, "in", "", "input raw WPP file (required)")
	flag.StringVar(&c.out, "o", "", "output compacted TWPP file (default: input with .twpp)")
	flag.StringVar(&c.seq, "sequitur", "", "also write the Sequitur-compressed baseline here")
	flag.IntVar(&c.workers, "j", 0, "compaction worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	flag.Int64Var(&c.segBytes, "segment-bytes", 0, "write a segmented container directory with this per-segment byte budget (0 = single file)")
	flag.BoolVar(&c.stream, "stream", false, "streaming pipeline: bounded-memory ingestion, identical output")
	flag.BoolVar(&c.verify, "verify", false, "reopen the output and verify checksums plus a full decode")
	flag.BoolVar(&c.verbose, "v", true, "print compaction statistics")
	flag.Parse()
	// Interrupt (ctrl-C) cancels the pipeline cooperatively: partial
	// output is removed and the tool exits with cli.ExitCanceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, c)
	stop()
	cli.Exit("twpp-compact", err)
}

func run(ctx context.Context, c compactConfig) error {
	in, out, seqPath := c.in, c.out, c.seq
	verbose := c.verbose
	if in == "" {
		return cli.Usagef("missing -in")
	}
	segmented := c.segBytes > 0
	if out == "" {
		if segmented {
			out = in + ".twppd"
		} else {
			out = in + ".twpp"
		}
	}
	opts := twpp.CompactOptions{Workers: c.workers}
	segOpts := twpp.SegmentOptions{SegmentBytes: c.segBytes, Workers: c.workers}
	var (
		stats         twpp.CompactStats
		traceB, dictB int
		w             *twpp.RawWPP
	)
	if c.stream {
		if seqPath != "" {
			return cli.Usagef("-sequitur needs the whole WPP in memory; drop -stream")
		}
		var res *twpp.StreamResult
		var err error
		if segmented {
			res, err = twpp.StreamCompactSegmentedFileContext(ctx, in, out, segOpts, opts)
		} else {
			res, err = twpp.StreamCompactFileContext(ctx, in, out, opts)
		}
		if err != nil {
			return err
		}
		stats, traceB, dictB = res.Stats, res.TraceBytes, res.DictBytes
	} else {
		var err error
		w, err = twpp.ReadRawFile(in)
		if err != nil {
			return err
		}
		tw, s, err := twpp.CompactContext(ctx, w, opts)
		if err != nil {
			return err
		}
		if segmented {
			err = twpp.CompactSegmented(out, tw, segOpts)
		} else {
			err = twpp.WriteFileOpts(out, tw, opts)
		}
		if err != nil {
			return err
		}
		stats = s
		traceB, dictB = tw.SizeStats()
	}
	if c.verify {
		if err := verifyOutput(out); err != nil {
			return err
		}
		if verbose {
			fmt.Printf("verified %s: all section checksums and decodes ok\n", out)
		}
	}
	if verbose {
		fmt.Printf("raw traces:          %10d bytes\n", stats.RawTraceBytes)
		fmt.Printf("after redundancy:    %10d bytes (x%.2f)\n", stats.AfterRedundancy,
			float64(stats.RawTraceBytes)/float64(stats.AfterRedundancy))
		fmt.Printf("after dictionaries:  %10d bytes (x%.2f)\n", stats.AfterDictionary,
			float64(stats.AfterRedundancy)/float64(stats.AfterDictionary))
		fmt.Printf("compacted TWPP:      %10d bytes (x%.2f)\n", traceB+dictB,
			float64(stats.AfterDictionary)/float64(traceB+dictB))
		fmt.Printf("calls %d, unique traces %d\n", stats.Calls, stats.UniqueTraces)
		if fi, err := os.Stat(out); err == nil {
			fmt.Printf("wrote %s (%d bytes on disk)\n", out, fi.Size())
		}
	}
	if seqPath != "" {
		c := twpp.CompressSequitur(w)
		if err := os.WriteFile(seqPath, c.Data, 0o644); err != nil {
			return err
		}
		if verbose {
			fmt.Printf("wrote %s (%d bytes, Sequitur baseline)\n", seqPath, c.Size())
		}
	}
	return nil
}

// verifyOutput reopens the freshly written container and proves it
// readable end to end: eager section-checksum verification at open
// (v2), then a full decode of the dynamic call graph and of every
// function's trace block. Segmented directories get the same sweep
// through the merged read surface, so every sealed segment is
// checked. Errors keep their structured decode classes so
// cli.ExitCode reports 3/4/5 exactly as a later reader would.
func verifyOutput(path string) error {
	f, err := twpp.OpenContainer(path, twpp.OpenOptions{VerifyChecksums: true})
	if err != nil {
		return fmt.Errorf("verify %s: %w", path, err)
	}
	defer f.Close()
	if _, err := f.ReadDCG(); err != nil {
		return fmt.Errorf("verify %s: call graph: %w", path, err)
	}
	for _, fn := range f.Functions() {
		if _, err := f.ExtractFunction(fn); err != nil {
			return fmt.Errorf("verify %s: function %d: %w", path, fn, err)
		}
	}
	return nil
}
