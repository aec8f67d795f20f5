package twpp_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"twpp"
	"twpp/internal/bench"
	"twpp/internal/testkit"
	"twpp/internal/wppfile"
)

// miniaturize shrinks a benchmark profile for the exhaustive sweep:
// every structural property is preserved (body style, hot/cold skew,
// unique-trace tail, nested calls) but function counts and loop bounds
// come down so the encoded images are a few KB — small enough to flip
// every bit and truncate at every offset while decoding after each
// mutation.
func miniaturize(p bench.Profile) bench.Profile {
	if p.NumFuncs > 8 {
		p.NumFuncs = 8
	}
	if p.MaxVariants > 6 {
		p.MaxVariants = 6
	}
	if p.LoopLo > 6 {
		p.LoopLo = 6
	}
	if p.LoopHi > p.LoopLo+4 {
		p.LoopHi = p.LoopLo + 4
	}
	p.DeadFuncs = 6
	return p
}

// profileImages traces every example benchmark profile (miniaturized)
// and returns the encoded raw and compacted images, keyed by profile
// name. These are the "all example profiles" inputs of the exhaustive
// corruption sweep.
func profileImages(t *testing.T) map[string][2][]byte {
	t.Helper()
	out := make(map[string][2][]byte)
	for _, p := range bench.Profiles() {
		p = miniaturize(p)
		prog, err := twpp.Compile(p.Generate(0.002))
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		run, err := prog.Trace(nil)
		if err != nil {
			t.Fatalf("%s: trace: %v", p.Name, err)
		}
		raw, compacted, err := testkit.EncodeBoth(run.WPP)
		if err != nil {
			t.Fatalf("%s: encode: %v", p.Name, err)
		}
		out[p.Name] = [2][]byte{raw, compacted}
	}
	return out
}

// TestExhaustiveCorruptionSweep is the acceptance sweep: a bit flip at
// every offset (all 8 bits) and a truncation at every length, over the
// raw and compacted encodings of every example profile, driven through
// both the batch and streaming decode paths. Every mutation must
// produce either a clean decode or a structured error — zero panics,
// zero stringly-typed failures — with allocations bounded by the
// default decode limits. Strided pre-merge sweeps live in the package
// tests; this one is exhaustive and so runs only with -long or in ci
// (go test -timeout suffices: tiny-scale images keep it to seconds).
func TestExhaustiveCorruptionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	for name, imgs := range profileImages(t) {
		name, imgs := name, imgs
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			raw, compacted := imgs[0], imgs[1]
			dir := t.TempDir()

			rawCheck := func(m testkit.Mutation) {
				if err := testkit.CheckRawDecode(dir, m.Data); err != nil {
					t.Fatalf("raw %s: %v", m.Desc, err)
				}
			}
			testkit.SweepTruncations(raw, 1, rawCheck)
			testkit.SweepBitFlips(raw, 1, rawCheck)

			compactedCheck := func(m testkit.Mutation) {
				if err := testkit.CheckCompactedDecode(dir, m.Data, wppfile.OpenOptions{}); err != nil {
					t.Fatalf("compacted %s: %v", m.Desc, err)
				}
			}
			testkit.SweepTruncations(compacted, 1, compactedCheck)
			testkit.SweepBitFlips(compacted, 1, compactedCheck)
			testkit.SweepInflations(compacted, 1, compactedCheck)
		})
	}
}

// TestFacadeRoundTripAllProfiles pins the end-to-end identity across
// the facade on every example profile: batch file, streaming file, and
// the extract-vs-scan agreement oracle.
func TestFacadeRoundTripAllProfiles(t *testing.T) {
	for _, p := range bench.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := twpp.Compile(p.Generate(0.005))
			if err != nil {
				t.Fatal(err)
			}
			run, err := prog.Trace(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := testkit.RoundTrip(run.WPP); err != nil {
				t.Errorf("RoundTrip: %v", err)
			}
			if err := testkit.BatchStreamParity(run.WPP, 0); err != nil {
				t.Errorf("BatchStreamParity: %v", err)
			}
			if err := testkit.ExtractVsRawScan(run.WPP); err != nil {
				t.Errorf("ExtractVsRawScan: %v", err)
			}
		})
	}
}

// Cancellation must propagate as context.Canceled through every
// long-running facade entry point, and a canceled streaming compaction
// must not leave a partial output file behind.
func TestCompactCancellation(t *testing.T) {
	w := testkit.Generate(testkit.Config{Seed: 9, Shape: testkit.Irregular, Calls: 200})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, err := twpp.CompactContext(ctx, w, twpp.CompactOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("CompactContext: want context.Canceled, got %v", err)
	}

	raw := bytes.NewReader(encodeRaw(t, w))
	var out bytes.Buffer
	if _, err := twpp.StreamCompactContext(ctx, raw, &out, twpp.CompactOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("StreamCompactContext: want context.Canceled, got %v", err)
	}

	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.wpp")
	if err := twpp.WriteRawFile(inPath, w); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.twpp")
	if _, err := twpp.StreamCompactFileContext(ctx, inPath, outPath, twpp.CompactOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("StreamCompactFileContext: want context.Canceled, got %v", err)
	}
	if _, err := os.Stat(outPath); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("canceled stream compact left partial output: %v", err)
	}

	// A live context must still work end to end.
	if _, _, err := twpp.CompactContext(context.Background(), w, twpp.CompactOptions{}); err != nil {
		t.Errorf("live CompactContext: %v", err)
	}
}

// The resource-limit re-exports must reach the facade so callers never
// import internal packages for hardening knobs.
func TestFacadeLimitReexports(t *testing.T) {
	w := testkit.Generate(testkit.Config{Seed: 2, Shape: testkit.Regular})
	tw, _ := twpp.Compact(w)
	p := filepath.Join(t.TempDir(), "lim.twpp")
	if err := twpp.WriteFile(p, tw); err != nil {
		t.Fatal(err)
	}
	_, err := twpp.OpenFileOpts(p, twpp.OpenOptions{MaxTraceBytes: 2})
	var de *twpp.DecodeError
	if !errors.As(err, &de) || de.Code != twpp.CodeLimit {
		t.Fatalf("want DecodeError with CodeLimit, got %v", err)
	}
	f, err := twpp.OpenFileOpts(p, twpp.OpenOptions{MaxTraceBytes: twpp.NoLimit})
	if err != nil {
		t.Fatalf("NoLimit open: %v", err)
	}
	f.Close()
}

func encodeRaw(t *testing.T, w *twpp.RawWPP) []byte {
	t.Helper()
	p := filepath.Join(t.TempDir(), "enc.wpp")
	if err := twpp.WriteRawFile(p, w); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
