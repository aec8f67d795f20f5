package wppfile_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/testkit"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// The corruption sweeps drive every decode surface over systematically
// damaged images via the shared fault-injection kit: any panic or any
// unstructured (stringly-typed) error fails the test. The exhaustive
// every-offset sweep over all shapes lives in the root hardening test;
// these keep per-package coverage fast with strided sweeps.

func sweepImages(t *testing.T, shape testkit.Shape) (raw, compacted []byte) {
	t.Helper()
	w := testkit.Generate(testkit.Config{Seed: 100 + int64(shape), Shape: shape})
	raw, compacted, err := testkit.EncodeBoth(w)
	if err != nil {
		t.Fatal(err)
	}
	return raw, compacted
}

func TestCompactedCorruptionSweep(t *testing.T) {
	for _, shape := range []testkit.Shape{testkit.Regular, testkit.Irregular, testkit.DeepRecursion} {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			_, compacted := sweepImages(t, shape)
			dir := t.TempDir()
			check := func(m testkit.Mutation) {
				if err := testkit.CheckCompactedDecode(dir, m.Data, wppfile.OpenOptions{}); err != nil {
					t.Fatalf("%s: %v", m.Desc, err)
				}
			}
			testkit.SweepTruncations(compacted, 1+len(compacted)/256, check)
			testkit.SweepBitFlips(compacted, 1+len(compacted)/128, check)
			testkit.SweepInflations(compacted, 1+len(compacted)/128, check)
			testkit.SweepSplices(compacted, 1+len(compacted)/128, check)
		})
	}
}

func TestRawCorruptionSweep(t *testing.T) {
	for _, shape := range []testkit.Shape{testkit.Regular, testkit.Irregular} {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			raw, _ := sweepImages(t, shape)
			dir := t.TempDir()
			check := func(m testkit.Mutation) {
				if err := testkit.CheckRawDecode(dir, m.Data); err != nil {
					t.Fatalf("%s: %v", m.Desc, err)
				}
			}
			testkit.SweepTruncations(raw, 1+len(raw)/256, check)
			testkit.SweepBitFlips(raw, 1+len(raw)/128, check)
			testkit.SweepInflations(raw, 1+len(raw)/128, check)
			testkit.SweepSplices(raw, 1+len(raw)/128, check)
		})
	}
}

// Every strict prefix of a raw file must fail to read: the symbol
// stream always ends mid-call or mid-varint except at full length.
func TestRawTruncationAlwaysErrors(t *testing.T) {
	raw, _ := sweepImages(t, testkit.Periodic)
	dir := t.TempDir()
	p := filepath.Join(dir, "trunc.wpp")
	testkit.SweepTruncations(raw, 1, func(m testkit.Mutation) {
		if err := os.WriteFile(p, m.Data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := wppfile.ReadRaw(p); err == nil {
			t.Errorf("%s: read without error", m.Desc)
		}
	})
}

// TestEncodeCompactedDegenerate covers the degenerate single-call WPP.
func TestEncodeCompactedDegenerate(t *testing.T) {
	tw := tinyTWPP()
	p := filepath.Join(t.TempDir(), "tiny.twpp")
	if err := wppfile.WriteCompacted(p, tw); err != nil {
		t.Fatal(err)
	}
	cf, err := wppfile.OpenCompacted(p)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	tw2, err := cf.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tw2.Funcs) != 1 || tw2.Funcs[0].CallCount != 1 {
		t.Errorf("degenerate round trip: %+v", tw2.Funcs)
	}
}

// ReadAll rejects a DCG row naming a function or trace the container
// lacks as corrupt, including a function id whose varint decodes
// negative, rather than indexing with it.
func TestReadAllRejectsMissingReference(t *testing.T) {
	for _, bad := range []struct {
		fn    cfg.FuncID
		trace int
	}{{-1, 0}, {5, 0}, {0, 3}} {
		tw := tinyTWPP()
		tw.DCG.Fn[0], tw.DCG.Trace[0] = bad.fn, bad.trace
		data, err := wppfile.EncodeCompactedWorkers(tw, 1)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := wppfile.OpenCompactedBytes(data, wppfile.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = cf.ReadAll()
		var de *encoding.Error
		if !errors.As(err, &de) || de.Code != encoding.CodeCorrupt {
			t.Errorf("call of function %d trace %d: ReadAll error %v, want corrupt", bad.fn, bad.trace, err)
		}
		cf.Close()
	}
}

// tinyTWPP is the degenerate single-call TWPP.
func tinyTWPP() *core.TWPP {
	return &core.TWPP{
		FuncNames: []string{"main"},
		DCG:       trace.DCG{Fn: []cfg.FuncID{0}, Trace: []int{0}, Pos: []int{0}, End: []int{1}},
		Funcs: []core.FunctionTWPP{{
			Fn:        0,
			Traces:    []*core.Trace{core.FromPath(wpp.PathTrace{1})},
			Dicts:     []wpp.Dictionary{{}},
			DictOf:    []int{0},
			CallCount: 1,
		}},
	}
}
