package testkit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"twpp/internal/core"
	"twpp/internal/segment"
	"twpp/internal/storage"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// CheckSegmentedParity is the segmented-container oracle: splitting a
// compaction across segments, querying it through segment.Set, and
// folding it back down must all reproduce the single-file container
// exactly.
//
// Concretely, over the given storage backend it checks that
//   - per-function extraction from the segmented container (both the
//     allocating and the pooled path) equals single-file extraction,
//   - Set.ReadAll re-encodes to the single-file bytes,
//   - merging all segments yields one segment whose file bytes are
//     identical to the single-file container, and
//   - extraction parity still holds after the merge.
func CheckSegmentedParity(w *trace.RawWPP, kind storage.Kind) (vErr error) {
	dir, err := os.MkdirTemp("", "testkit-seg-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	c, _ := wpp.Compact(w)
	t := core.FromCompacted(c)
	ref, err := wppfile.EncodeCompactedFormat(t, 1, wppfile.FormatV2)
	if err != nil {
		return fmt.Errorf("reference encode: %w", err)
	}
	refPath := filepath.Join(dir, "ref.twpp")
	if err := os.WriteFile(refPath, ref, 0o644); err != nil {
		return err
	}
	opts := wppfile.OpenOptions{Backend: kind, VerifyChecksums: true}
	cf, err := wppfile.OpenCompactedOptions(refPath, opts)
	if err != nil {
		return fmt.Errorf("open reference: %w", err)
	}
	defer cf.Close()

	segDir := filepath.Join(dir, "seg")
	if _, err := segment.Write(segDir, t, segment.WriteOptions{Segments: 4, Workers: 1}); err != nil {
		return fmt.Errorf("segmented write: %w", err)
	}
	set, err := segment.Open(segDir, opts)
	if err != nil {
		return fmt.Errorf("open segmented: %w", err)
	}
	defer func() {
		if err := set.Close(); err != nil && vErr == nil {
			vErr = err
		}
	}()

	parity := func(stage string) error {
		fns := cf.Functions()
		got := set.Functions()
		if len(got) != len(fns) {
			return fmt.Errorf("%s: %d functions, want %d", stage, len(got), len(fns))
		}
		for i, fn := range fns {
			if got[i] != fn {
				return fmt.Errorf("%s: function order[%d] = %d, want %d", stage, i, got[i], fn)
			}
			a, err := cf.ExtractFunction(fn)
			if err != nil {
				return fmt.Errorf("%s: reference extract fn %d: %w", stage, fn, err)
			}
			b, err := set.ExtractFunction(fn)
			if err != nil {
				return fmt.Errorf("%s: segmented extract fn %d: %w", stage, fn, err)
			}
			if err := EqualFunctionTWPP(a, b); err != nil {
				return fmt.Errorf("%s: fn %d owned path: %w", stage, fn, err)
			}
			buf := segment.GetBuffer()
			p, err := set.ExtractFunctionInto(fn, buf)
			if err != nil {
				segment.PutBuffer(buf)
				return fmt.Errorf("%s: segmented pooled extract fn %d: %w", stage, fn, err)
			}
			if err := EqualFunctionTWPP(a, p); err != nil {
				segment.PutBuffer(buf)
				return fmt.Errorf("%s: fn %d pooled path: %w", stage, fn, err)
			}
			segment.PutBuffer(buf)
			if cc := set.CallCount(fn); cc != cf.CallCount(fn) {
				return fmt.Errorf("%s: fn %d call count %d, want %d", stage, fn, cc, cf.CallCount(fn))
			}
		}
		if _, err := set.ExtractFunction(1 << 30); !errors.Is(err, wppfile.ErrNoFunction) {
			return fmt.Errorf("%s: absent function: got %v, want ErrNoFunction", stage, err)
		}
		return nil
	}
	if err := parity("pre-merge"); err != nil {
		return err
	}

	t2, err := set.ReadAll()
	if err != nil {
		return fmt.Errorf("segmented ReadAll: %w", err)
	}
	re, err := wppfile.EncodeCompactedFormat(t2, 1, wppfile.FormatV2)
	if err != nil {
		return fmt.Errorf("re-encode of segmented ReadAll: %w", err)
	}
	if !bytes.Equal(re, ref) {
		return fmt.Errorf("segmented ReadAll re-encodes to %d bytes != reference %d bytes", len(re), len(ref))
	}

	preGen := set.Generation()
	mg := segment.NewMerger(set, segment.MergeOptions{Workers: 1})
	folds, err := mg.MergeAll(context.Background())
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	if set.SegmentCount() > 1 {
		return fmt.Errorf("after MergeAll: %d segments live", set.SegmentCount())
	}
	if folds > 0 && set.Generation() == preGen {
		return fmt.Errorf("merge folded %d runs but generation did not advance", folds)
	}

	man, err := segment.ReadManifest(segDir)
	if err != nil {
		return fmt.Errorf("post-merge manifest: %w", err)
	}
	mergedBytes, err := os.ReadFile(filepath.Join(segDir, man.Segments[0].Name))
	if err != nil {
		return err
	}
	if !bytes.Equal(mergedBytes, ref) {
		return fmt.Errorf("merged segment is %d bytes != single-file container %d bytes", len(mergedBytes), len(ref))
	}
	return parity("post-merge")
}
