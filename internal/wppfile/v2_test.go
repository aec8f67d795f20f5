package wppfile_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/storage"
	"twpp/internal/testkit"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// encodeV2 compacts a generated WPP into a default-format image.
func encodeV2(t *testing.T, shape testkit.Shape) []byte {
	t.Helper()
	w := testkit.Generate(testkit.Config{Seed: 300 + int64(shape), Shape: shape})
	c, _ := wpp.Compact(w)
	img, err := wppfile.EncodeCompactedWorkers(core.FromCompacted(c), 1)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// The default write format is v2: a fresh image opens reporting
// version 2 and carries the directory magic in its footer.
func TestDefaultWriteFormatIsV2(t *testing.T) {
	img := encodeV2(t, testkit.Regular)
	cf, err := wppfile.OpenCompactedBytes(img, wppfile.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if got := cf.FormatVersion(); got != wppfile.FormatV2 {
		t.Fatalf("FormatVersion() = %d, want %d", got, wppfile.FormatV2)
	}
}

// Flipping any single bit of a v2 image must surface as a structured
// error under eager verification — and for every byte inside the
// checksummed region (everything between the 5-byte header and the
// 12-byte footer: META, DCG, BLOCKS, and the section directory) that
// error must be exactly CodeChecksum. No flip may decode silently or
// panic. This is the integrity contract the section checksums were
// added for.
func TestV2BitFlipSweepYieldsChecksum(t *testing.T) {
	for _, shape := range testkit.Shapes() {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			img := encodeV2(t, shape)
			for off := 0; off < len(img); off++ {
				flipped := testkit.BitFlip(img, off, off%8)
				cf, err := wppfile.OpenCompactedBytes(flipped, wppfile.OpenOptions{VerifyChecksums: true})
				if err == nil {
					cf.Close()
					t.Fatalf("offset %d: flipped image opened cleanly", off)
				}
				if !testkit.Structured(err) {
					t.Fatalf("offset %d: unstructured error %T: %v", off, err, err)
				}
				inSection := off >= wppfile.V2HeaderLen && off < len(img)-wppfile.V2FooterLen
				if !inSection {
					continue
				}
				var de *encoding.Error
				if !errors.As(err, &de) || de.Code != encoding.CodeChecksum {
					t.Fatalf("offset %d: error %v, want %s", off, err, encoding.CodeChecksum)
				}
			}
		})
	}
}

// Lazy verification (the always-on default) must catch a corrupted
// block the moment it is extracted, and a corrupted DCG the moment it
// is read — never return wrong data.
func TestV2LazyChecksumOnExtraction(t *testing.T) {
	img := encodeV2(t, testkit.Irregular)
	cf, err := wppfile.OpenCompactedBytes(img, wppfile.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fns := cf.Functions()
	cf.Close()

	// Flip one bit in every byte of the trailing two-thirds of the
	// image (DCG + BLOCKS live there) and demand every read either
	// extracts correct data elsewhere or fails with CodeChecksum.
	for off := len(img) / 3; off < len(img)-wppfile.V2FooterLen; off++ {
		flipped := testkit.BitFlip(img, off, 5)
		cf, err := wppfile.OpenCompactedBytes(flipped, wppfile.OpenOptions{})
		if err != nil {
			// The flip hit META or the directory; open-time checks own it.
			if !testkit.Structured(err) {
				t.Fatalf("offset %d: unstructured open error: %v", off, err)
			}
			continue
		}
		sawChecksum := false
		if _, err := cf.ReadDCG(); err != nil {
			var de *encoding.Error
			if !errors.As(err, &de) || de.Code != encoding.CodeChecksum {
				t.Fatalf("offset %d: ReadDCG error %v, want checksum", off, err)
			}
			sawChecksum = true
		}
		for _, fn := range fns {
			if _, err := cf.ExtractFunction(fn); err != nil {
				var de *encoding.Error
				if !errors.As(err, &de) || de.Code != encoding.CodeChecksum {
					t.Fatalf("offset %d: extract f%d error %v, want checksum", off, fn, err)
				}
				sawChecksum = true
			}
		}
		cf.Close()
		if !sawChecksum {
			t.Fatalf("offset %d: no read path noticed the flipped bit", off)
		}
	}
}

// The committed v1 fixtures were written by the pre-refactor encoder.
// The versioned reader must keep opening them: correct version report,
// every function extractable over every backend, full semantic
// round-trip against the sibling raw capture, and — the strongest
// compatibility statement — re-encoding that raw capture through the
// encoder's FormatV1 branch must reproduce the fixture byte for byte.
func TestV1FixturesCompat(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "v1", "*.twpp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(testkit.Shapes()) {
		t.Fatalf("found %d v1 fixtures, want %d", len(paths), len(testkit.Shapes()))
	}
	for _, p := range paths {
		p := p
		name := strings.TrimSuffix(filepath.Base(p), ".twpp")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := wppfile.ReadRaw(filepath.Join("testdata", "v1", name+".wpp"))
			if err != nil {
				t.Fatalf("raw fixture: %v", err)
			}
			for _, kind := range []storage.Kind{storage.KindFile, storage.KindMmap, storage.KindMemory} {
				cf, err := wppfile.OpenCompactedOptions(p, wppfile.OpenOptions{Backend: kind, VerifyChecksums: true})
				if err != nil {
					t.Fatalf("%s open: %v", kind, err)
				}
				if got := cf.FormatVersion(); got != wppfile.FormatV1 {
					t.Errorf("%s: FormatVersion() = %d, want 1", kind, got)
				}
				for _, fn := range cf.Functions() {
					if _, err := cf.ExtractFunction(fn); err != nil {
						t.Errorf("%s: extract f%d: %v", kind, fn, err)
					}
				}
				tw, err := cf.ReadAll()
				cf.Close()
				if err != nil {
					t.Fatalf("%s read all: %v", kind, err)
				}
				c2, err := tw.ToCompacted()
				if err != nil {
					t.Fatalf("%s invert: %v", kind, err)
				}
				if !trace.Equal(w, c2.Reconstruct()) {
					t.Errorf("%s: fixture does not reconstruct the raw capture", kind)
				}
			}

			fixture, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			c, _ := wpp.Compact(w)
			img, err := wppfile.EncodeCompactedFormat(core.FromCompacted(c), 1, wppfile.FormatV1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img, fixture) {
				t.Errorf("re-encode with format=1: %d bytes differ from the %d-byte fixture",
					len(img), len(fixture))
			}
		})
	}
}

// The batch and streaming pipelines must agree byte for byte in both
// formats, not just the default.
func TestBatchStreamParityBothFormats(t *testing.T) {
	for _, format := range []int{wppfile.FormatV1, wppfile.FormatV2} {
		for _, shape := range testkit.Shapes() {
			t.Run(fmt.Sprintf("v%d/%s", format, shape), func(t *testing.T) {
				w := testkit.Generate(testkit.Config{Seed: 500 + int64(shape), Shape: shape})
				if err := testkit.BatchStreamParity(w, format); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
