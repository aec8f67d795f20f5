// Metamorphic identities of the diff engine, verified across the full
// container matrix: for every testkit shape, every container format
// (v1, v2, segmented) and every storage backend (file, mmap, memory),
//
//   - diff(A, A') is empty whenever A and A' hold identical content —
//     even when they differ in format, segmentation, or backend — and
//   - diff(A, B) is exactly the inverse of diff(B, A), byte for byte
//     after Inverse().
//
// The matrix runs under -race via `make diff-test`.
package diff_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"twpp/internal/core"
	"twpp/internal/diff"
	"twpp/internal/segment"
	"twpp/internal/storage"
	"twpp/internal/testkit"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// variant is one cell of the {format} x {backend} matrix. format 0
// means a segmented container directory.
type variant struct {
	name   string
	format int
	kind   storage.Kind
}

func variants() []variant {
	formats := []struct {
		n string
		f int
	}{{"v1", wppfile.FormatV1}, {"v2", wppfile.FormatV2}, {"seg", 0}}
	kinds := []struct {
		n string
		k storage.Kind
	}{{"file", storage.KindFile}, {"mmap", storage.KindMmap}, {"memory", storage.KindMemory}}
	var out []variant
	for _, f := range formats {
		for _, k := range kinds {
			out = append(out, variant{f.n + "-" + k.n, f.f, k.k})
		}
	}
	return out
}

// openVariant writes tw in the variant's layout under dir/name and
// opens it through the variant's backend.
func openVariant(t *testing.T, dir, name string, tw *core.TWPP, v variant) wppfile.Container {
	t.Helper()
	opts := wppfile.OpenOptions{Backend: v.kind, VerifyChecksums: true}
	if v.format == 0 {
		segDir := filepath.Join(dir, name+".twppd")
		if _, err := segment.Write(segDir, tw, segment.WriteOptions{Segments: 3, Workers: 1}); err != nil {
			t.Fatalf("%s: segmented write: %v", name, err)
		}
		set, err := segment.Open(segDir, opts)
		if err != nil {
			t.Fatalf("%s: segmented open: %v", name, err)
		}
		t.Cleanup(func() { set.Close() })
		return set
	}
	path := filepath.Join(dir, name+".twpp")
	if err := wppfile.WriteCompactedFormat(path, tw, 1, v.format); err != nil {
		t.Fatalf("%s: write: %v", name, err)
	}
	cf, err := wppfile.OpenCompactedOptions(path, opts)
	if err != nil {
		t.Fatalf("%s: open: %v", name, err)
	}
	t.Cleanup(func() { cf.Close() })
	return cf
}

func compactTWPP(w *trace.RawWPP) *core.TWPP {
	c, _ := wpp.Compact(w)
	return core.FromCompacted(c)
}

func mustDiff(t *testing.T, la, lb string, a, b wppfile.Container) *diff.Report {
	t.Helper()
	r, err := diff.Containers(context.Background(), la, lb, a, b, diff.DefaultOptions())
	if err != nil {
		t.Fatalf("diff %s vs %s: %v", la, lb, err)
	}
	return r
}

// requireEmpty asserts a report shows no differences and no
// regressions.
func requireEmpty(t *testing.T, r *diff.Report, label string) {
	t.Helper()
	if len(r.Functions) != 0 {
		t.Fatalf("%s: %d function deltas on identical content; first: %+v", label, len(r.Functions), r.Functions[0])
	}
	if r.Regression || len(r.Regressions) != 0 {
		t.Fatalf("%s: regression=%v with %d entries on identical content", label, r.Regression, len(r.Regressions))
	}
}

func TestDiffMetamorphicMatrix(t *testing.T) {
	corpusA := testkit.Corpus(11)
	corpusB := testkit.Corpus(29)
	for _, shape := range testkit.Shapes() {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			ta := compactTWPP(corpusA[shape])
			tb := compactTWPP(corpusB[shape])
			dir := t.TempDir()
			// The reference cell everything is compared against.
			ref := openVariant(t, dir, "ref", ta, variant{"v2-file", wppfile.FormatV2, storage.KindFile})
			for _, v := range variants() {
				a := openVariant(t, dir, "a-"+v.name, ta, v)
				b := openVariant(t, dir, "b-"+v.name, tb, v)

				// Identity: same content, different layout — empty
				// diff in both directions.
				requireEmpty(t, mustDiff(t, "ref", v.name, ref, a), shape.String()+"/"+v.name+" ref-vs-variant")
				requireEmpty(t, mustDiff(t, v.name, "ref", a, ref), shape.String()+"/"+v.name+" variant-vs-ref")

				// Inverse: different content — diff(A,B) must be
				// exactly diff(B,A).Inverse(), structurally and in
				// JSON bytes.
				rAB := mustDiff(t, "a", "b", a, b)
				rBA := mustDiff(t, "b", "a", b, a)
				if !reflect.DeepEqual(rAB.Inverse(), rBA) {
					t.Fatalf("%s/%s: diff(A,B).Inverse() != diff(B,A)", shape, v.name)
				}
				jAB, err := rAB.Inverse().JSON()
				if err != nil {
					t.Fatal(err)
				}
				jBA, err := rBA.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if string(jAB) != string(jBA) {
					t.Fatalf("%s/%s: inverse JSON mismatch\ninverse: %s\ndirect:  %s", shape, v.name, jAB, jBA)
				}
				// Involution: inverting twice restores the original.
				if !reflect.DeepEqual(rAB.Inverse().Inverse(), rAB) {
					t.Fatalf("%s/%s: Inverse is not an involution", shape, v.name)
				}
			}
		})
	}
}

// Different-content diffs must actually see the difference: a report
// of A vs B (different seeds, same shape) is non-empty for at least
// one shape — guarding against a comparator that trivially returns ∅.
func TestDiffSeesContentChanges(t *testing.T) {
	corpusA := testkit.Corpus(11)
	corpusB := testkit.Corpus(29)
	sawDelta := false
	for _, shape := range testkit.Shapes() {
		ta := compactTWPP(corpusA[shape])
		tb := compactTWPP(corpusB[shape])
		dir := t.TempDir()
		v := variant{"v2-file", wppfile.FormatV2, storage.KindFile}
		a := openVariant(t, dir, "a", ta, v)
		b := openVariant(t, dir, "b", tb, v)
		if r := mustDiff(t, "a", "b", a, b); len(r.Functions) > 0 {
			sawDelta = true
		}
	}
	if !sawDelta {
		t.Fatal("no shape produced a non-empty diff between different seeds")
	}
}

// A deadline stops the identity hashing of the side it expires in:
// testkit.ExpansionProbe's expansion outlasts 100 ms, so the error
// names side a and wraps context.DeadlineExceeded. No timing is
// asserted.
func TestContainersDeadlineStopsHashing(t *testing.T) {
	data, err := wppfile.EncodeCompactedWorkers(testkit.ExpansionProbe(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := wppfile.OpenCompactedBytes(data, wppfile.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	r, err := diff.Containers(ctx, "a", "b", c, c, diff.DefaultOptions())
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "diff side a (a)") {
		t.Fatalf("diff under a 100 ms deadline = %v, %v; want side a's deadline error", r, err)
	}
}
