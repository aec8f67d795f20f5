package segment_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"twpp/internal/segment"
	"twpp/internal/testkit"
	"twpp/internal/wppfile"
)

// The warm pooled read path of a segmented container must not
// allocate: once a Buffer has extracted every function, extracting
// them all again through it performs zero heap allocations — at 1, 4
// and 16 segments, after MergeAll folds each container back to one
// segment, and over a container built session by session with Append,
// whose functions span sessions and take the dedup-merge path that
// ingest mounts take.
func TestExtractIntoZeroAllocs(t *testing.T) {
	tw := buildTWPP(t, testkit.Config{Shape: testkit.Irregular, Seed: 31, Funcs: 24, Calls: 200})
	for _, n := range []int{1, 4, 16} {
		_, set := writeSegmented(t, tw, segment.WriteOptions{Segments: n, Workers: 1})
		if n > 1 && set.SegmentCount() < 2 {
			t.Fatalf("Segments: %d wrote %d segment(s)", n, set.SegmentCount())
		}
		label := fmt.Sprintf("Segments=%d (%d written)", n, set.SegmentCount())
		checkWarmZeroAllocs(t, label, set)
		if n == 1 {
			continue
		}
		if _, err := segment.NewMerger(set, segment.MergeOptions{}).MergeAll(context.Background()); err != nil {
			t.Fatalf("%s: MergeAll: %v", label, err)
		}
		if set.SegmentCount() != 1 {
			t.Fatalf("%s: MergeAll left %d segments", label, set.SegmentCount())
		}
		checkWarmZeroAllocs(t, label+" merged", set)
	}

	dir := filepath.Join(t.TempDir(), "sessions")
	shapes := []testkit.Shape{testkit.Regular, testkit.Periodic, testkit.Irregular}
	for i := 0; i < 7; i++ {
		session := buildTWPP(t, testkit.Config{Shape: shapes[i%len(shapes)], Seed: int64(40 + i), Funcs: 8})
		var err error
		if i == 0 {
			_, err = segment.Write(dir, session, segment.WriteOptions{Workers: 1})
		} else {
			_, err = segment.Append(dir, session, segment.WriteOptions{Workers: 1})
		}
		if err != nil {
			t.Fatalf("session %d: %v", i+1, err)
		}
	}
	set, err := segment.Open(dir, wppfile.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	checkWarmZeroAllocs(t, "7 appended sessions", set)
}

// checkWarmZeroAllocs warms one Buffer over every function of set,
// then requires a full pass through it to allocate nothing.
func checkWarmZeroAllocs(t *testing.T, label string, set *segment.Set) {
	t.Helper()
	fns := set.Functions()
	if len(fns) == 0 {
		t.Fatalf("%s: no functions", label)
	}
	buf := segment.GetBuffer()
	defer segment.PutBuffer(buf)
	pass := func() {
		for _, fn := range fns {
			if _, err := set.ExtractFunctionInto(fn, buf); err != nil {
				t.Fatalf("%s: fn %d: %v", label, fn, err)
			}
		}
	}
	pass()
	if n := testing.AllocsPerRun(20, pass); n != 0 {
		t.Errorf("%s: %.2f allocs per warm pass over %d functions, want 0", label, n, len(fns))
	}
}
