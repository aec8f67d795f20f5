package segment_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/segment"
	"twpp/internal/testkit"
	"twpp/internal/wppfile"
)

// Append must extend a live container by one session: a reader opened
// before the append picks the new generation up via Refresh and then
// extracts the keep-first merge of both sessions, and the container
// DCG stays session 1's.
func TestAppendSession(t *testing.T) {
	t1 := buildTWPP(t, testkit.Config{Shape: testkit.Periodic, Seed: 1})
	t2 := buildTWPP(t, testkit.Config{Shape: testkit.Periodic, Seed: 2})

	dir, set := writeSegmented(t, t1, segment.WriteOptions{Workers: 1})
	man, err := segment.Append(dir, t2, segment.WriteOptions{Workers: 1})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if man.Generation != 2 {
		t.Fatalf("generation = %d, want 2", man.Generation)
	}
	last := man.Segments[len(man.Segments)-1]
	if last.Session != 2 {
		t.Fatalf("appended session = %d, want 2", last.Session)
	}
	if last.Flags&segment.FlagDCG != 0 {
		t.Fatalf("appended segment stole the DCG flag")
	}
	if refreshed, err := set.Refresh(); err != nil || !refreshed {
		t.Fatalf("Refresh: refreshed=%v err=%v", refreshed, err)
	}

	for fn := range t1.Funcs {
		want := quadraticMerge(&t1.Funcs[fn], &t2.Funcs[fn])
		if want.CallCount == 0 {
			continue
		}
		got, err := set.ExtractFunction(cfg.FuncID(fn))
		if err != nil {
			t.Fatalf("fn %d: %v", fn, err)
		}
		if err := testkit.EqualFunctionTWPP(want, got); err != nil {
			t.Errorf("fn %d: %v", fn, err)
		}
	}
	dcg, err := set.ReadDCG()
	if err != nil {
		t.Fatalf("ReadDCG: %v", err)
	}
	if !reflect.DeepEqual(dcg, t1.DCG) {
		t.Errorf("DCG differs from session 1's")
	}
}

// The ingest parity cornerstone: a session appended as a single
// segment must be byte-identical to the offline streaming pipeline's
// v2 file for the same events — Append keeps the session's own DCG
// section in its bytes even though the container flag stays with
// session 1.
func TestAppendSegmentByteParity(t *testing.T) {
	t1 := buildTWPP(t, testkit.Config{Shape: testkit.Regular, Seed: 3})
	t2 := buildTWPP(t, testkit.Config{Shape: testkit.Irregular, Seed: 7})

	dir, _ := writeSegmented(t, t1, segment.WriteOptions{Workers: 1})
	man, err := segment.Append(dir, t2, segment.WriteOptions{Workers: 1})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	last := man.Segments[len(man.Segments)-1]
	got, err := os.ReadFile(filepath.Join(dir, last.Name))
	if err != nil {
		t.Fatal(err)
	}
	want, err := wppfile.EncodeCompactedFormat(t2, 1, wppfile.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appended segment differs from offline encode: %d vs %d bytes", len(got), len(want))
	}
}

// Repeated appends keep minting fresh session ids and bumping the
// generation; a failed append (unwritable dir) leaves the old manifest
// untouched.
func TestAppendSequence(t *testing.T) {
	base := buildTWPP(t, testkit.Config{Shape: testkit.Periodic, Seed: 1})
	dir, _ := writeSegmented(t, base, segment.WriteOptions{Workers: 1})

	for i := 2; i <= 4; i++ {
		tw := buildTWPP(t, testkit.Config{Shape: testkit.Periodic, Seed: int64(i)})
		man, err := segment.Append(dir, tw, segment.WriteOptions{Workers: 1})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if man.Generation != uint64(i) {
			t.Fatalf("append %d: generation %d", i, man.Generation)
		}
		if got := man.Segments[len(man.Segments)-1].Session; got != uint64(i) {
			t.Fatalf("append %d: session %d", i, got)
		}
	}
	man, err := segment.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range man.Segments {
		if e.Flags&segment.FlagDCG != 0 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("container has %d DCG flags, want 1", n)
	}
}
