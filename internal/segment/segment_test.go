package segment_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/segment"
	"twpp/internal/testkit"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// buildTWPP compacts a generated WPP into TWPP form.
func buildTWPP(t *testing.T, c testkit.Config) *core.TWPP {
	t.Helper()
	w := testkit.Generate(c)
	cc, _ := wpp.Compact(w)
	return core.FromCompacted(cc)
}

// writeSegmented seals tw into a fresh container under t.TempDir and
// opens it.
func writeSegmented(t *testing.T, tw *core.TWPP, opts segment.WriteOptions) (string, *segment.Set) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "seg")
	if _, err := segment.Write(dir, tw, opts); err != nil {
		t.Fatalf("Write: %v", err)
	}
	set, err := segment.Open(dir, wppfile.OpenOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { set.Close() })
	return dir, set
}

func TestManifestRoundTrip(t *testing.T) {
	m := &segment.Manifest{
		Generation: 7,
		Segments: []segment.Entry{
			{Name: "seg-000001-0000.twpp", Size: 123, Hash: 0xdeadbeefcafe, Flags: segment.FlagDCG, Session: 1},
			{Name: "seg-000001-0001.twpp", Size: 456, Hash: 42, Session: 900},
		},
	}
	got, err := segment.DecodeManifest(segment.EncodeManifest(m))
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	if got.Generation != m.Generation || len(got.Segments) != len(m.Segments) {
		t.Fatalf("round trip: got %+v", got)
	}
	for i := range m.Segments {
		if got.Segments[i] != m.Segments[i] {
			t.Errorf("entry %d: got %+v, want %+v", i, got.Segments[i], m.Segments[i])
		}
	}
	if got.DCGIndex() != 0 {
		t.Errorf("DCGIndex = %d, want 0", got.DCGIndex())
	}
}

// Every single-bit flip and every truncation of an encoded manifest
// must fail decoding with a structured error — the checksum-first
// contract — and never panic.
func TestManifestCorruptionSweep(t *testing.T) {
	m := &segment.Manifest{
		Generation: 3,
		Segments: []segment.Entry{
			{Name: "seg-000001-0000.twpp", Size: 4096, Hash: 0x0102030405060708, Flags: segment.FlagDCG},
			{Name: "seg-000001-0001.twpp", Size: 8192, Hash: 0x1112131415161718},
			{Name: "seg-000002-0000.twpp", Size: 16384, Hash: 0x2122232425262728},
		},
	}
	data := segment.EncodeManifest(m)
	if _, err := segment.DecodeManifest(data); err != nil {
		t.Fatalf("pristine manifest rejected: %v", err)
	}
	testkit.SweepBitFlips(data, 1, func(mu testkit.Mutation) {
		_, err := segment.DecodeManifest(mu.Data)
		if err == nil {
			t.Fatalf("%s: corrupted manifest accepted", mu.Desc)
		}
		if !testkit.Structured(err) {
			t.Fatalf("%s: unstructured error %v", mu.Desc, err)
		}
	})
	testkit.SweepTruncations(data, 1, func(mu testkit.Mutation) {
		_, err := segment.DecodeManifest(mu.Data)
		if err == nil {
			t.Fatalf("%s: truncated manifest accepted", mu.Desc)
		}
		if !testkit.Structured(err) {
			t.Fatalf("%s: unstructured error %v", mu.Desc, err)
		}
	})
}

// Opening a container whose segment bytes were tampered with must fail
// with a structured checksum error: the manifest hash pins the exact
// sealed bytes.
func TestOpenRejectsTamperedSegment(t *testing.T) {
	tw := buildTWPP(t, testkit.Config{Shape: testkit.Irregular, Seed: 11})
	dir, set := writeSegmented(t, tw, segment.WriteOptions{Segments: 3, Workers: 1})
	set.Close()

	man, err := segment.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, man.Segments[len(man.Segments)-1].Name)
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, testkit.BitFlip(data, len(data)/2, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = segment.Open(dir, wppfile.OpenOptions{VerifyChecksums: true})
	if err == nil {
		t.Fatal("tampered segment opened cleanly")
	}
	if !testkit.Structured(err) {
		t.Fatalf("unstructured error: %v", err)
	}
}

// The same input segments must always fold to byte-identical merged
// output — the determinism gate `make test` runs.
func TestMergeDeterminism(t *testing.T) {
	tw := buildTWPP(t, testkit.Config{Shape: testkit.Irregular, Seed: 5, Calls: 96})

	mergedBytes := func() []byte {
		dir, set := writeSegmented(t, tw, segment.WriteOptions{Segments: 5, Workers: 1})
		if set.SegmentCount() < 2 {
			t.Fatalf("want >= 2 segments, got %d", set.SegmentCount())
		}
		mg := segment.NewMerger(set, segment.MergeOptions{Workers: 2})
		if _, err := mg.MergeAll(context.Background()); err != nil {
			t.Fatalf("MergeAll: %v", err)
		}
		man, err := segment.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(man.Segments) != 1 {
			t.Fatalf("want 1 segment after MergeAll, got %d", len(man.Segments))
		}
		data, err := os.ReadFile(filepath.Join(dir, man.Segments[0].Name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := mergedBytes(), mergedBytes()
	if !bytes.Equal(a, b) {
		t.Fatalf("merge is not deterministic: %d vs %d bytes", len(a), len(b))
	}
}

// Two sessions (Write, then Append) must merge keep-first: summed
// call counts, first session's DCG, and a trace list equal to the
// deduplicated concatenation (checked against an independent quadratic
// merge).
func TestMultiSessionAppend(t *testing.T) {
	t1 := buildTWPP(t, testkit.Config{Shape: testkit.Periodic, Seed: 1})
	t2 := buildTWPP(t, testkit.Config{Shape: testkit.Periodic, Seed: 2})

	opts := segment.WriteOptions{Segments: 2, Workers: 1}
	dir, set := writeSegmented(t, t1, opts)
	if _, err := segment.Append(dir, t2, opts); err != nil {
		t.Fatal(err)
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

	// The DCG must be session 1's, valid against the merged numbering.
	dcg, err := set.ReadDCG()
	if err != nil {
		t.Fatalf("ReadDCG: %v", err)
	}
	if !reflect.DeepEqual(dcg, t1.DCG) {
		t.Errorf("DCG differs from session 1's")
	}
}

// Session tags drive the disjoint fast path: Write stamps all its
// segments with one session, an Append gets the next, and folding a
// mixed-session run mints a fresh id — while folding a single-session
// run keeps the session, so disjointness survives partial merges.
func TestSessionTags(t *testing.T) {
	t1 := buildTWPP(t, testkit.Config{Shape: testkit.Periodic, Seed: 1})
	t2 := buildTWPP(t, testkit.Config{Shape: testkit.Periodic, Seed: 2})

	// Single-session container: a partial fold keeps the session.
	oneDir, oneSet := writeSegmented(t, buildTWPP(t, testkit.Config{Shape: testkit.Irregular, Seed: 5, Calls: 96}),
		segment.WriteOptions{Segments: 4, Workers: 1})
	if oneSet.SegmentCount() < 3 {
		t.Fatalf("want >= 3 segments, got %d", oneSet.SegmentCount())
	}
	mg := segment.NewMerger(oneSet, segment.MergeOptions{MaxRun: 2, Workers: 1})
	if did, err := mg.MergeOnce(context.Background()); err != nil || !did {
		t.Fatalf("MergeOnce: did=%v err=%v", did, err)
	}
	oneMan, err := segment.ReadManifest(oneDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range oneMan.Segments {
		if e.Session != 1 {
			t.Errorf("single-session fold changed session: %s has %d, want 1", e.Name, e.Session)
		}
	}

	opts := segment.WriteOptions{Segments: 2, Workers: 1}
	dir := filepath.Join(t.TempDir(), "seg")
	if _, err := segment.Write(dir, t1, opts); err != nil {
		t.Fatal(err)
	}
	man, err := segment.Append(dir, t2, opts)
	if err != nil {
		t.Fatal(err)
	}
	sessions := make(map[uint64]int)
	var max uint64
	for _, e := range man.Segments {
		if e.Session == 0 {
			t.Errorf("segment %s sealed without a session", e.Name)
		}
		sessions[e.Session]++
		if e.Session > max {
			max = e.Session
		}
	}
	if len(sessions) != 2 {
		t.Fatalf("Write + Append should yield two sessions, got %v", sessions)
	}

	// Folding the whole (mixed-session) container mints a fresh id.
	set, err := segment.Open(dir, wppfile.OpenOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if _, err := segment.NewMerger(set, segment.MergeOptions{Workers: 1}).MergeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	man, err = segment.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 1 {
		t.Fatalf("want 1 segment after MergeAll, got %d", len(man.Segments))
	}
	if got := man.Segments[0].Session; got <= max {
		t.Errorf("mixed-session fold kept session %d, want a fresh id > %d", got, max)
	}
}

// quadraticMerge is an intentionally naive keep-first merge of two
// function blocks, used as an independent reference for the set's
// hashed merge.
func quadraticMerge(a, b *core.FunctionTWPP) *core.FunctionTWPP {
	out := &core.FunctionTWPP{Fn: a.Fn, CallCount: a.CallCount + b.CallCount}
	add := func(src *core.FunctionTWPP) {
		for i, tr := range src.Traces {
			d := src.Dicts[src.DictOf[i]]
			dup := false
			for j, have := range out.Traces {
				if twppEqual(have, tr) && wpp.DictsEqual(out.Dicts[out.DictOf[j]], d) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			di := -1
			for j, have := range out.Dicts {
				if wpp.DictsEqual(have, d) {
					di = j
					break
				}
			}
			if di < 0 {
				di = len(out.Dicts)
				out.Dicts = append(out.Dicts, d)
			}
			out.Traces = append(out.Traces, tr)
			out.DictOf = append(out.DictOf, di)
		}
	}
	add(a)
	add(b)
	return out
}

func twppEqual(a, b *core.Trace) bool {
	if a.Len != b.Len || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i := range a.Blocks {
		if a.Blocks[i].Block != b.Blocks[i].Block || len(a.Blocks[i].Times) != len(b.Blocks[i].Times) {
			return false
		}
		for j := range a.Blocks[i].Times {
			if a.Blocks[i].Times[j] != b.Blocks[i].Times[j] {
				return false
			}
		}
	}
	return true
}

// Refresh must pick up a merge committed through a different Set on
// the same directory, changing the content hash.
func TestRefreshAfterExternalMerge(t *testing.T) {
	tw := buildTWPP(t, testkit.Config{Shape: testkit.Regular, Seed: 3})
	dir, set := writeSegmented(t, tw, segment.WriteOptions{Segments: 3, Workers: 1})

	other, err := segment.Open(dir, wppfile.OpenOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	h0, _ := other.ContentHash()

	if _, err := segment.NewMerger(set, segment.MergeOptions{Workers: 1}).MergeAll(context.Background()); err != nil {
		t.Fatalf("MergeAll: %v", err)
	}
	// The merger deleted the folded files; `other` still holds open
	// handles (POSIX keeps them readable) but Refresh must move it to
	// the new generation.
	changed, err := other.Refresh()
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if !changed {
		t.Fatal("Refresh did not observe the new generation")
	}
	if h1, _ := other.ContentHash(); h1 == h0 {
		t.Error("content hash unchanged across merge")
	}
	if changed, err = other.Refresh(); err != nil || changed {
		t.Errorf("second Refresh = (%v, %v), want (false, nil)", changed, err)
	}
}

// The soak the ISSUE demands: concurrent queries over both extraction
// paths must stay correct and error-free while merges fold the
// container underneath them, one generation at a time. Run with -race.
func TestConcurrentQueriesDuringMerge(t *testing.T) {
	tw := buildTWPP(t, testkit.Config{Shape: testkit.Irregular, Seed: 9, Calls: 120})
	_, set := writeSegmented(t, tw, segment.WriteOptions{Segments: 8, Workers: 1})
	if set.SegmentCount() < 4 {
		t.Fatalf("want >= 4 segments for the soak, got %d", set.SegmentCount())
	}

	// Reference extractions from the unsegmented encode.
	ref := make(map[cfg.FuncID]*core.FunctionTWPP)
	refData, err := wppfile.EncodeCompactedFormat(tw, 1, wppfile.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(t.TempDir(), "ref.twpp")
	if err := os.WriteFile(refPath, refData, 0o644); err != nil {
		t.Fatal(err)
	}
	cf, err := wppfile.OpenCompacted(refPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	fns := cf.Functions()
	for _, fn := range fns {
		ft, err := cf.ExtractFunction(fn)
		if err != nil {
			t.Fatal(err)
		}
		ref[fn] = ft
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := segment.GetBuffer()
			defer segment.PutBuffer(buf)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fn := fns[(i+g)%len(fns)]
				var got *core.FunctionTWPP
				var err error
				if g%2 == 0 {
					got, err = set.ExtractFunctionInto(fn, buf)
				} else {
					got, err = set.ExtractFunctionCtx(context.Background(), fn)
				}
				if err != nil {
					errs <- fmt.Errorf("extract fn %d: %w", fn, err)
					return
				}
				if err := testkit.EqualFunctionTWPP(ref[fn], got); err != nil {
					errs <- fmt.Errorf("fn %d diverged under merge: %w", fn, err)
					return
				}
			}
		}(g)
	}

	// Fold two segments at a time so readers cross several generations.
	mg := segment.NewMerger(set, segment.MergeOptions{MaxRun: 2, Workers: 1})
	for set.SegmentCount() > 1 {
		did, err := mg.MergeOnce(context.Background())
		if err != nil {
			t.Fatalf("MergeOnce: %v", err)
		}
		if !did {
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if set.SegmentCount() != 1 {
		t.Errorf("soak ended with %d segments", set.SegmentCount())
	}
}

// Queries racing Close must either succeed or fail with os.ErrClosed —
// never crash or return partial data.
func TestCloseDrainsReaders(t *testing.T) {
	tw := buildTWPP(t, testkit.Config{Shape: testkit.Regular, Seed: 13})
	_, set := writeSegmented(t, tw, segment.WriteOptions{Segments: 3, Workers: 1})
	fns := set.Functions()

	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := set.ExtractFunction(fns[i%len(fns)]); err != nil {
					if !errors.Is(err, os.ErrClosed) {
						errs <- fmt.Errorf("unexpected error racing Close: %w", err)
					}
					return
				}
			}
		}()
	}
	set.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzManifestDecode asserts the structured-error contract on
// arbitrary manifest bytes and, when decoding succeeds, that encode
// round-trips to an equal manifest.
func FuzzManifestDecode(f *testing.F) {
	f.Add(segment.EncodeManifest(&segment.Manifest{
		Generation: 1,
		Segments: []segment.Entry{
			{Name: "seg-000001-0000.twpp", Size: 64, Hash: 99, Flags: segment.FlagDCG},
		},
	}))
	f.Add([]byte{})
	f.Add([]byte("TWPS"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := segment.DecodeManifest(data)
		if err != nil {
			if !testkit.Structured(err) {
				t.Fatalf("unstructured error: %v", err)
			}
			return
		}
		back, err := segment.DecodeManifest(segment.EncodeManifest(m))
		if err != nil {
			t.Fatalf("re-decode of valid manifest: %v", err)
		}
		if back.Generation != m.Generation || len(back.Segments) != len(m.Segments) {
			t.Fatalf("round trip mismatch: %+v vs %+v", back, m)
		}
	})
}
