package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"twpp"
)

func writeTrace(t *testing.T, dir string) string {
	t.Helper()
	prog, err := twpp.Compile(`
func main() {
    var s = 0;
    for (var i = 0; i < 50; i = i + 1) {
        s = s + w(i % 2);
    }
    print(s);
}
func w(m) {
    var j = 0;
    while (j < 4) {
        j = j + 1;
    }
    return m + j;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := prog.Trace(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "t.wpp")
	if err := twpp.WriteRawFile(p, r.WPP); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunCompacts(t *testing.T) {
	dir := t.TempDir()
	in := writeTrace(t, dir)
	out := filepath.Join(dir, "t.twpp")
	seq := filepath.Join(dir, "t.seq")
	// -verify exercises the reopen-and-check pass on the fresh output.
	if err := run(context.Background(), compactConfig{in: in, out: out, seq: seq, workers: 2, verify: true}); err != nil {
		t.Fatal(err)
	}
	cf, err := twpp.OpenFile(out)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if len(cf.Functions()) != 2 {
		t.Errorf("functions = %v", cf.Functions())
	}
	if got := cf.FormatVersion(); got != twpp.FormatV2 {
		t.Errorf("FormatVersion() = %d, want %d", got, twpp.FormatV2)
	}
	if fi, err := os.Stat(seq); err != nil || fi.Size() == 0 {
		t.Errorf("sequitur baseline missing: %v", err)
	}
	// Compacted output smaller than the raw input.
	ri, _ := os.Stat(in)
	ci, _ := os.Stat(out)
	if ci.Size() >= ri.Size() {
		t.Errorf("compacted %d >= raw %d", ci.Size(), ri.Size())
	}
}

func TestRunStreamMatchesBatch(t *testing.T) {
	dir := t.TempDir()
	in := writeTrace(t, dir)
	batch := filepath.Join(dir, "batch.twpp")
	stream := filepath.Join(dir, "stream.twpp")
	if err := run(context.Background(), compactConfig{in: in, out: batch, workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), compactConfig{in: in, out: stream, workers: 2, stream: true, verify: true}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(batch)
	if err != nil {
		t.Fatal(err)
	}
	s, err := os.ReadFile(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, s) {
		t.Error("-stream output differs from batch output")
	}
	// -stream refuses the in-memory-only Sequitur baseline.
	if err := run(context.Background(), compactConfig{in: in, out: stream, seq: filepath.Join(dir, "t.seq"), workers: 1, stream: true}); err == nil {
		t.Error("-stream with -sequitur: want error")
	}
}

func TestRunDefaultOutputName(t *testing.T) {
	dir := t.TempDir()
	in := writeTrace(t, dir)
	if err := run(context.Background(), compactConfig{in: in, workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(in + ".twpp"); err != nil {
		t.Errorf("default output missing: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), compactConfig{workers: 1}); err == nil {
		t.Error("missing input: want error")
	}
	if err := run(context.Background(), compactConfig{in: "/nonexistent/file.wpp", workers: 1}); err == nil {
		t.Error("absent input: want error")
	}
}

// -segment-bytes seals a segmented container directory; -verify walks
// the merged read surface, and the stream and batch pipelines seal
// identical segment sets.
func TestRunSegmented(t *testing.T) {
	dir := t.TempDir()
	in := writeTrace(t, dir)
	out := filepath.Join(dir, "t.twppd")
	if err := run(context.Background(), compactConfig{in: in, out: out, workers: 2, segBytes: 16, verify: true}); err != nil {
		t.Fatal(err)
	}
	set, err := twpp.OpenSegmented(out, twpp.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.SegmentCount() < 2 {
		t.Errorf("segment count = %d, want >= 2 at a 16-byte budget", set.SegmentCount())
	}
	if len(set.Functions()) != 2 {
		t.Errorf("functions = %v", set.Functions())
	}

	stream := filepath.Join(dir, "s.twppd")
	if err := run(context.Background(), compactConfig{in: in, out: stream, workers: 2, segBytes: 16, stream: true, verify: true}); err != nil {
		t.Fatal(err)
	}
	bm, err := os.ReadFile(filepath.Join(out, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	sm, err := os.ReadFile(filepath.Join(stream, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bm, sm) {
		t.Error("-stream segmented manifest differs from batch manifest")
	}
}

// With -segment-bytes and no -o, the default output name gains the
// .twppd directory suffix.
func TestRunSegmentedDefaultName(t *testing.T) {
	dir := t.TempDir()
	in := writeTrace(t, dir)
	if err := run(context.Background(), compactConfig{in: in, workers: 1, segBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(in + ".twppd"); err != nil || !fi.IsDir() {
		t.Errorf("default segmented output missing or not a directory: %v", err)
	}
}
