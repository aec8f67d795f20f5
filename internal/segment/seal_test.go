package segment_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twpp/internal/core"
	"twpp/internal/segment"
	"twpp/internal/testkit"
)

var update = flag.Bool("update", false, "rewrite testdata/seal.golden")

// dirDigest lists every file in dir (sorted by name) as one line of
// name, size and SHA-256.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d %x\n", e.Name(), len(data), sha256.Sum256(data))
	}
	return b.String()
}

// TestSealGolden pins every byte Write and Append seal: for each
// generator shape, a new container (Write) plus one longer appended
// session (Append), at the default budget and at Segments: 3. Each
// line is one file of the container, MANIFEST included.
func TestSealGolden(t *testing.T) {
	var out bytes.Buffer
	for _, shape := range testkit.Shapes() {
		for _, opts := range []segment.WriteOptions{{}, {Segments: 3}} {
			t1 := buildTWPP(t, testkit.Config{Shape: shape, Seed: 1})
			t2 := buildTWPP(t, testkit.Config{Shape: shape, Seed: 2, Calls: 40})
			dir := filepath.Join(t.TempDir(), "seg")
			if _, err := segment.Write(dir, t1, opts); err != nil {
				t.Fatalf("%s: Write: %v", shape, err)
			}
			if _, err := segment.Append(dir, t2, opts); err != nil {
				t.Fatalf("%s: Append: %v", shape, err)
			}
			fmt.Fprintf(&out, "# %s segments=%d\n%s", shape, opts.Segments, dirDigest(t, dir))
		}
	}
	p := filepath.Join("testdata", "seal.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("sealed files differ from %s:\n--- got ---\n%s\n--- want ---\n%s", p, out.Bytes(), want)
	}
}

// Write must refuse a directory that already holds a live container
// and leave every file in it untouched.
func TestWriteRefusesLiveContainer(t *testing.T) {
	t1 := buildTWPP(t, testkit.Config{Shape: testkit.Periodic, Seed: 1})
	t2 := buildTWPP(t, testkit.Config{Shape: testkit.Irregular, Seed: 2})
	dir, set := writeSegmented(t, t1, segment.WriteOptions{Segments: 3, Workers: 1})
	set.Close()
	before := dirDigest(t, dir)
	if _, err := segment.Write(dir, t2, segment.WriteOptions{Workers: 1}); err == nil {
		t.Fatal("Write over a live container succeeded")
	}
	if after := dirDigest(t, dir); after != before {
		t.Fatalf("refused Write changed the directory:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}

// A Write that fails partway removes the segment files it already
// wrote and installs no manifest. A directory squatting on the second
// segment's file name makes that segment's write fail after the first
// one landed.
func TestWriteFailureLeavesNoSegments(t *testing.T) {
	tw := buildTWPP(t, testkit.Config{Shape: testkit.Irregular, Seed: 5, Calls: 96})
	dir := filepath.Join(t.TempDir(), "seg")
	squat := "seg-000001-0001.twpp"
	if err := os.MkdirAll(filepath.Join(dir, squat), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := segment.Write(dir, tw, segment.WriteOptions{Segments: 4, Workers: 1}); err == nil {
		t.Fatal("Write succeeded despite an unwritable segment name")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == squat {
			continue
		}
		if e.Name() == segment.ManifestName || strings.HasPrefix(e.Name(), "seg-") {
			t.Errorf("failed Write left %s behind", e.Name())
		}
	}
}

// A TWPP with no called function has nothing to seal: Write and Append
// refuse it with the same error, and neither installs a manifest.
func TestNothingToSeal(t *testing.T) {
	empty := &core.TWPP{FuncNames: []string{"f0"}, Funcs: make([]core.FunctionTWPP, 1)}
	fresh := filepath.Join(t.TempDir(), "seg")
	if _, err := segment.Write(fresh, empty, segment.WriteOptions{}); err == nil || !strings.Contains(err.Error(), "nothing to seal") {
		t.Errorf("Write: err = %v, want nothing to seal", err)
	}
	if segment.IsSegmented(fresh) {
		t.Error("failed Write installed a manifest")
	}
	live, set := writeSegmented(t, buildTWPP(t, testkit.Config{Shape: testkit.Regular, Seed: 1}), segment.WriteOptions{})
	set.Close()
	if _, err := segment.Append(live, empty, segment.WriteOptions{}); err == nil || !strings.Contains(err.Error(), "nothing to seal") {
		t.Errorf("Append: err = %v, want nothing to seal", err)
	}
	if man, err := segment.ReadManifest(live); err != nil || man.Generation != 1 {
		t.Errorf("failed Append moved the manifest: %+v, %v", man, err)
	}
}
