package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/table6.golden")

// TestTable6AblationGolden pins, for the five profiles at scale 0.03,
// Table 6's dynamic-CFG node and edge counts and the ablation's exact
// byte counts (not the rounded printout). Both are deterministic, so
// any change to them is a change to the reproduction.
func TestTable6AblationGolden(t *testing.T) {
	var out bytes.Buffer
	for _, p := range Profiles() {
		r, err := Run(p, 0.03, "")
		if err != nil {
			t.Fatal(err)
		}
		a, err := MeasureAblation(r)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		fmt.Fprintf(&out, "%s dyn_nodes=%d dyn_edges=%d full=%d nodict=%d noseries=%d neither=%d\n",
			p.Name, r.DynNodes, r.DynEdges, a.Full, a.NoDict, a.NoSeries, a.Neither)
	}
	p := filepath.Join("testdata", "table6.golden")
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
		t.Errorf("Table 6 / ablation differ from %s:\n--- got ---\n%s--- want ---\n%s", p, out.Bytes(), want)
	}
}
