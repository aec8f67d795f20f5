package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/table6.golden and testdata/tables.golden")

// TestTable6AblationGolden pins, for the five profiles at scale 0.03,
// Table 6's dynamic-CFG node and edge counts and the ablation's exact
// byte counts (not the rounded printout) in table6.golden, and the
// exact inputs of Tables 1-3 and Figure 8 in tables.golden. All are
// deterministic, so any change to them is a change to the
// reproduction.
func TestTable6AblationGolden(t *testing.T) {
	var table6, tables bytes.Buffer
	dir := t.TempDir()
	for _, p := range Profiles() {
		r, err := Run(p, 0.03, dir)
		if err != nil {
			t.Fatal(err)
		}
		a, err := MeasureAblation(r)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		fmt.Fprintf(&table6, "%s dyn_nodes=%d dyn_edges=%d full=%d nodict=%d noseries=%d neither=%d\n",
			p.Name, r.DynNodes, r.DynEdges, a.Full, a.NoDict, a.NoSeries, a.Neither)
		s := r.Stats
		fmt.Fprintf(&tables, "%s table1 calls=%d blocks=%d raw_dcg=%d raw_trace=%d\n",
			p.Name, r.Calls, r.Blocks, r.RawDCGBytes, r.RawTraceBytes)
		fmt.Fprintf(&tables, "%s table2 raw_trace=%d after_redundancy=%d after_dictionary=%d dictionary=%d unique_traces=%d calls=%d twpp_trace=%d twpp_dict=%d\n",
			p.Name, s.RawTraceBytes, s.AfterRedundancy, s.AfterDictionary, s.DictionaryBytes, s.UniqueTraces, s.Calls,
			r.TWPPTraceBytes, r.TWPPDictBytes)
		fmt.Fprintf(&tables, "%s table3 header=%d dcg=%d blocks=%d total=%d\n",
			p.Name, r.FileHeader, r.FileDCG, r.FileBlocks, r.FileTotal)
		fmt.Fprintf(&tables, "%s figure8 uniques=%v calls=%v\n", p.Name, r.Uniques, r.CallCounts)
	}
	for _, g := range []struct {
		name string
		got  []byte
	}{{"table6.golden", table6.Bytes()}, {"tables.golden", tables.Bytes()}} {
		p := filepath.Join("testdata", g.name)
		if *update {
			if err := os.WriteFile(p, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("missing golden file (regenerate with -update): %v", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("reproduction differs from %s:\n--- got ---\n%s--- want ---\n%s", p, g.got, want)
		}
	}
}
