package bench

import (
	"bytes"
	"strings"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/interp"
	"twpp/internal/minilang"
	"twpp/internal/trace"
	"twpp/internal/wppfile"
)

func TestProfilesGenerateValidPrograms(t *testing.T) {
	for _, p := range Profiles() {
		src := p.Generate(0.02)
		prog, err := minilang.Parse(src)
		if err != nil {
			t.Fatalf("%s: generated program does not parse: %v", p.Name, err)
		}
		g, err := cfg.Build(prog, cfg.MaxBlocks)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		names := make([]string, len(prog.Funcs))
		for i, fn := range prog.Funcs {
			names[i] = fn.Name
		}
		b := trace.NewBuilder(names)
		if _, err := interp.Run(g, b, nil, interp.Limits{}); err != nil {
			t.Fatalf("%s: execution failed: %v", p.Name, err)
		}
		w := b.Finish()
		if w.NumCalls() < 2 {
			t.Errorf("%s: only %d calls", p.Name, w.NumCalls())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Profiles()[0]
	if p.Generate(0.1) != p.Generate(0.1) {
		t.Error("generation is not deterministic")
	}
}

func TestProfileByName(t *testing.T) {
	if _, err := ProfileByName("134.perl-like"); err != nil {
		t.Error(err)
	}
	if _, err := ProfileByName("134"); err != nil {
		t.Error("prefix lookup failed")
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile: want error")
	}
}

func TestRunSmallScale(t *testing.T) {
	dir := t.TempDir()
	factor := map[string]float64{}
	for _, p := range Profiles() {
		r, err := Run(p, 0.03, dir)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		factor[p.Name] = r.CompactionFactor()
		if r.Calls == 0 || r.Blocks == 0 {
			t.Errorf("%s: empty result", p.Name)
		}
		// Compaction must reduce size at every stage.
		if r.Stats.AfterRedundancy > r.Stats.RawTraceBytes {
			t.Errorf("%s: redundancy removal grew traces", p.Name)
		}
		if r.Stats.AfterDictionary > r.Stats.AfterRedundancy {
			t.Errorf("%s: dictionaries grew traces (%d > %d)", p.Name,
				r.Stats.AfterDictionary, r.Stats.AfterRedundancy)
		}
		if r.CompactionFactor() < 1 {
			t.Errorf("%s: compaction factor %.2f < 1", p.Name, r.CompactionFactor())
		}
		// Files must exist and be loadable.
		cf, err := wppfile.OpenCompacted(r.CompPath)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(cf.Functions()) == 0 {
			t.Errorf("%s: empty index", p.Name)
		}
		cf.Close()
	}
	// Table 3's ordering: the regular-loop profiles out-compact the
	// branchy go-like one. The factors are deterministic for a given
	// scale (about 164 and 139 against 4.9 at 0.03).
	for _, regular := range []string{"134.perl-like", "132.ijpeg-like"} {
		if factor[regular] <= factor["099.go-like"] {
			t.Errorf("Table 3 ordering: %s factor %.1f does not exceed 099.go-like %.1f",
				regular, factor[regular], factor["099.go-like"])
		}
	}
}

func TestShapeDifferencesBetweenProfiles(t *testing.T) {
	dir := t.TempDir()
	perl, err := Run(mustProfile(t, "134"), 0.3, dir)
	if err != nil {
		t.Fatal(err)
	}
	golike, err := Run(mustProfile(t, "099"), 0.1, dir)
	if err != nil {
		t.Fatal(err)
	}
	// TWPP gain (dict stage -> TWPP) must be much larger for the
	// regular perl-like workload than for the irregular go-like one.
	gain := func(r *Result) float64 {
		return float64(r.Stats.AfterDictionary) / float64(r.TWPPTraceBytes+r.TWPPDictBytes)
	}
	if gain(perl) < 2*gain(golike) {
		t.Errorf("TWPP gain: perl-like %.2f vs go-like %.2f; expected a clear separation",
			gain(perl), gain(golike))
	}
	// Redundancy-removal factor should be strong for both (paper:
	// 5.66-9.50).
	for _, r := range []*Result{perl, golike} {
		f := float64(r.Stats.RawTraceBytes) / float64(r.Stats.AfterRedundancy)
		if f < 2 {
			t.Errorf("%s: redundancy factor %.2f too low", r.Profile.Name, f)
		}
	}
}

func mustProfile(t *testing.T, name string) Profile {
	t.Helper()
	p, err := ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMeasureExtraction(t *testing.T) {
	dir := t.TempDir()
	r, err := Run(mustProfile(t, "130"), 0.05, dir)
	if err != nil {
		t.Fatal(err)
	}
	timing, err := MeasureExtraction(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	if timing.Functions == 0 || timing.AvgUncompacted == 0 {
		t.Errorf("timing = %+v", timing)
	}
	// The indexed path must win. At tiny scales the margin is small,
	// so only require it not to lose.
	if timing.Speedup() < 1 {
		t.Errorf("speedup = %.2f < 1", timing.Speedup())
	}
}

func TestMeasureSequitur(t *testing.T) {
	dir := t.TempDir()
	r, err := Run(mustProfile(t, "130"), 0.05, dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MeasureSequitur(r, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.SequiturBytes == 0 || c.Functions != 5 {
		t.Errorf("comparison = %+v", c)
	}
	if c.AccessRatio() < 1 {
		t.Errorf("sequitur extraction should be slower: ratio %.2f", c.AccessRatio())
	}
}

func TestRedundancyCDFMonotone(t *testing.T) {
	dir := t.TempDir()
	r, err := Run(mustProfile(t, "126"), 0.05, dir)
	if err != nil {
		t.Fatal(err)
	}
	th := []int{1, 2, 5, 10, 25, 50, 100}
	cdf := r.RedundancyCDF(th)
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Errorf("CDF not monotone: %v", cdf)
		}
	}
	if cdf[len(cdf)-1] < 99 {
		t.Errorf("CDF does not approach 100%%: %v", cdf)
	}
}

func TestTablePrinters(t *testing.T) {
	dir := t.TempDir()
	r, err := Run(mustProfile(t, "134"), 0.05, dir)
	if err != nil {
		t.Fatal(err)
	}
	results := []*Result{r}
	timing, err := MeasureExtraction(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := MeasureSequitur(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Table1(&buf, results)
	Table2(&buf, results)
	Table3(&buf, results)
	Table4(&buf, results, []*ExtractTiming{timing})
	Table5(&buf, results, []*SequiturComparison{comp})
	Table6(&buf, results)
	Figure8(&buf, results)
	Summary(&buf, results, []*ExtractTiming{timing})
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Table 4",
		"Table 5", "Table 6", "Figure 8", "134.perl-like", "compaction factors"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestMeasureAblation(t *testing.T) {
	dir := t.TempDir()
	r, err := Run(mustProfile(t, "134"), 0.3, dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := MeasureAblation(r)
	if err != nil {
		t.Fatal(err)
	}
	// Dropping either optimization must not shrink the store, and for
	// the regular perl-like workload both must hurt substantially.
	if a.NoDict < a.Full || a.NoSeries < a.Full || a.Neither < a.NoDict || a.Neither < a.NoSeries {
		t.Errorf("ablation ordering violated: %+v", a)
	}
	if float64(a.Neither) < 3*float64(a.Full) {
		t.Errorf("perl-like: naive representation only %.2fx of full; expected > 3x (%+v)",
			float64(a.Neither)/float64(a.Full), a)
	}
	if a.DCGLZW >= a.DCGRaw {
		t.Errorf("LZW did not compress the DCG: %d >= %d", a.DCGLZW, a.DCGRaw)
	}
	var buf bytes.Buffer
	AblationTable(&buf, []*Ablation{a})
	if !strings.Contains(buf.String(), "Ablation") {
		t.Error("AblationTable output missing header")
	}
}
