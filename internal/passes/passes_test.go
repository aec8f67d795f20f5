package passes_test

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"twpp"
	"twpp/internal/cli"
	"twpp/internal/passes"
	"twpp/internal/wppfile"
)

// compileToFile traces src and stores it as a v2 file, returning the
// path.
func compileToFile(t *testing.T, src string) string {
	t.Helper()
	prog, err := twpp.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Trace(nil)
	if err != nil {
		t.Fatal(err)
	}
	tw, _ := twpp.Compact(run.WPP)
	path := filepath.Join(t.TempDir(), "t.twpp")
	if err := twpp.WriteFile(path, tw); err != nil {
		t.Fatal(err)
	}
	return path
}

func openFile(t *testing.T, path string) twpp.Container {
	t.Helper()
	f, err := twpp.OpenContainer(path, twpp.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

const loopSrc = `
func main() {
    var a = alternating(12);
    var b = blocky(12);
    print(a + b);
}
func alternating(n) {
    var acc = 0;
    for (var i = 0; i < n; i = i + 1) {
        if (i % 2 == 0) {
            acc = acc + 1;
        } else {
            acc = acc + 2;
        }
    }
    return acc;
}
func blocky(n) {
    var acc = 0;
    for (var i = 0; i < n; i = i + 1) {
        if (i < 6) {
            acc = acc + 1;
        } else {
            acc = acc + 2;
        }
    }
    return acc;
}
`

func TestRegistryContents(t *testing.T) {
	names := passes.Names()
	for _, want := range []string{"cfg", "funcs", "kpaths", "query", "stats", "trace"} {
		if _, ok := passes.Get(want); !ok {
			t.Errorf("pass %q not registered (have %v)", want, names)
		}
	}
	infos := passes.Infos()
	if len(infos) != len(names) {
		t.Fatalf("Infos() = %d entries, Names() = %d", len(infos), len(names))
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Errorf("Infos()[%d] = %q, want %q (lexical order)", i, info.Name, names[i])
		}
		if info.Params == nil {
			t.Errorf("pass %q: nil Params in Info (must marshal as [])", info.Name)
		}
	}
}

func TestRunUnknownPass(t *testing.T) {
	f := openFile(t, compileToFile(t, loopSrc))
	_, err := passes.Run(context.Background(), "nope", f, passes.Params{})
	if !errors.Is(err, passes.ErrUnknown) {
		t.Errorf("unknown pass: err %v, want ErrUnknown", err)
	}
	if !errors.Is(err, passes.ErrNotFound) {
		t.Errorf("unknown pass: err %v, want ErrNotFound (so servers answer 404)", err)
	}
}

func TestParams(t *testing.T) {
	p := passes.Params{Values: map[string]string{"k": "3", "bad": "x", "blocks": "1, 2,3", "badblocks": "1,a"}}
	if v, err := p.Int("k", 1); err != nil || v != 3 {
		t.Errorf("Int(k) = %d, %v", v, err)
	}
	if v, err := p.Int("absent", 7); err != nil || v != 7 {
		t.Errorf("Int(absent) = %d, %v", v, err)
	}
	if _, err := p.Int("bad", 0); cli.ExitCode(err) != cli.ExitUsage {
		t.Errorf("Int(bad): %v, want usage", err)
	}
	if m, err := p.Blocks("blocks"); err != nil || len(m) != 3 || !m[2] {
		t.Errorf("Blocks = %v, %v", m, err)
	}
	if m, err := p.Blocks("absent"); err != nil || len(m) != 0 {
		t.Errorf("Blocks(absent) = %v, %v", m, err)
	}
	if _, err := p.Blocks("badblocks"); cli.ExitCode(err) != cli.ExitUsage {
		t.Errorf("Blocks(badblocks): %v, want usage", err)
	}
	if _, err := p.Func(); cli.ExitCode(err) != cli.ExitUsage {
		t.Errorf("Func() without func: %v, want usage", err)
	}
}

// kpaths runs the pass and type-asserts the result.
func kpaths(t *testing.T, c twpp.Container, fn, k int) *passes.KPathsResult {
	t.Helper()
	res, err := passes.Run(context.Background(), "kpaths", c, passes.Params{
		Values: map[string]string{"func": itoa(fn), "k": itoa(k)},
	})
	if err != nil {
		t.Fatalf("kpaths(func=%d, k=%d): %v", fn, k, err)
	}
	return res.(*passes.KPathsResult)
}

func itoa(v int) string { return strconv.Itoa(v) }

// findFunc resolves a function id by name.
func findFunc(t *testing.T, c twpp.Container, name string) int {
	t.Helper()
	for i, n := range c.Names() {
		if n == name {
			return i
		}
	}
	t.Fatalf("no function %q (have %v)", name, c.Names())
	return -1
}

// The tentpole property: alternating (A,B,A,B,...) and blocky
// (A,...,A,B,...,B) loops have identical single-iteration profiles —
// the same iteration paths with the same counts — but different
// k=2 profiles, because only the window view sees iteration order.
func TestKPathsSeesCrossIterationOrder(t *testing.T) {
	f := openFile(t, compileToFile(t, loopSrc))
	alt := findFunc(t, f, "alternating")
	blk := findFunc(t, f, "blocky")

	a1, b1 := kpaths(t, f, alt, 1), kpaths(t, f, blk, 1)
	if !reflect.DeepEqual(a1.Paths, b1.Paths) {
		t.Errorf("k=1 profiles differ:\nalternating: %+v\nblocky:      %+v", a1.Paths, b1.Paths)
	}
	if a1.Calls != 1 || a1.Iterations != b1.Iterations || a1.Windows != b1.Windows {
		t.Errorf("k=1 headers differ: %+v vs %+v", a1, b1)
	}

	a2, b2 := kpaths(t, f, alt, 2), kpaths(t, f, blk, 2)
	if reflect.DeepEqual(a2.Paths, b2.Paths) {
		t.Errorf("k=2 profiles identical — the window view must distinguish iteration order:\n%+v", a2.Paths)
	}
	// The alternating loop's hottest k=2 window pairs the two distinct
	// iteration bodies; the blocky loop's pairs a body with itself.
	if len(a2.Paths) == 0 || len(b2.Paths) == 0 {
		t.Fatal("empty k=2 profiles")
	}
	hot := a2.Paths[0]
	if len(hot.Seq) != 2 || reflect.DeepEqual(hot.Seq[0], hot.Seq[1]) {
		t.Errorf("alternating hot k=2 window should pair two distinct iterations: %+v", hot)
	}
	bhot := b2.Paths[0]
	if len(bhot.Seq) != 2 || !reflect.DeepEqual(bhot.Seq[0], bhot.Seq[1]) {
		t.Errorf("blocky hot k=2 window should repeat one iteration: %+v", bhot)
	}
}

// k=1 agreement with stats: the Calls figure matches the stats pass
// exactly for every function, every call contributes at least one
// iteration, and at k=1 every iteration is a window.
func TestKPathsK1AgreesWithStats(t *testing.T) {
	f := openFile(t, compileToFile(t, loopSrc))
	for _, fn := range f.Functions() {
		sres, err := passes.Run(context.Background(), "stats", f, passes.Params{
			Values: map[string]string{"func": itoa(int(fn))},
		})
		if err != nil {
			t.Fatal(err)
		}
		stats := sres.(*passes.StatsResult)
		kp := kpaths(t, f, int(fn), 1)
		if kp.Calls != stats.Calls {
			t.Errorf("f%d: kpaths calls %d != stats calls %d", fn, kp.Calls, stats.Calls)
		}
		if kp.Iterations < kp.Calls {
			t.Errorf("f%d: %d iterations < %d calls", fn, kp.Iterations, kp.Calls)
		}
		if kp.Windows != kp.Iterations {
			t.Errorf("f%d: k=1 windows %d != iterations %d", fn, kp.Windows, kp.Iterations)
		}
		total := 0
		for _, p := range kp.Paths {
			total += p.Count
		}
		if total != kp.Windows {
			t.Errorf("f%d: path counts sum to %d, windows %d", fn, total, kp.Windows)
		}
	}
}

// A loop-free function has exactly one iteration per call, so its k=1
// path counts equal the call count.
func TestKPathsLoopFree(t *testing.T) {
	f := openFile(t, compileToFile(t, `
func main() {
    var s = 0;
    for (var i = 0; i < 9; i = i + 1) {
        s = s + leaf(i);
    }
    print(s);
}
func leaf(x) {
    if (x % 3 == 0) {
        return x + 1;
    }
    return x;
}
`))
	leaf := findFunc(t, f, "leaf")
	kp := kpaths(t, f, leaf, 1)
	if kp.Iterations != kp.Calls {
		t.Errorf("loop-free: %d iterations != %d calls", kp.Iterations, kp.Calls)
	}
	total := 0
	for _, p := range kp.Paths {
		if len(p.Seq) != 1 {
			t.Errorf("k=1 window with %d iterations", len(p.Seq))
		}
		total += p.Count
	}
	if total != kp.Calls {
		t.Errorf("path counts sum to %d, want calls %d", total, kp.Calls)
	}
}

// kpaths results are identical across {v1, v2, segmented} containers
// on {file, mmap, memory} backends, and match the facade entry point.
func TestKPathsCrossContainerMatrix(t *testing.T) {
	prog, err := twpp.Compile(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Trace(nil)
	if err != nil {
		t.Fatal(err)
	}
	tw, _ := twpp.Compact(run.WPP)

	dir := t.TempDir()
	v1 := filepath.Join(dir, "t1.twpp")
	if err := wppfile.WriteCompactedFormat(v1, tw, 1, wppfile.FormatV1); err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(dir, "t2.twpp")
	if err := twpp.WriteFile(v2, tw); err != nil {
		t.Fatal(err)
	}
	segDir := filepath.Join(dir, "t.twppd")
	if err := twpp.CompactSegmented(segDir, tw, twpp.SegmentOptions{Segments: 2}); err != nil {
		t.Fatal(err)
	}

	type combo struct {
		kind, path string
		backend    twpp.BackendKind
	}
	var combos []combo
	for _, kp := range []struct{ kind, path string }{{"v1", v1}, {"v2", v2}, {"segmented", segDir}} {
		for _, b := range []struct {
			name    string
			backend twpp.BackendKind
		}{{"file", twpp.BackendFile}, {"mmap", twpp.BackendMmap}, {"memory", twpp.BackendMemory}} {
			combos = append(combos, combo{kind: kp.kind + "/" + b.name, path: kp.path, backend: b.backend})
		}
	}

	var baseline map[int]string
	for _, cb := range combos {
		f, err := twpp.OpenContainer(cb.path, twpp.OpenOptions{Backend: cb.backend})
		if err != nil {
			t.Fatalf("%s: open: %v", cb.kind, err)
		}
		got := map[int]string{}
		for _, fn := range f.Functions() {
			for _, k := range []int{1, 2, 3} {
				res, err := twpp.KPathProfile(f, fn, k)
				if err != nil {
					t.Fatalf("%s: kpaths f%d k=%d: %v", cb.kind, fn, k, err)
				}
				data, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				got[int(fn)*100+k] = string(data)
			}
		}
		f.Close()
		if baseline == nil {
			baseline = got
			continue
		}
		if !reflect.DeepEqual(baseline, got) {
			t.Errorf("%s: kpaths diverge from baseline", cb.kind)
		}
	}
}

// Context cancellation reaches the pass.
func TestRunCanceled(t *testing.T) {
	f := openFile(t, compileToFile(t, loopSrc))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := passes.Run(ctx, "kpaths", f, passes.Params{
		Values: map[string]string{"func": "0", "k": "1"},
	})
	if err == nil {
		t.Error("canceled context: want error")
	}
}

// Usage-class parameter errors from every pass classify as exit 2.
func TestUsageErrors(t *testing.T) {
	f := openFile(t, compileToFile(t, loopSrc))
	cases := []struct {
		pass string
		vals map[string]string
	}{
		{"trace", map[string]string{}},
		{"trace", map[string]string{"func": "x"}},
		{"trace", map[string]string{"func": "0", "trace": "999"}},
		{"cfg", map[string]string{"func": "0", "trace": "-2"}},
		{"query", map[string]string{"func": "0"}},
		{"query", map[string]string{"func": "0", "block": "2", "gen": "a"}},
		{"kpaths", map[string]string{"func": "0", "k": "0"}},
		{"kpaths", map[string]string{"func": "0", "k": "101"}},
		{"kpaths", map[string]string{"func": "0", "k": "1", "top": "-1"}},
	}
	for _, tc := range cases {
		_, err := passes.Run(context.Background(), tc.pass, f, passes.Params{Values: tc.vals})
		if got := cli.ExitCode(err); got != cli.ExitUsage {
			t.Errorf("%s %v: exit %d (err %v), want usage", tc.pass, tc.vals, got, err)
		}
	}
}
