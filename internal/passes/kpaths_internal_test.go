package passes

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/cli"
	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// Regression: the original windowKey framed iterations with a 0xff
// terminator, but varints for block ids ≡ 127 (mod 128) *begin* with
// 0xff, so the realizable windows [[1],[1,255]] and [[1,255],[1]]
// (from traces 1,1,255 and 1,255,1 of the same function) encoded to
// the same key and had their counts merged. Length-prefix framing must
// keep every distinct window distinct.
func TestWindowKeyUniquelyDecodable(t *testing.T) {
	a := windowKey([][]int{{1}, {1, 255}})
	b := windowKey([][]int{{1, 255}, {1}})
	if a == b {
		t.Fatalf("windowKey collision on the reviewer's case: %x", a)
	}

	// Brute force: every k=2 window over iterations of length 1..2
	// drawn from ids spanning the varint boundary cases, including ids
	// whose encodings start with a continuation byte (127, 255, 16383).
	ids := []int{1, 127, 128, 255, 16383}
	var iters [][]int
	for _, x := range ids {
		iters = append(iters, []int{x})
		for _, y := range ids {
			iters = append(iters, []int{x, y})
		}
	}
	keys := map[string]string{}
	for _, i1 := range iters {
		for _, i2 := range iters {
			win := [][]int{i1, i2}
			repr := fmt.Sprintf("%v", win)
			key := windowKey(win)
			if prev, ok := keys[key]; ok && prev != repr {
				t.Errorf("windows %s and %s share key %x", prev, repr, key)
			}
			keys[key] = repr
		}
	}
}

// synthFT builds a one-trace FunctionTWPP whose single block claims
// every timestamp 1..n, so its expanded length is exactly n without
// materializing anything.
func synthFT(n int64) *core.FunctionTWPP {
	return &core.FunctionTWPP{
		Traces: []*core.Trace{{
			Len:    int(n),
			Blocks: []core.BlockTimes{{Block: 1, Times: core.Seq{{Lo: 1, Hi: n, Step: 1}}}},
		}},
		Dicts:  []wpp.Dictionary{{}},
		DictOf: []int{0},
	}
}

// Regression: window storage is O(expanded blocks × k), so a container
// that passes the plain expansion check must still be rejected when k
// multiplies it past the budget — same structured CodeLimit rejection
// (exit 5, HTTP 422), before any length-proportional allocation.
func TestCheckExpandScaledBoundsProduct(t *testing.T) {
	ft := synthFT(MaxExpandBlocks)
	if err := checkExpand(ft, -1); err != nil {
		t.Fatalf("at-limit container rejected at scale 1: %v", err)
	}
	if err := checkExpandScaled(ft, -1, 1); err != nil {
		t.Fatalf("checkExpandScaled(1) disagrees with checkExpand: %v", err)
	}
	err := checkExpandScaled(ft, -1, 2)
	var ee *encoding.Error
	if !errors.As(err, &ee) || ee.Code != encoding.CodeLimit {
		t.Fatalf("scale 2 over an at-limit container: err %v, want CodeLimit", err)
	}
	// A container small enough that even MaxK windows fit stays accepted.
	if err := checkExpandScaled(synthFT(MaxExpandBlocks/MaxK), -1, MaxK); err != nil {
		t.Fatalf("in-budget product rejected: %v", err)
	}
}

// Cancellation must be observed inside a single trace's expansion and
// window generation, not just between traces.
func TestIterationsPollsContext(t *testing.T) {
	path := make(wpp.PathTrace, 64)
	for i := range path {
		path[i] = cfg.BlockID(i%4 + 1)
	}
	ft := &core.FunctionTWPP{
		Traces: []*core.Trace{core.FromPath(path)},
		Dicts:  []wpp.Dictionary{{}},
		DictOf: []int{0},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := iterations(ctx, ft, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("iterations under canceled ctx: err %v, want context.Canceled", err)
	}
	if got, err := iterations(context.Background(), ft, 0); err != nil || len(got) != 16 {
		t.Fatalf("iterations = %d windows, %v; want 16 iterations, nil", len(got), err)
	}
}

// A call graph node that names a trace its function lacks is corrupt,
// to kpaths as to ReadAll: the call must not be skipped. The container
// is a valid v2 image: main calls f three times along blocks 2,3,5,
// and the second call's trace index is set to 1 (f has one unique
// trace) before encoding, so every checksum holds.
func TestKPathsRejectsMissingTrace(t *testing.T) {
	b := trace.NewBuilder([]string{"main", "f"})
	b.EnterCall(0)
	for range 3 {
		b.Blocks([]cfg.BlockID{1})
		b.EnterCall(1)
		b.Blocks([]cfg.BlockID{2, 3, 5})
		b.ExitCall()
	}
	b.ExitCall()
	c, _ := wpp.Compact(b.Finish())
	tw := core.FromCompacted(c)
	tw.DCG.Trace[2] = 1 // main's second call of f
	data, err := wppfile.EncodeCompactedWorkers(tw, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := wppfile.OpenCompactedBytes(data, wppfile.OpenOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAll(); cli.ExitCode(err) != cli.ExitCorrupt {
		t.Fatalf("ReadAll: %v, want a corrupt error", err)
	}
	res, err := Run(context.Background(), "kpaths", f, Params{Values: map[string]string{"func": "1"}})
	if cli.ExitCode(err) != cli.ExitCorrupt {
		t.Fatalf("kpaths = %+v, %v; want a corrupt error", res, err)
	}
}
