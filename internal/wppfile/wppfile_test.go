package wppfile

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/cli"
	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/lzw"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// sampleWPP builds a traced execution with several functions of
// varying hotness.
func sampleWPP(rng *rand.Rand, calls int) *trace.RawWPP {
	names := []string{"main", "hot", "warm", "cold"}
	b := trace.NewBuilder(names)
	b.EnterCall(0)
	b.Block(1)
	for i := 0; i < calls; i++ {
		b.Block(2)
		// hot called every iteration, warm every 4th, cold once.
		b.EnterCall(1)
		b.Block(1)
		iters := 1 + rng.Intn(3)
		for j := 0; j < iters; j++ {
			b.Block(2)
			b.Block(3)
		}
		b.Block(4)
		b.ExitCall()
		if i%4 == 0 {
			b.EnterCall(2)
			b.Block(1)
			if i%8 == 0 {
				b.Block(2)
			} else {
				b.Block(3)
			}
			b.Block(4)
			b.ExitCall()
		}
		if i == 0 {
			b.EnterCall(3)
			b.Block(1)
			b.Block(2)
			b.ExitCall()
		}
	}
	b.Block(3)
	b.ExitCall()
	return b.Finish()
}

func buildTWPP(t *testing.T, rng *rand.Rand, calls int) (*trace.RawWPP, *core.TWPP) {
	t.Helper()
	w := sampleWPP(rng, calls)
	c, _ := wpp.Compact(w)
	return w, core.FromCompacted(c)
}

func TestRawFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	w := sampleWPP(rng, 50)
	path := filepath.Join(t.TempDir(), "trace.wpp")
	if err := WriteRaw(path, w); err != nil {
		t.Fatal(err)
	}
	w2, err := ReadRaw(path)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Equal(w, w2) {
		t.Error("raw file round trip failed")
	}
	if !reflect.DeepEqual(w2.FuncNames, w.FuncNames) {
		t.Errorf("names = %v", w2.FuncNames)
	}
}

func TestScanRawForFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	w := sampleWPP(rng, 40)
	path := filepath.Join(t.TempDir(), "trace.wpp")
	if err := WriteRaw(path, w); err != nil {
		t.Fatal(err)
	}
	for fn := cfg.FuncID(0); fn < 4; fn++ {
		got, err := ScanRawForFunction(path, fn)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: walk the in-memory WPP in preorder.
		var want []wpp.PathTrace
		for i, f := range w.DCG.Fn {
			if f == fn {
				want = append(want, wpp.PathTrace(w.Traces[w.DCG.Trace[i]]))
			}
		}
		// ScanRaw records traces at EXIT time; for non-recursive calls
		// at the same depth the order matches preorder. Compare as
		// multisets via sorting by content.
		if len(got) != len(want) {
			t.Fatalf("fn %d: got %d traces, want %d", fn, len(got), len(want))
		}
		used := make([]bool, len(want))
		for _, g := range got {
			found := false
			for i, w2 := range want {
				if !used[i] && reflect.DeepEqual(g, w2) {
					used[i] = true
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("fn %d: unexpected trace %v", fn, g)
			}
		}
	}
}

func TestCompactedFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	w, tw := buildTWPP(t, rng, 60)
	path := filepath.Join(t.TempDir(), "trace.twpp")
	if err := WriteCompacted(path, tw); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCompacted(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()

	tw2, err := cf.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := tw2.ToCompacted()
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Equal(w, c2.Reconstruct()) {
		t.Error("compacted file did not reconstruct the original WPP")
	}
}

func TestIndexOrderIsHottestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	_, tw := buildTWPP(t, rng, 60)
	path := filepath.Join(t.TempDir(), "trace.twpp")
	if err := WriteCompacted(path, tw); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCompacted(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	fns := cf.Functions()
	for i := 1; i < len(fns); i++ {
		if cf.CallCount(fns[i-1]) < cf.CallCount(fns[i]) {
			t.Errorf("index not sorted by hotness: %v", fns)
		}
	}
	// hot (fn 1) must precede cold (fn 3).
	posOf := func(f cfg.FuncID) int {
		for i, x := range fns {
			if x == f {
				return i
			}
		}
		return -1
	}
	if posOf(1) > posOf(3) {
		t.Errorf("hot after cold: %v", fns)
	}
}

func TestExtractFunctionMatchesReadAll(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	_, tw := buildTWPP(t, rng, 80)
	path := filepath.Join(t.TempDir(), "trace.twpp")
	if err := WriteCompacted(path, tw); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCompacted(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	for _, fn := range cf.Functions() {
		ft, err := cf.ExtractFunction(fn)
		if err != nil {
			t.Fatalf("ExtractFunction(%d): %v", fn, err)
		}
		want := &tw.Funcs[fn]
		if ft.CallCount != want.CallCount || len(ft.Traces) != len(want.Traces) {
			t.Fatalf("fn %d: got %d/%d, want %d/%d",
				fn, ft.CallCount, len(ft.Traces), want.CallCount, len(want.Traces))
		}
		for i := range ft.Traces {
			if !reflect.DeepEqual(ft.Traces[i], want.Traces[i]) {
				t.Errorf("fn %d trace %d mismatch", fn, i)
			}
		}
		if !reflect.DeepEqual(ft.Dicts, want.Dicts) {
			t.Errorf("fn %d dictionaries mismatch", fn)
		}
	}
}

func TestExtractAbsentFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	_, tw := buildTWPP(t, rng, 10)
	path := filepath.Join(t.TempDir(), "trace.twpp")
	if err := WriteCompacted(path, tw); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCompacted(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if _, err := cf.ExtractFunction(99); err == nil {
		t.Error("extracting absent function: want error")
	}
}

func TestOpenRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": {1, 2, 3, 4, 5, 6, 7, 8},
		"truncated": {0x46, 0x50, 0x57, 0x54, 1}, // magic ok then cut
	}
	for name, data := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCompacted(p); err == nil {
			t.Errorf("%s: want error", name)
		}
		if _, err := ReadRaw(p); err == nil {
			t.Errorf("%s (raw): want error", name)
		}
	}
}

// An index that lists a function twice is corrupt in either format,
// even when every checksum is valid: Open must reject it before
// Functions() repeats the function or ReadAll decodes it twice.
func TestOpenRejectsDuplicateIndexEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	_, tw := buildTWPP(t, rng, 60)
	for _, format := range []int{FormatV1, FormatV2} {
		t.Run(fmt.Sprintf("v%d", format), func(t *testing.T) {
			img, err := EncodeCompactedFormat(tw, 1, format)
			if err != nil {
				t.Fatal(err)
			}
			cf, err := OpenCompactedBytes(img, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			index := make([]indexEntry, 0, len(cf.order)+1)
			for _, fn := range cf.order {
				index = append(index, cf.index[fn])
			}
			index = append(index, index[0])
			dcg := img[cf.dcgOffset : cf.dcgOffset+int64(cf.dcgLen)]
			blocks := img[cf.blocksOffset : cf.blocksOffset+cf.blocksLen]
			bad := assembleImage(cf.FuncNames, index, dcg, blocks, format)
			cf, err = OpenCompactedBytes(bad, OpenOptions{VerifyChecksums: true})
			var de *encoding.Error
			if !errors.As(err, &de) || de.Code != encoding.CodeCorrupt {
				if err == nil {
					err = fmt.Errorf("opened, Functions() = %v", cf.Functions())
				}
				t.Fatalf("index listing function %d twice: %v, want a CodeCorrupt error at Open", index[0].Fn, err)
			}
		})
	}
}

// A DBB dictionary the encoder never writes is corrupt to every
// extraction path, in either format, with valid checksums: a chain
// shorter than two blocks, a chain that does not start at its head,
// and a head repeated within one dictionary. Each image holds one
// function whose one trace is the single block 9, with hand-made
// block bytes, since a wpp.Dictionary cannot hold a head twice.
func TestDecodeRejectsMalformedDictionary(t *testing.T) {
	type chain struct {
		head uint64
		ids  []uint64
	}
	cases := map[string][]chain{
		"empty chain":           {{9, nil}},
		"one-block chain":       {{9, []uint64{9}}},
		"chain not at its head": {{9, []uint64{4, 5}}},
		"repeated head":         {{9, []uint64{9, 5}}, {9, []uint64{9, 5}}},
	}
	tr := core.FromPath(wpp.PathTrace{9})
	dcg := lzw.Compress(EncodeDCG(&trace.DCG{Fn: []cfg.FuncID{0}, Trace: []int{0}, Pos: []int{0}, End: []int{1}}))
	for name, chains := range cases {
		blk := encoding.PutUvarint(nil, 1) // call count
		blk = encoding.PutUvarint(blk, 1)  // dictionaries
		blk = encoding.PutUvarint(blk, uint64(len(chains)))
		for _, c := range chains {
			blk = encoding.PutUvarint(blk, c.head)
			blk = encoding.PutUvarint(blk, uint64(len(c.ids)))
			for _, id := range c.ids {
				blk = encoding.PutUvarint(blk, id)
			}
		}
		blk = encoding.PutUvarint(blk, 1) // traces
		blk = AppendTraceRecord(blk, 0, tr)
		for _, format := range []int{FormatV1, FormatV2} {
			e := indexEntry{Fn: 0, CallCount: 1, Length: len(blk)}
			if format == FormatV2 {
				e.CRC = Checksum(blk)
			}
			img := assembleImage([]string{"main"}, []indexEntry{e}, dcg, blk, format)
			cf, err := OpenCompactedBytes(img, OpenOptions{VerifyChecksums: true})
			if err != nil {
				t.Fatalf("%s, v%d: open: %v", name, format, err)
			}
			_, owned := cf.ExtractFunction(0)
			buf := GetExtractBuffer()
			_, pooled := cf.ExtractFunctionInto(0, buf)
			PutExtractBuffer(buf)
			_, all := cf.ReadAll()
			for op, err := range map[string]error{"ExtractFunction": owned, "ExtractFunctionInto": pooled, "ReadAll": all} {
				if cli.ExitCode(err) != cli.ExitCorrupt {
					t.Errorf("%s, v%d: %s = %v, want a corrupt error (exit %d)", name, format, op, err, cli.ExitCorrupt)
				}
			}
		}
	}
}

func TestSectionSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	_, tw := buildTWPP(t, rng, 60)
	path := filepath.Join(t.TempDir(), "trace.twpp")
	if err := WriteCompacted(path, tw); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCompacted(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	header, dcg, blocks, err := cf.SectionSizes()
	if err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)
	if header+dcg+blocks != st.Size() {
		t.Errorf("sections %d+%d+%d != file size %d", header, dcg, blocks, st.Size())
	}
	if dcg <= 0 || blocks <= 0 {
		t.Errorf("degenerate sections: %d %d %d", header, dcg, blocks)
	}
}

func TestCompactedSmallerThanRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	w, tw := buildTWPP(t, rng, 500)
	dir := t.TempDir()
	rawPath := filepath.Join(dir, "raw.wpp")
	compPath := filepath.Join(dir, "comp.twpp")
	if err := WriteRaw(rawPath, w); err != nil {
		t.Fatal(err)
	}
	if err := WriteCompacted(compPath, tw); err != nil {
		t.Fatal(err)
	}
	rs, _ := os.Stat(rawPath)
	cs, _ := os.Stat(compPath)
	if cs.Size() >= rs.Size() {
		t.Errorf("compacted %d >= raw %d", cs.Size(), rs.Size())
	}
}

func TestLargeHeaderRetry(t *testing.T) {
	// A program with very many functions forces the index past the
	// 64KiB header guess, exercising the whole-file retry in Open.
	names := make([]string, 6000)
	for i := range names {
		names[i] = "function_with_a_rather_long_name_" + string(rune('a'+i%26)) + string(rune('0'+i%10))
	}
	b := trace.NewBuilder(names)
	b.EnterCall(0)
	b.Block(1)
	for f := 1; f < len(names); f++ {
		b.EnterCall(cfg.FuncID(f))
		b.Block(1)
		b.Block(2)
		b.ExitCall()
	}
	b.ExitCall()
	w := b.Finish()
	c, _ := wpp.Compact(w)
	tw := core.FromCompacted(c)
	path := filepath.Join(t.TempDir(), "big.twpp")
	if err := WriteCompacted(path, tw); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCompacted(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if len(cf.Functions()) != 6000 {
		t.Errorf("functions = %d, want 6000", len(cf.Functions()))
	}
	ft, err := cf.ExtractFunction(5999)
	if err != nil {
		t.Fatal(err)
	}
	if ft.CallCount != 1 {
		t.Errorf("cold function call count = %d", ft.CallCount)
	}
}
