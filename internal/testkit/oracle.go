package testkit

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/storage"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// Invariant oracles. Each returns nil when the invariant holds and a
// descriptive error otherwise; none takes a testing.TB so the same
// checks serve unit tests, fuzz targets, and the corruption sweeps.

// Structured reports whether err belongs to the structured error
// vocabulary the decode surfaces are contracted to return on hostile
// input: *encoding.Error (truncation, overflow, corruption, limits) or
// *trace.StreamError (event-stream shape violations).
func Structured(err error) bool {
	var de *encoding.Error
	var se *trace.StreamError
	return errors.As(err, &de) || errors.As(err, &se)
}

// EncodeBoth encodes w in both on-disk formats: the raw linear stream
// and the compacted indexed file (single worker, so the bytes are the
// canonical ordering).
func EncodeBoth(w *trace.RawWPP) (raw, compacted []byte, err error) {
	raw = wppfile.EncodeRaw(w)
	c, _ := wpp.Compact(w)
	t := core.FromCompacted(c)
	compacted, err = wppfile.EncodeCompactedWorkers(t, 1)
	return raw, compacted, err
}

// RoundTrip checks encode/decode identity on both formats: the raw
// file re-reads to an event-equal WPP, and the compacted file re-reads
// to a TWPP that reconstructs the original path exactly. It exercises
// the default container format over the file backend; RoundTripVariant
// pins both axes.
func RoundTrip(w *trace.RawWPP) error {
	return RoundTripVariant(w, 0, storage.KindFile)
}

// RoundTripVariant is RoundTrip over a chosen container format (0 =
// writer default) and storage backend, with eager checksum
// verification on — the matrix cell every format/backend combination
// must pass identically. The parallel ReadAll must also equal its
// sequential reference (CheckReadAllParity).
func RoundTripVariant(w *trace.RawWPP, format int, kind storage.Kind) error {
	dir, err := os.MkdirTemp("", "testkit-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rawPath := filepath.Join(dir, "t.wpp")
	if err := wppfile.WriteRaw(rawPath, w); err != nil {
		return fmt.Errorf("write raw: %w", err)
	}
	back, err := wppfile.ReadRawKind(rawPath, kind)
	if err != nil {
		return fmt.Errorf("re-read raw: %w", err)
	}
	if !trace.Equal(w, back) {
		return errors.New("raw round trip: WPP not identical")
	}

	c, _ := wpp.Compact(w)
	t := core.FromCompacted(c)
	twppPath := filepath.Join(dir, "t.twpp")
	if err := wppfile.WriteCompactedFormat(twppPath, t, 1, format); err != nil {
		return fmt.Errorf("write compacted: %w", err)
	}
	cf, err := wppfile.OpenCompactedOptions(twppPath, wppfile.OpenOptions{
		Backend:         kind,
		VerifyChecksums: true,
	})
	if err != nil {
		return fmt.Errorf("open compacted: %w", err)
	}
	defer cf.Close()
	if format != 0 && cf.FormatVersion() != format {
		return fmt.Errorf("format version %d, want %d", cf.FormatVersion(), format)
	}
	t2, err := cf.ReadAll()
	if err != nil {
		return fmt.Errorf("read compacted: %w", err)
	}
	if err := CheckReadAllParity(cf); err != nil {
		return err
	}
	c2, err := t2.ToCompacted()
	if err != nil {
		return fmt.Errorf("invert timestamps: %w", err)
	}
	if !trace.Equal(w, c2.Reconstruct()) {
		return errors.New("compacted round trip: WPP not identical")
	}
	return nil
}

// BatchStreamParity checks that the batch pipeline (compact in memory)
// and the streaming pipeline (replay raw events into the online
// compactor) produce byte-identical compacted files in the given
// container format (0 selects v2).
func BatchStreamParity(w *trace.RawWPP, format int) error {
	c, _ := wpp.Compact(w)
	batch, err := wppfile.EncodeCompactedFormat(core.FromCompacted(c), 1, format)
	if err != nil {
		return fmt.Errorf("batch encode: %w", err)
	}

	raw := wppfile.EncodeRaw(w)
	rr, err := wppfile.NewRawStreamReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return fmt.Errorf("stream header: %w", err)
	}
	sc := core.NewStreamCompactor(rr.Names())
	if err := rr.Replay(sc); err != nil {
		return fmt.Errorf("stream replay: %w", err)
	}
	t, _, err := sc.Finish()
	if err != nil {
		return fmt.Errorf("stream finish: %w", err)
	}
	stream, err := wppfile.EncodeCompactedFormat(t, 1, format)
	if err != nil {
		return fmt.Errorf("stream encode: %w", err)
	}
	if !bytes.Equal(batch, stream) {
		return fmt.Errorf("batch and stream images differ: %d vs %d bytes", len(batch), len(stream))
	}
	return nil
}

// ExtractVsRawScan checks that for every function, random-access
// extraction from the compacted file expands to exactly the per-call
// traces a linear scan of the raw file yields, in the same
// (call-completion) order. It exercises the default container format
// over the file backend; ExtractVsRawScanVariant pins both axes.
func ExtractVsRawScan(w *trace.RawWPP) error {
	return ExtractVsRawScanVariant(w, 0, storage.KindFile)
}

// ExtractVsRawScanVariant is ExtractVsRawScan over a chosen container
// format (0 = writer default) and storage backend: both the raw scan
// and the compacted extraction read through the same backend kind.
func ExtractVsRawScanVariant(w *trace.RawWPP, format int, kind storage.Kind) error {
	dir, err := os.MkdirTemp("", "testkit-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rawPath := filepath.Join(dir, "t.wpp")
	if err := wppfile.WriteRaw(rawPath, w); err != nil {
		return err
	}
	c, _ := wpp.Compact(w)
	t := core.FromCompacted(c)
	twppPath := filepath.Join(dir, "t.twpp")
	if err := wppfile.WriteCompactedFormat(twppPath, t, 1, format); err != nil {
		return err
	}
	cf, err := wppfile.OpenCompactedOptions(twppPath, wppfile.OpenOptions{Backend: kind})
	if err != nil {
		return err
	}
	defer cf.Close()
	dcg, err := cf.ReadDCG()
	if err != nil {
		return err
	}

	for f := range w.FuncNames {
		fn := cfg.FuncID(f)
		scanned, err := wppfile.ScanRawForFunctionKind(rawPath, fn, kind)
		if err != nil {
			return fmt.Errorf("f%d: raw scan: %w", f, err)
		}
		ft, err := cf.ExtractFunction(fn)
		if err != nil {
			if len(scanned) == 0 {
				continue // never called: absent from the index
			}
			return fmt.Errorf("f%d: extract: %w", f, err)
		}
		got, err := expandCalls(dcg, ft)
		if err != nil {
			return fmt.Errorf("f%d: expand: %w", f, err)
		}
		if len(got) != len(scanned) {
			return fmt.Errorf("f%d: %d extracted calls vs %d scanned", f, len(got), len(scanned))
		}
		for i := range got {
			if !pathEqual(got[i], scanned[i]) {
				return fmt.Errorf("f%d call %d: extracted trace differs from raw scan", f, i)
			}
		}
	}
	return nil
}

// ExtractIntoParityVariant checks that the pooled extraction path
// (ExtractFunctionInto with one shared buffer) returns results
// identical to the owned path for every function of w, at the
// given container format (0 = writer default) and storage backend. It
// also pins the ContentHash availability rule: v2 containers have one,
// v1 containers do not.
func ExtractIntoParityVariant(w *trace.RawWPP, format int, kind storage.Kind) error {
	dir, err := os.MkdirTemp("", "testkit-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	c, _ := wpp.Compact(w)
	t := core.FromCompacted(c)
	path := filepath.Join(dir, "t.twpp")
	if err := wppfile.WriteCompactedFormat(path, t, 1, format); err != nil {
		return err
	}
	cf, err := wppfile.OpenCompactedOptions(path, wppfile.OpenOptions{Backend: kind})
	if err != nil {
		return err
	}
	defer cf.Close()

	if _, ok := cf.ContentHash(); ok != (cf.FormatVersion() == wppfile.FormatV2) {
		return fmt.Errorf("ContentHash ok=%v for format v%d", ok, cf.FormatVersion())
	}

	ebuf := wppfile.GetExtractBuffer()
	defer wppfile.PutExtractBuffer(ebuf)
	for _, fn := range cf.Functions() {
		ift, ierr := cf.ExtractFunctionInto(fn, ebuf)
		ft, ferr := cf.ExtractFunction(fn)
		if (ferr == nil) != (ierr == nil) || (ferr != nil && ferr.Error() != ierr.Error()) {
			return fmt.Errorf("f%d: parity break: plain=%v pooled=%v", fn, ferr, ierr)
		}
		if ferr != nil {
			continue
		}
		if perr := EqualFunctionTWPP(ft, ift); perr != nil {
			return fmt.Errorf("f%d: result divergence: %w", fn, perr)
		}
	}
	return nil
}

// expandCalls collects fn's per-call expanded traces in call-completion
// order — a post-order DCG walk, matching the order a linear replay
// emits ExitCall events.
func expandCalls(root *wpp.CallNode, ft *core.FunctionTWPP) ([]wpp.PathTrace, error) {
	var out []wpp.PathTrace
	var rec func(n *wpp.CallNode) error
	rec = func(n *wpp.CallNode) error {
		for _, ch := range n.Children {
			if err := rec(ch); err != nil {
				return err
			}
		}
		if n.Fn != ft.Fn {
			return nil
		}
		path, err := ft.Traces[n.TraceIdx].ToPath()
		if err != nil {
			return err
		}
		dict := ft.Dicts[ft.DictOf[n.TraceIdx]]
		var full wpp.PathTrace
		for _, id := range path {
			if chain, ok := dict[id]; ok {
				full = append(full, chain...)
			} else {
				full = append(full, id)
			}
		}
		out = append(out, full)
		return nil
	}
	if root == nil {
		return nil, nil
	}
	if err := rec(root); err != nil {
		return nil, err
	}
	return out, nil
}

func pathEqual(a, b wpp.PathTrace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CheckCompactedDecode drives every compacted decode surface (open,
// DCG, per-function extraction — owned and pooled, whose results and
// errors must agree exactly — and the parallel full read, which must
// match its sequential reference, see CheckReadAllParity) over one
// image, recovering panics. It returns nil when the decoder either
// succeeds or fails with a structured error, and a descriptive error
// on a panic, an unstructured failure, or a parity break — outcomes
// hostile input must never produce.
func CheckCompactedDecode(dir string, data []byte, opts wppfile.OpenOptions) (vErr error) {
	defer func() {
		if r := recover(); r != nil {
			vErr = fmt.Errorf("panic decoding compacted image: %v", r)
		}
	}()
	path := filepath.Join(dir, "check.twpp")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	cf, err := wppfile.OpenCompactedOptions(path, opts)
	if err != nil {
		return requireStructured("open", err)
	}
	defer cf.Close()
	if _, err := cf.ReadDCG(); err != nil {
		if v := requireStructured("ReadDCG", err); v != nil {
			return v
		}
	}
	ebuf := wppfile.GetExtractBuffer()
	defer wppfile.PutExtractBuffer(ebuf)
	for _, fn := range cf.Functions() {
		// Pooled extraction first (before the plain path can populate
		// the decode cache), so both paths decode the same raw bytes.
		ift, ierr := cf.ExtractFunctionInto(fn, ebuf)
		ft, err := cf.ExtractFunction(fn)
		if (err == nil) != (ierr == nil) || (err != nil && err.Error() != ierr.Error()) {
			return fmt.Errorf("f%d: extract/extract-into parity break: plain=%v pooled=%v", fn, err, ierr)
		}
		if err != nil {
			if v := requireStructured("ExtractFunction", err); v != nil {
				return v
			}
			continue
		}
		if perr := EqualFunctionTWPP(ft, ift); perr != nil {
			return fmt.Errorf("f%d: extract/extract-into result divergence: %w", fn, perr)
		}
	}
	// The reference's errors were checked structured above, and
	// parity makes ReadAll's equal to them.
	return CheckReadAllParity(cf)
}

// readAllSequential is the sequential reference for ReadAll: ReadDCG,
// then ExtractFunction for each function in Functions() order,
// stopping at the first error. It does not validate DCG references.
func readAllSequential(cf *wppfile.CompactedFile) (*core.TWPP, error) {
	root, err := cf.ReadDCG()
	if err != nil {
		return nil, err
	}
	fns := cf.Functions()
	maxFn := len(cf.Names())
	for _, fn := range fns {
		if int(fn) >= maxFn {
			maxFn = int(fn) + 1
		}
	}
	t := &core.TWPP{FuncNames: cf.Names(), Root: root, Funcs: make([]core.FunctionTWPP, maxFn)}
	for f := range t.Funcs {
		t.Funcs[f].Fn = cfg.FuncID(f)
	}
	for _, fn := range fns {
		ft, err := cf.ExtractFunction(fn)
		if err != nil {
			return nil, err
		}
		t.Funcs[fn] = *ft
	}
	return t, nil
}

// danglingRef reports whether some DCG node of t references a
// function or trace t does not hold.
func danglingRef(t *core.TWPP) bool {
	var rec func(n *wpp.CallNode) bool
	rec = func(n *wpp.CallNode) bool {
		if n == nil {
			return false
		}
		if int(n.Fn) >= len(t.Funcs) || n.TraceIdx < 0 || n.TraceIdx >= len(t.Funcs[n.Fn].Traces) {
			return true
		}
		for _, ch := range n.Children {
			if rec(ch) {
				return true
			}
		}
		return false
	}
	return rec(t.Root)
}

// CheckReadAllParity checks the parallel ReadAll against its
// sequential reference: ReadDCG, then ExtractFunction for each
// function in Functions() order. Where the reference fails, ReadAll
// must fail with the first error it met, equal in code, offset and
// message. Where it succeeds, ReadAll must return a TWPP
// reflect.DeepEqual to the reference's, or, exactly when some DCG node
// references a trace the blocks lack, fail with CodeCorrupt.
func CheckReadAllParity(cf *wppfile.CompactedFile) error {
	want, wantErr := readAllSequential(cf)
	got, gotErr := cf.ReadAll()
	if wantErr != nil {
		if !sameError(gotErr, wantErr) {
			return fmt.Errorf("ReadAll error %v, sequential reference %v", gotErr, wantErr)
		}
		return nil
	}
	if dangling := danglingRef(want); dangling || gotErr != nil {
		var de *encoding.Error
		if !dangling || !errors.As(gotErr, &de) || de.Code != encoding.CodeCorrupt {
			return fmt.Errorf("ReadAll error %v with a dangling DCG reference %v", gotErr, dangling)
		}
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		return errors.New("ReadAll differs from the sequential reference")
	}
	return nil
}

// sameError reports whether a and b are the same failure: both nil,
// or equal messages and, for structured errors, equal code and offset.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Error() != b.Error() {
		return false
	}
	var ea, eb *encoding.Error
	if errors.As(a, &ea) != errors.As(b, &eb) {
		return false
	}
	return ea == nil || (ea.Code == eb.Code && ea.Offset == eb.Offset)
}

// EqualFunctionTWPP compares two decoded function blocks semantically
// (nil and empty slices are equal — the pooled decoder carves empty
// slices from arenas where the allocating one makes fresh ones) and
// returns a descriptive error on the first divergence.
func EqualFunctionTWPP(a, b *core.FunctionTWPP) error {
	if a.Fn != b.Fn || a.CallCount != b.CallCount {
		return fmt.Errorf("header differs: (%d,%d) vs (%d,%d)", a.Fn, a.CallCount, b.Fn, b.CallCount)
	}
	if len(a.Dicts) != len(b.Dicts) {
		return fmt.Errorf("dict count %d vs %d", len(a.Dicts), len(b.Dicts))
	}
	for i := range a.Dicts {
		if len(a.Dicts[i]) != len(b.Dicts[i]) {
			return fmt.Errorf("dict %d size %d vs %d", i, len(a.Dicts[i]), len(b.Dicts[i]))
		}
		for h, chain := range a.Dicts[i] {
			other, ok := b.Dicts[i][h]
			if !ok || !pathEqual(chain, other) {
				return fmt.Errorf("dict %d chain for block %d differs", i, h)
			}
		}
	}
	if len(a.Traces) != len(b.Traces) || len(a.DictOf) != len(b.DictOf) {
		return fmt.Errorf("trace count %d/%d vs %d/%d", len(a.Traces), len(a.DictOf), len(b.Traces), len(b.DictOf))
	}
	for i := range a.Traces {
		if a.DictOf[i] != b.DictOf[i] {
			return fmt.Errorf("trace %d dict index %d vs %d", i, a.DictOf[i], b.DictOf[i])
		}
		ta, tb := a.Traces[i], b.Traces[i]
		if ta.Len != tb.Len || len(ta.Blocks) != len(tb.Blocks) {
			return fmt.Errorf("trace %d shape (%d,%d) vs (%d,%d)", i, ta.Len, len(ta.Blocks), tb.Len, len(tb.Blocks))
		}
		for j := range ta.Blocks {
			ba, bb := ta.Blocks[j], tb.Blocks[j]
			if ba.Block != bb.Block || len(ba.Times) != len(bb.Times) {
				return fmt.Errorf("trace %d block %d differs", i, j)
			}
			for k := range ba.Times {
				if ba.Times[k] != bb.Times[k] {
					return fmt.Errorf("trace %d block %d entry %d: %v vs %v", i, j, k, ba.Times[k], bb.Times[k])
				}
			}
		}
	}
	return nil
}

// CheckRawDecode drives the raw image through both decode paths — the
// batch reader and the streaming replay+compact pipeline — recovering
// panics. Beyond the no-panic/structured-error contract it asserts the
// documented parity invariant: both paths fail with the identical
// error message, or neither fails.
func CheckRawDecode(dir string, data []byte) (vErr error) {
	defer func() {
		if r := recover(); r != nil {
			vErr = fmt.Errorf("panic decoding raw image: %v", r)
		}
	}()
	path := filepath.Join(dir, "check.wpp")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	_, batchErr := wppfile.ReadRaw(path)
	if batchErr != nil {
		if v := requireStructured("batch read", batchErr); v != nil {
			return v
		}
	}

	var streamErr error
	rr, err := wppfile.NewRawStreamReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		streamErr = err
	} else {
		b := trace.NewBuilder(rr.Names())
		streamErr = rr.Replay(b)
	}
	if streamErr != nil {
		if v := requireStructured("stream read", streamErr); v != nil {
			return v
		}
	}

	switch {
	case batchErr == nil && streamErr == nil:
		return nil
	case batchErr == nil || streamErr == nil:
		return fmt.Errorf("parity break: batch=%v stream=%v", batchErr, streamErr)
	case batchErr.Error() != streamErr.Error():
		return fmt.Errorf("parity break: batch=%q stream=%q", batchErr, streamErr)
	}
	return nil
}

func requireStructured(op string, err error) error {
	if Structured(err) {
		return nil
	}
	return fmt.Errorf("%s: unstructured error %T: %v", op, err, err)
}
