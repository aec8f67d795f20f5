package wppfile

import (
	"math/rand"
	"reflect"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// decodeDCGRef is the node-per-call DCG decoder that decodeDCG's slab
// decoder replaced: one allocation per node and two growing slices per
// call. It stays here as the reference decodeDCG must match, tree for
// tree and error for error.
func decodeDCGRef(data []byte) (*wpp.CallNode, error) {
	c := encoding.NewCursor(data)
	var rec func(depth int) (*wpp.CallNode, error)
	rec = func(depth int) (*wpp.CallNode, error) {
		if depth > 1<<20 {
			return nil, encoding.Errf(encoding.CodeLimit, int64(c.Pos()), "wppfile: DCG nesting too deep")
		}
		fn, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		ti, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		nc, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		if nc > uint64(c.Len()) {
			return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()), "wppfile: DCG child count %d too large", nc)
		}
		n := &wpp.CallNode{Fn: cfg.FuncID(fn), TraceIdx: int(ti)}
		prev := 0
		for i := uint64(0); i < nc; i++ {
			delta, err := c.Uvarint()
			if err != nil {
				return nil, err
			}
			pos := prev + int(delta)
			prev = pos
			child, err := rec(depth + 1)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
			n.ChildPos = append(n.ChildPos, pos)
		}
		return n, nil
	}
	root, err := rec(0)
	if err != nil {
		return nil, err
	}
	if !c.Done() {
		return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()), "wppfile: %d trailing bytes after DCG", c.Len())
	}
	return root, nil
}

// nestedWPP is a trace whose calls nest depth deep, each level calling
// the next from inside a two-iteration loop.
func nestedWPP(depth int) *trace.RawWPP {
	names := []string{"main", "f"}
	b := trace.NewBuilder(names)
	var rec func(d int)
	rec = func(d int) {
		b.Block(1)
		if d < depth {
			for i := 0; i < 2; i++ {
				b.Block(2)
				b.EnterCall(1)
				rec(d + 1)
				b.ExitCall()
			}
		}
		b.Block(3)
	}
	b.EnterCall(0)
	rec(0)
	b.ExitCall()
	return b.Finish()
}

// FuzzDecodeDCG requires the slab decoder and the reference decoder to
// build reflect.DeepEqual trees, and to fail with reflect.DeepEqual
// errors (code, offset, message and cause), on arbitrary bytes.
func FuzzDecodeDCG(f *testing.F) {
	for _, w := range []*trace.RawWPP{
		sampleWPP(rand.New(rand.NewSource(1)), 1),
		sampleWPP(rand.New(rand.NewSource(2)), 40),
		nestedWPP(6),
	} {
		c, _ := wpp.Compact(w)
		enc := encodeDCG(core.FromCompacted(c).Root)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(append(append([]byte(nil), enc...), 0))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 2, 0x7f, 0})       // child count beyond the input
	f.Add([]byte{0, 0, 1, 0x80})       // truncated position delta
	f.Add([]byte{0xff, 0xff, 0xff, 0}) // unterminated function id
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := decodeDCG(data)
		want, wantErr := decodeDCGRef(data)
		if !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("decodeDCG error %v, reference %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("decodeDCG tree differs from the reference")
		}
	})
}
