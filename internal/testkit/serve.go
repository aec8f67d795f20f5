package testkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/dataflow"
	"twpp/internal/passes"
	"twpp/internal/server"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// CheckServerParity is the serving oracle: it compacts w to a file,
// mounts it in a twpp-serve Server behind a real HTTP listener, and
// asserts that every extraction/query response is identical — in
// bytes across repeated requests, and in semantics against the
// in-process facade call on the same file. It returns nil when parity
// holds and a descriptive error at the first divergence.
func CheckServerParity(w *trace.RawWPP) error {
	dir, err := os.MkdirTemp("", "testkit-serve-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	path := filepath.Join(dir, "t.twpp")
	c, _ := wpp.Compact(w)
	tw := core.FromCompacted(c)
	if err := wppfile.WriteCompacted(path, tw); err != nil {
		return fmt.Errorf("write compacted: %w", err)
	}

	// The in-process side of the comparison.
	cf, err := wppfile.OpenCompacted(path)
	if err != nil {
		return fmt.Errorf("open in-process: %w", err)
	}
	defer cf.Close()

	srv := server.New(server.Options{CacheEntries: 8})
	if err := srv.Mount("t", path); err != nil {
		return fmt.Errorf("mount: %w", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := checkFuncsParity(ts, cf); err != nil {
		return err
	}
	for _, fn := range cf.Functions() {
		ft, err := cf.ExtractFunction(fn)
		if err != nil {
			return fmt.Errorf("f%d: in-process extract: %w", fn, err)
		}
		if err := checkTraceParity(ts, fn, ft); err != nil {
			return err
		}
		if err := checkQueryParity(ts, fn, ft); err != nil {
			return err
		}
	}
	// The generic analyze endpoint must serve every registered pass
	// byte-identically to in-process dispatch.
	return checkAnalyzeParity(ts, cf, "t")
}

// getStable fetches path twice, requiring 200 and byte-identical
// bodies (responses must be deterministic), and returns the body.
func getStable(ts *httptest.Server, path string) ([]byte, error) {
	var first []byte
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		if i == 0 {
			first = body
		} else if !bytes.Equal(first, body) {
			return nil, fmt.Errorf("GET %s: two identical requests returned different bytes", path)
		}
	}
	return first, nil
}

func getJSON(ts *httptest.Server, path string, v any) error {
	body, err := getStable(ts, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func checkFuncsParity(ts *httptest.Server, cf *wppfile.CompactedFile) error {
	var got passes.FuncsResult
	if err := getJSON(ts, "/v1/t/funcs", &got); err != nil {
		return err
	}
	fns := cf.Functions()
	if len(got.Functions) != len(fns) {
		return fmt.Errorf("/funcs: %d functions over HTTP, %d in-process", len(got.Functions), len(fns))
	}
	for i, fn := range fns {
		f := got.Functions[i]
		if f.ID != int(fn) {
			return fmt.Errorf("/funcs[%d]: id %d over HTTP, %d in-process (hotness order must match)", i, f.ID, fn)
		}
		if f.Calls != cf.CallCount(fn) {
			return fmt.Errorf("/funcs f%d: calls %d over HTTP, %d in-process", fn, f.Calls, cf.CallCount(fn))
		}
		if int(fn) < len(cf.FuncNames) && f.Name != cf.FuncNames[fn] {
			return fmt.Errorf("/funcs f%d: name %q over HTTP, %q in-process", fn, f.Name, cf.FuncNames[fn])
		}
		if f.BlockBytes != cf.BlockLength(fn) {
			return fmt.Errorf("/funcs f%d: block_bytes %d over HTTP, %d in-process", fn, f.BlockBytes, cf.BlockLength(fn))
		}
	}
	return nil
}

func checkTraceParity(ts *httptest.Server, fn cfg.FuncID, ft *core.FunctionTWPP) error {
	var got passes.TraceResult
	if err := getJSON(ts, fmt.Sprintf("/v1/t/trace/%d", fn), &got); err != nil {
		return err
	}
	if got.Func != int(fn) || got.Calls != ft.CallCount || got.Dicts != len(ft.Dicts) {
		return fmt.Errorf("/trace/%d: header (func %d, calls %d, dicts %d) vs in-process (%d, %d, %d)",
			fn, got.Func, got.Calls, got.Dicts, fn, ft.CallCount, len(ft.Dicts))
	}
	if len(got.Traces) != len(ft.Traces) {
		return fmt.Errorf("/trace/%d: %d traces over HTTP, %d in-process", fn, len(got.Traces), len(ft.Traces))
	}
	for i, tr := range ft.Traces {
		ht := got.Traces[i]
		if ht.Index != i || ht.Len != tr.Len || ht.Dict != ft.DictOf[i] {
			return fmt.Errorf("/trace/%d trace %d: (index %d, len %d, dict %d) vs in-process (%d, %d, %d)",
				fn, i, ht.Index, ht.Len, ht.Dict, i, tr.Len, ft.DictOf[i])
		}
		if len(ht.Blocks) != len(tr.Blocks) {
			return fmt.Errorf("/trace/%d trace %d: %d blocks over HTTP, %d in-process", fn, i, len(ht.Blocks), len(tr.Blocks))
		}
		for j, bt := range tr.Blocks {
			hb := ht.Blocks[j]
			if hb.Block != int(bt.Block) || hb.Count != bt.Times.Count() || hb.Times != bt.Times.String() {
				return fmt.Errorf("/trace/%d trace %d block %d: (%d, %d, %q) vs in-process (%d, %d, %q)",
					fn, i, j, hb.Block, hb.Count, hb.Times, bt.Block, bt.Times.Count(), bt.Times.String())
			}
		}
	}
	return nil
}

// checkQueryParity runs one deterministic GEN-KILL query per function
// (query point = the trace's first block, GEN = its second distinct
// block, KILL = its third) over HTTP and in-process, and compares the
// full resolution.
func checkQueryParity(ts *httptest.Server, fn cfg.FuncID, ft *core.FunctionTWPP) error {
	if len(ft.Traces) == 0 {
		return nil
	}
	tr := ft.Traces[0]
	if len(tr.Blocks) == 0 {
		return nil
	}
	block := tr.Blocks[0].Block
	gens := map[cfg.BlockID]bool{}
	kills := map[cfg.BlockID]bool{}
	q := url.Values{}
	q.Set("func", fmt.Sprint(int(fn)))
	q.Set("trace", "0")
	q.Set("block", fmt.Sprint(int(block)))
	if len(tr.Blocks) > 1 {
		gens[tr.Blocks[1].Block] = true
		q.Set("gen", fmt.Sprint(int(tr.Blocks[1].Block)))
	}
	if len(tr.Blocks) > 2 {
		kills[tr.Blocks[2].Block] = true
		q.Set("kill", fmt.Sprint(int(tr.Blocks[2].Block)))
	}

	g, err := dataflow.Build(ft, 0)
	if err != nil {
		return fmt.Errorf("f%d: build dynamic CFG: %w", fn, err)
	}
	want, err := dataflow.SolveAll(g, &dataflow.GenKillProblem{GenBlocks: gens, KillBlocks: kills}, block)
	if err != nil {
		return fmt.Errorf("f%d: in-process query: %w", fn, err)
	}

	var got passes.QueryResult
	if err := getJSON(ts, "/v1/t/query?"+q.Encode(), &got); err != nil {
		return fmt.Errorf("f%d: %w", fn, err)
	}
	if got.True != want.True.String() || got.False != want.False.String() || got.Unresolved != want.Unresolved.String() {
		return fmt.Errorf("f%d query: partitions (T=%s F=%s U=%s) over HTTP vs (T=%s F=%s U=%s) in-process",
			fn, got.True, got.False, got.Unresolved, want.True, want.False, want.Unresolved)
	}
	if got.Queries != want.Queries || got.Steps != want.Steps || got.Holds != want.Holds() {
		return fmt.Errorf("f%d query: (queries %d, steps %d, holds %q) over HTTP vs (%d, %d, %q) in-process",
			fn, got.Queries, got.Steps, got.Holds, want.Queries, want.Steps, want.Holds())
	}
	return nil
}
