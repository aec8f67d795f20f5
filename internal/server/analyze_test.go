package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"twpp/internal/core"
	"twpp/internal/passes"
	"twpp/internal/server"
	"twpp/internal/testkit"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// Every registered pass over every generator shape and container kind
// (v1 file, v2 file, segmented directory): the analyze endpoint must
// serve bytes identical to in-process passes.Run.
func TestAnalyzeParityAllShapes(t *testing.T) {
	for _, shape := range testkit.Shapes() {
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			w := testkit.Generate(testkit.Config{Seed: 8200 + int64(shape), Shape: shape})
			if err := testkit.CheckAnalyzeParity(w); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// analyzeServer mounts one generated profile as "t".
func analyzeServer(t *testing.T) *httptest.Server {
	t.Helper()
	w := testkit.Generate(testkit.Config{Seed: 8300, Shape: testkit.Regular})
	c, _ := wpp.Compact(w)
	path := filepath.Join(t.TempDir(), "t.twpp")
	if err := wppfile.WriteCompacted(path, core.FromCompacted(c)); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{LogWriter: io.Discard})
	if err := srv.Mount("t", path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getStatus(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// The discovery endpoint lists every registered pass with its
// parameter docs.
func TestAnalysesDiscovery(t *testing.T) {
	ts := analyzeServer(t)
	status, body := getStatus(t, ts, "/v1/t/analyses")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp server.AnalysesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.File != "t" {
		t.Errorf("file %q, want t", resp.File)
	}
	want := passes.Names()
	if len(resp.Analyses) != len(want) {
		t.Fatalf("%d analyses, want %d", len(resp.Analyses), len(want))
	}
	for i, name := range want {
		if resp.Analyses[i].Name != name {
			t.Errorf("analyses[%d] = %q, want %q", i, resp.Analyses[i].Name, name)
		}
		if resp.Analyses[i].Params == nil {
			t.Errorf("%s params is null", name)
		}
	}
}

// Status mapping on the analyze endpoint: unknown pass 404, missing
// or malformed parameters 400, absent function 404 — never 5xx.
func TestAnalyzeErrorStatuses(t *testing.T) {
	ts := analyzeServer(t)
	cases := []struct {
		path string
		want int
	}{
		{"/v1/t/analyze/nope", http.StatusNotFound},
		{"/v1/t/analyze/kpaths", http.StatusBadRequest},            // missing func
		{"/v1/t/analyze/kpaths?func=0&k=0", http.StatusBadRequest}, // k out of range
		{"/v1/t/analyze/kpaths?func=0&k=99", http.StatusBadRequest},
		{"/v1/t/analyze/kpaths?func=0&k=x", http.StatusBadRequest},
		{"/v1/t/analyze/kpaths?func=9999&k=1", http.StatusNotFound},
		{"/v1/no/analyze/kpaths?func=0", http.StatusNotFound}, // absent mount
		{"/analyze/stats?func=0", http.StatusNotFound},        // no flat routes
	}
	for _, tc := range cases {
		status, body := getStatus(t, ts, tc.path)
		if status != tc.want {
			t.Errorf("GET %s: status %d, want %d (%s)", tc.path, status, tc.want, body)
		}
		if status >= 500 {
			t.Errorf("GET %s: server fault %d for hostile input", tc.path, status)
		}
	}
}

// The analyze endpoint participates in the content-hash ETag regime
// exactly like the dedicated routes: second request with If-None-Match
// revalidates to 304.
func TestAnalyzeETagRevalidation(t *testing.T) {
	ts := analyzeServer(t)
	resp, err := http.Get(ts.URL + "/v1/t/analyze/kpaths?func=0&k=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on analyze response")
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v1/t/analyze/kpaths?func=0&k=1", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", resp2.StatusCode)
	}
}

// A hostile container behind the analyze endpoint answers 422 with a
// structured code, never 5xx.
func TestAnalyzeCorruptMountIs422(t *testing.T) {
	w := testkit.Generate(testkit.Config{Seed: 8301, Shape: testkit.Regular})
	c, _ := wpp.Compact(w)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.twpp")
	if err := wppfile.WriteCompacted(path, core.FromCompacted(c)); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the function-block region so open succeeds but
	// extraction fails the checksum.
	bad := filepath.Join(dir, "bad.twpp")
	if err := os.WriteFile(bad, testkit.BitFlip(img, len(img)-9, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{LogWriter: io.Discard})
	if err := srv.Mount("bad", bad); err != nil {
		t.Skipf("corrupt image rejected at mount: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, fn := range []string{"0", "1", "2"} {
		status, body := getStatus(t, ts, "/v1/bad/analyze/kpaths?func="+fn)
		if status >= 500 {
			t.Fatalf("func %s: server fault %d: %s", fn, status, body)
		}
	}
}
