package main

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twpp"
	"twpp/internal/cli"
	"twpp/internal/testkit"
)

var update = flag.Bool("update", false, "rewrite golden files")

// writeTWPP compiles and traces the same deterministic program the
// twpp-query golden tests use, so the two CLIs' goldens describe the
// same file.
func writeTWPP(t *testing.T, dir string) string {
	t.Helper()
	prog, err := twpp.Compile(`
func main() {
    var s = 0;
    for (var i = 0; i < 30; i = i + 1) {
        s = s + w(i % 2);
    }
    print(s);
}
func w(m) {
    var j = 0;
    while (j < 5) {
        j = j + 1;
    }
    return m + j;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := prog.Trace(nil)
	if err != nil {
		t.Fatal(err)
	}
	tw, _ := twpp.Compact(r.WPP)
	p := filepath.Join(dir, "t.twpp")
	if err := twpp.WriteFile(p, tw); err != nil {
		t.Fatal(err)
	}
	return p
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	p := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", p, got, want)
	}
}

func serveGet(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

// The JSON bodies of the query endpoints are golden: a serving-layer
// change that reorders fields or alters values shows up as a diff.
// testConfig wraps a path list in the config the tests share.
func testConfig(in string, maxInflight int) serveConfig {
	return serveConfig{
		in:          in,
		cache:       16,
		maxInflight: maxInflight,
		timeout:     time.Minute,
		quiet:       true,
	}
}

func TestGoldenEndpoints(t *testing.T) {
	p := writeTWPP(t, t.TempDir())
	s, err := newServer(testConfig(p, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	for _, tc := range []struct {
		golden, path string
	}{
		{"funcs.golden", "/v1/t/funcs"},
		{"trace.golden", "/v1/t/trace/1"},
		{"stats.golden", "/v1/t/stats/1"},
		{"cfg.golden", "/v1/t/cfg/1"},
		{"query.golden", "/v1/t/query?func=1&block=2&gen=1&kill=9"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			status, body := serveGet(t, h, tc.path)
			if status != http.StatusOK {
				t.Fatalf("GET %s: status %d:\n%s", tc.path, status, body)
			}
			checkGolden(t, tc.golden, body)
		})
	}
}

// /metrics values vary run to run, so its shape is asserted by name:
// every serving metric family must be present with a TYPE line.
func TestMetricsShape(t *testing.T) {
	p := writeTWPP(t, t.TempDir())
	s, err := newServer(testConfig(p, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for _, warm := range []string{"/v1/t/funcs", "/v1/t/trace/1", "/v1/t/trace/99", "/v1/t/query?func=1&block=2&gen=1"} {
		serveGet(t, h, warm)
	}
	status, body := serveGet(t, h, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d", status)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE twpp_requests_total counter",
		"# TYPE twpp_responses_2xx_total counter",
		"# TYPE twpp_responses_4xx_total counter",
		"# TYPE twpp_responses_5xx_total counter",
		"# TYPE twpp_throttled_total counter",
		"# TYPE twpp_reject_corrupt_total counter",
		"# TYPE twpp_reject_truncated_total counter",
		"# TYPE twpp_reject_limit_total counter",
		"# TYPE twpp_canceled_total counter",
		"# TYPE twpp_cache_hits_total counter",
		"# TYPE twpp_cache_misses_total counter",
		"# TYPE twpp_decode_bytes_total counter",
		"# TYPE twpp_panics_total counter",
		"# TYPE twpp_in_flight gauge",
		"# TYPE twpp_mounted_files gauge",
		"# TYPE twpp_request_seconds histogram",
		"twpp_request_seconds_bucket{le=\"+Inf\"}",
		"twpp_request_seconds_sum",
		"twpp_request_seconds_count",
		"twpp_mounted_files 1",
		"# TYPE twpp_mount_t_requests_total counter",
		"# TYPE twpp_mount_t_errors_total counter",
		"# TYPE twpp_mount_t_cache_hits_total counter",
		"# TYPE twpp_mount_t_cache_misses_total counter",
		"# TYPE twpp_mount_t_decode_bytes_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if status, body := serveGet(t, h, "/healthz"); status != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("/healthz: status %d body %q", status, body)
	}
}

// Exit codes are part of the CLI contract: flag problems exit 2, a
// missing file 1, corrupt input 3, truncated input 4 — through the
// same classifier main uses.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	valid := writeTWPP(t, dir)
	img, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	corruptPath := filepath.Join(dir, "corrupt.twpp")
	if err := os.WriteFile(corruptPath, testkit.BitFlip(img, 0, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	truncPath := filepath.Join(dir, "trunc.twpp")
	if err := os.WriteFile(truncPath, testkit.Truncate(img, 9), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name        string
		in          string
		mounts      string
		maxInflight int
		want        int
	}{
		{"success", valid, "", 16, cli.ExitOK},
		{"missing -in is usage", "", "", 16, cli.ExitUsage},
		{"empty -in list is usage", " , ", "", 16, cli.ExitUsage},
		{"zero max-inflight is usage", valid, "", 0, cli.ExitUsage},
		{"bad -mount pair is usage", "", "nameonly", 16, cli.ExitUsage},
		{"explicit -mount works", "", "m=" + valid, 16, cli.ExitOK},
		{"absent file is plain failure", filepath.Join(dir, "nope.twpp"), "", 16, cli.ExitFailure},
		{"bad magic is corrupt", corruptPath, "", 16, cli.ExitCorrupt},
		{"truncated header", truncPath, "", 16, cli.ExitTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testConfig(tc.in, tc.maxInflight)
			c.mounts = tc.mounts
			c.timeout = time.Second
			c.cache = 8
			s, err := newServer(c)
			if s != nil {
				s.Close()
			}
			if got := cli.ExitCode(err); got != tc.want {
				t.Fatalf("exit code %d, want %d (err: %v)", got, tc.want, err)
			}
		})
	}
}

// Multiple -in files mount under their base names.
func TestMultiMount(t *testing.T) {
	dir := t.TempDir()
	a := writeTWPP(t, dir)
	bdir := filepath.Join(dir, "b")
	if err := os.MkdirAll(bdir, 0o755); err != nil {
		t.Fatal(err)
	}
	b := writeTWPP(t, bdir)
	second := filepath.Join(bdir, "second.twpp")
	if err := os.Rename(b, second); err != nil {
		t.Fatal(err)
	}
	c := testConfig(a+","+second, 16)
	c.timeout = time.Second
	c.cache = 8
	s, err := newServer(c)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Mounts(); len(got) != 2 || got[0] != "t" || got[1] != "second" {
		t.Fatalf("Mounts() = %v, want [t second]", got)
	}
	h := s.Handler()
	// The /v1/{mount}/... namespace routes to the named mount; an
	// unknown mount is a 404.
	for path, want := range map[string]int{
		"/v1/second/funcs":                      http.StatusOK,
		"/v1/t/trace/1":                         http.StatusOK,
		"/v1/second/stats/1":                    http.StatusOK,
		"/v1/t/cfg/1":                           http.StatusOK,
		"/v1/second/query?func=1&block=2&gen=1": http.StatusOK,
		"/v1/nosuch/funcs":                      http.StatusNotFound,
	} {
		if status, body := serveGet(t, h, path); status != want {
			t.Errorf("GET %s: status %d, want %d:\n%s", path, status, want, body)
		}
	}
	// /mounts lists the catalog with formats and section sizes.
	status, body := serveGet(t, h, "/mounts")
	if status != http.StatusOK {
		t.Fatalf("/mounts: status %d", status)
	}
	for _, want := range []string{`"t"`, `"second"`, `"format": 2`, `"block_bytes"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/mounts body missing %s:\n%s", want, body)
		}
	}
}

// The -mmap and -verify paths must serve identical bytes to the file
// backend, and a flipped byte in a v2 payload must fail startup with
// the corrupt exit class when -verify is on.
func TestMmapAndVerify(t *testing.T) {
	dir := t.TempDir()
	p := writeTWPP(t, dir)

	base := testConfig(p, 8)
	ref, err := newServer(base)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	_, want := serveGet(t, ref.Handler(), "/v1/t/trace/1")

	mc := testConfig(p, 8)
	mc.mmap = true
	mc.verify = true
	s, err := newServer(mc)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if status, got := serveGet(t, s.Handler(), "/v1/t/trace/1"); status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("mmap /trace/1: status %d, body parity %v", status, bytes.Equal(got, want))
	}

	img, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, "flip.twpp")
	// Flip one payload bit past the header; -verify must refuse it.
	if err := os.WriteFile(flipped, testkit.BitFlip(img, len(img)/2, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	fc := testConfig(flipped, 8)
	fc.verify = true
	if s, err := newServer(fc); err == nil {
		s.Close()
		t.Fatal("verify accepted a flipped payload byte")
	} else if got := cli.ExitCode(err); got != cli.ExitCorrupt {
		t.Fatalf("flipped payload exit code %d, want %d (err: %v)", got, cli.ExitCorrupt, err)
	}
}
