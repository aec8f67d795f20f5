package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twpp/internal/core"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// writeFixture builds a small deterministic WPP by hand (internal
// tests cannot use testkit: testkit imports this package for
// CheckServerParity) and writes its compacted form to a temp file.
func writeFixture(t *testing.T, calls int) string {
	t.Helper()
	b := trace.NewBuilder([]string{"main", "hot", "warm"})
	b.EnterCall(0)
	b.Block(1)
	for i := 0; i < calls; i++ {
		b.Block(2)
		b.EnterCall(1)
		b.Block(1)
		b.Block(2)
		b.Block(3)
		b.ExitCall()
		if i%3 == 0 {
			b.EnterCall(2)
			b.Block(1)
			b.Block(4)
			b.ExitCall()
		}
	}
	b.Block(3)
	b.ExitCall()
	c, _ := wpp.Compact(b.Finish())
	path := filepath.Join(t.TempDir(), "t.twpp")
	if err := wppfile.WriteCompacted(path, core.FromCompacted(c)); err != nil {
		t.Fatal(err)
	}
	return path
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s := New(opts)
	if err := s.Mount("t", writeFixture(t, 12)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// get serves one request straight through the handler (no listener)
// and returns status + body.
func get(s *Server, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not ErrorResponse JSON: %v\n%s", err, body)
	}
	return e.Code
}

// A saturated semaphore must yield 429 code=throttled on the query
// plane — while /healthz and /metrics (the observability plane) keep
// answering 200.
func TestThrottled429WhenSaturated(t *testing.T) {
	s := newTestServer(t, Options{MaxInFlight: 2})
	s.sem <- struct{}{}
	s.sem <- struct{}{} // both slots held: next query request must bounce

	status, body := get(s, "/funcs")
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated /funcs: status = %d, want 429\n%s", status, body)
	}
	if code := errCode(t, body); code != "throttled" {
		t.Errorf("saturated /funcs: code = %q, want throttled", code)
	}
	if got := s.reg.Counter("twpp_throttled_total").Value(); got != 1 {
		t.Errorf("twpp_throttled_total = %d, want 1", got)
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		if status, body := get(s, path); status != http.StatusOK {
			t.Errorf("saturated %s: status = %d, want 200\n%s", path, status, body)
		}
	}

	<-s.sem
	if status, _ := get(s, "/funcs"); status != http.StatusOK {
		t.Errorf("after slot release: status = %d, want 200", status)
	}
}

// An expired per-request deadline must surface as 504 code=canceled,
// not a hang or a 500.
func TestRequestTimeout504(t *testing.T) {
	s := newTestServer(t, Options{RequestTimeout: time.Nanosecond})
	time.Sleep(time.Millisecond) // ensure the deadline is expired at first ctx check
	status, body := get(s, "/trace/1")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504\n%s", status, body)
	}
	if code := errCode(t, body); code != "canceled" {
		t.Errorf("code = %q, want canceled", code)
	}
	if got := s.reg.Counter("twpp_canceled_total").Value(); got == 0 {
		t.Error("twpp_canceled_total = 0, want > 0")
	}
}

func TestNotFound404(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, path := range []string{
		"/trace/99",                     // absent function
		"/stats/99",                     // absent function
		"/funcs?file=no",                // absent mount
		"/query?func=0&block=999&gen=2", // block never executes
	} {
		status, body := get(s, path)
		if status != http.StatusNotFound {
			t.Errorf("%s: status = %d, want 404\n%s", path, status, body)
			continue
		}
		if code := errCode(t, body); code != "not_found" {
			t.Errorf("%s: code = %q, want not_found", path, code)
		}
	}
}

func TestUsage400(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, path := range []string{
		"/trace/xyz",                    // non-numeric function id
		"/trace/1?trace=9999",           // trace index out of range
		"/query?block=2",                // missing func
		"/query?func=1",                 // missing block
		"/query?func=1&block=2&gen=a,b", // bad gen list
		"/cfg/1?trace=-3",               // negative trace index
	} {
		status, body := get(s, path)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400\n%s", path, status, body)
			continue
		}
		if code := errCode(t, body); code != "usage" {
			t.Errorf("%s: code = %q, want usage", path, code)
		}
	}
}

// The happy path feeds every request-plane metric, and /metrics
// renders them in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, path := range []string{"/funcs", "/trace/1", "/stats/1", "/cfg/1", "/query?func=1&block=2&gen=1"} {
		if status, body := get(s, path); status != http.StatusOK {
			t.Fatalf("%s: status = %d\n%s", path, status, body)
		}
	}
	status, body := get(s, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status = %d", status)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE twpp_requests_total counter",
		"# TYPE twpp_request_seconds histogram",
		"# TYPE twpp_in_flight gauge",
		"twpp_responses_2xx_total 5",
		"twpp_mounted_files 1",
		"twpp_cache_misses_total",
		"twpp_decode_bytes_total",
		"twpp_request_seconds_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
	// Repeated extraction of the same function is a cache hit.
	if hits := s.reg.Counter("twpp_cache_hits_total").Value(); hits == 0 {
		t.Error("twpp_cache_hits_total = 0, want > 0 (trace/stats/cfg/query share one decode)")
	}
	if s.reg.Counter("twpp_responses_5xx_total").Value() != 0 {
		t.Error("twpp_responses_5xx_total != 0 on happy path")
	}
}

// A handler panic must convert to a 500 with the panic counter bumped
// — the serving loop itself survives.
func TestPanicRecovery(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.limited(func(http.ResponseWriter, *http.Request) error {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/funcs", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if got := s.reg.Counter("twpp_panics_total").Value(); got != 1 {
		t.Errorf("twpp_panics_total = %d, want 1", got)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("boom")) {
		t.Errorf("panic body lost the message:\n%s", rec.Body.Bytes())
	}
}

// The request log carries the structured code class for every request.
func TestRequestLog(t *testing.T) {
	var buf bytes.Buffer
	s := New(Options{LogWriter: &buf})
	defer s.Close()
	if err := s.Mount("t", writeFixture(t, 6)); err != nil {
		t.Fatal(err)
	}
	get(s, "/funcs")
	get(s, "/trace/99")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "status=200 code=ok") || !strings.Contains(lines[0], "path=/funcs") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.Contains(lines[1], "status=404 code=not_found") || !strings.Contains(lines[1], "err=") {
		t.Errorf("line 1 = %q", lines[1])
	}
}

// Mount rejects duplicates and empty names; resolveMount falls back to
// the first mount.
func TestMountDiscipline(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	path := writeFixture(t, 6)
	if err := s.Mount("", path); err == nil {
		t.Error("empty mount name accepted")
	}
	if err := s.Mount("a", path); err != nil {
		t.Fatal(err)
	}
	if err := s.Mount("a", path); err == nil {
		t.Error("duplicate mount name accepted")
	}
	if err := s.Mount("b", writeFixture(t, 3)); err != nil {
		t.Fatal(err)
	}
	if got := s.Mounts(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Mounts() = %v", got)
	}
	var def, a FuncsResponse
	_, body := get(s, "/funcs")
	if err := json.Unmarshal(body, &def); err != nil {
		t.Fatal(err)
	}
	_, body = get(s, "/funcs?file=a")
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatal(err)
	}
	if def.File != "a" || a.File != "a" {
		t.Errorf("default mount = %q / explicit = %q, want both \"a\"", def.File, a.File)
	}
}
