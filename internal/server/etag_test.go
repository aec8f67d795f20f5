package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"twpp/internal/core"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// writeFixtureFormat is writeFixture with an explicit container format
// (v1 fixtures have no checksums and therefore no ETag).
func writeFixtureFormat(t *testing.T, calls, format int) string {
	t.Helper()
	b := trace.NewBuilder([]string{"main", "hot"})
	b.EnterCall(0)
	b.Block(1)
	for i := 0; i < calls; i++ {
		b.Block(2)
		b.EnterCall(1)
		b.Block(1)
		b.Block(3)
		b.ExitCall()
	}
	b.ExitCall()
	c, _ := wpp.Compact(b.Finish())
	path := filepath.Join(t.TempDir(), "t.twpp")
	if err := wppfile.WriteCompactedFormat(path, core.FromCompacted(c), 1, format); err != nil {
		t.Fatal(err)
	}
	return path
}

// getH serves one request with extra headers and returns the recorder.
func getH(s *Server, path string, hdr map[string]string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// decodeWork snapshots the counters that move if and only if the
// serving path touched the block decoder.
func decodeWork(s *Server) (misses, bytes, hits uint64) {
	return s.reg.Counter("twpp_cache_misses_total").Value(),
		s.reg.Counter("twpp_decode_bytes_total").Value(),
		s.reg.Counter("twpp_cache_hits_total").Value()
}

// A v2 mount serves strong ETags, and an If-None-Match revalidation
// answers 304 with zero decode work — the instrument hooks that feed
// the decode counters must not fire at all.
func TestETagNotModified(t *testing.T) {
	s := newTestServer(t, Options{})

	first := getH(s, "/v1/t/trace/1", nil)
	if first.Code != http.StatusOK {
		t.Fatalf("first GET: status = %d\n%s", first.Code, first.Body.Bytes())
	}
	etag := first.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("first GET: ETag = %q, want a strong quoted tag", etag)
	}

	m0, b0, h0 := decodeWork(s)
	rev := getH(s, "/v1/t/trace/1", map[string]string{"If-None-Match": etag})
	if rev.Code != http.StatusNotModified {
		t.Fatalf("revalidation: status = %d, want 304\n%s", rev.Code, rev.Body.Bytes())
	}
	if rev.Body.Len() != 0 {
		t.Errorf("304 carried a body: %q", rev.Body.Bytes())
	}
	if rev.Header().Get("ETag") != etag {
		t.Errorf("304 ETag = %q, want %q", rev.Header().Get("ETag"), etag)
	}
	m1, b1, h1 := decodeWork(s)
	if m1 != m0 || b1 != b0 || h1 != h0 {
		t.Errorf("304 did decode work: misses %d->%d bytes %d->%d hits %d->%d",
			m0, m1, b0, b1, h0, h1)
	}
	if got := s.reg.Counter("twpp_responses_304_total").Value(); got != 1 {
		t.Errorf("twpp_responses_304_total = %d, want 1", got)
	}
	if got := s.reg.Counter("twpp_mount_t_respcache_304_total").Value(); got != 1 {
		t.Errorf("twpp_mount_t_respcache_304_total = %d, want 1", got)
	}

	// Weak-compare and list forms of If-None-Match must also match.
	for _, h := range []string{"W/" + etag, `"nope", ` + etag, "*"} {
		if rec := getH(s, "/v1/t/trace/1", map[string]string{"If-None-Match": h}); rec.Code != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status = %d, want 304", h, rec.Code)
		}
	}
	// A stale tag must get the full response again.
	if rec := getH(s, "/v1/t/trace/1", map[string]string{"If-None-Match": `"deadbeef"`}); rec.Code != http.StatusOK {
		t.Errorf("stale tag: status = %d, want 200", rec.Code)
	}
}

// The second identical GET must come from the response cache: same
// bytes, no handler run, no decode work.
func TestResponseCacheHit(t *testing.T) {
	s := newTestServer(t, Options{CacheEntries: -1}) // decode cache off: any decode moves the miss counter
	const path = "/v1/t/query?func=1&block=2&gen=1"
	first := getH(s, path, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("first GET: status = %d", first.Code)
	}
	m0, b0, _ := decodeWork(s)
	second := getH(s, path, nil)
	if second.Code != http.StatusOK {
		t.Fatalf("second GET: status = %d", second.Code)
	}
	m1, b1, _ := decodeWork(s)
	if m1 != m0 || b1 != b0 {
		t.Errorf("response-cache hit did decode work: misses %d->%d bytes %d->%d", m0, m1, b0, b1)
	}
	if got, want := second.Body.String(), first.Body.String(); got != want {
		t.Errorf("replayed body differs:\n%s\nvs\n%s", got, want)
	}
	if ct := second.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("replayed Content-Type = %q", ct)
	}
	if second.Header().Get("ETag") != first.Header().Get("ETag") {
		t.Error("replayed ETag differs")
	}
	if got := s.reg.Counter("twpp_respcache_hits_total").Value(); got != 1 {
		t.Errorf("twpp_respcache_hits_total = %d, want 1", got)
	}
	if got := s.reg.Counter("twpp_mount_t_respcache_hits_total").Value(); got != 1 {
		t.Errorf("twpp_mount_t_respcache_hits_total = %d, want 1", got)
	}
	if got := s.reg.Counter("twpp_respcache_misses_total").Value(); got != 1 {
		t.Errorf("twpp_respcache_misses_total = %d, want 1 (only the first GET)", got)
	}
	// Different query parameters are different cache entries.
	if rec := getH(s, path+",3", nil); rec.Code != http.StatusOK {
		t.Fatalf("param variant: status = %d", rec.Code)
	}
	if got := s.reg.Counter("twpp_respcache_hits_total").Value(); got != 1 {
		t.Errorf("param variant hit the cache; hits = %d, want 1", got)
	}
	if got := s.reg.Counter("twpp_respcache_misses_total").Value(); got != 2 {
		t.Errorf("twpp_respcache_misses_total = %d, want 2 after param variant", got)
	}
}

// Mounting different content yields a different ETag (the tag is the
// container's checksum-derived content hash); identical content yields
// an identical tag.
func TestETagTracksContent(t *testing.T) {
	tagOf := func(calls int) string {
		s := New(Options{})
		defer s.Close()
		if err := s.Mount("t", writeFixtureFormat(t, calls, wppfile.FormatV2)); err != nil {
			t.Fatal(err)
		}
		m, err := s.Catalog().Get("t")
		if err != nil {
			t.Fatal(err)
		}
		rec := getH(s, "/v1/t/funcs", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		if got := rec.Header().Get("ETag"); got != m.ETag() {
			t.Fatalf("response ETag %q != mount ETag %q", got, m.ETag())
		}
		return m.ETag()
	}
	a, b, a2 := tagOf(12), tagOf(5), tagOf(12)
	if a == b {
		t.Errorf("different content, same ETag %q", a)
	}
	if a != a2 {
		t.Errorf("same content, different ETags %q vs %q", a, a2)
	}
}

// v1 containers have no checksums, so no ETag and no response caching
// — every request is served fresh, and revalidation never 304s.
func TestV1NoETag(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	if err := s.Mount("t", writeFixtureFormat(t, 8, wppfile.FormatV1)); err != nil {
		t.Fatal(err)
	}
	rec := getH(s, "/v1/t/funcs", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if etag := rec.Header().Get("ETag"); etag != "" {
		t.Errorf("v1 mount served ETag %q", etag)
	}
	if rec := getH(s, "/v1/t/funcs", map[string]string{"If-None-Match": "*"}); rec.Code != http.StatusNotModified {
		// "*" matches any current representation, but with no ETag the
		// wrapper passes straight through.
		if rec.Code != http.StatusOK {
			t.Errorf("v1 revalidation: status = %d, want 200", rec.Code)
		}
	} else {
		t.Error("v1 mount answered 304 without a content hash")
	}
	if got := s.reg.Counter("twpp_respcache_misses_total").Value(); got != 0 {
		t.Errorf("v1 requests touched the response cache: misses = %d", got)
	}
}

// Disabling the response cache keeps ETag revalidation working; only
// body replay is off.
func TestRespCacheDisabled(t *testing.T) {
	s := New(Options{ResponseCacheEntries: -1})
	defer s.Close()
	if err := s.Mount("t", writeFixtureFormat(t, 8, wppfile.FormatV2)); err != nil {
		t.Fatal(err)
	}
	rec := getH(s, "/v1/t/funcs", nil)
	etag := rec.Header().Get("ETag")
	if rec.Code != http.StatusOK || etag == "" {
		t.Fatalf("status = %d, ETag = %q", rec.Code, etag)
	}
	if rec := getH(s, "/v1/t/funcs", map[string]string{"If-None-Match": etag}); rec.Code != http.StatusNotModified {
		t.Errorf("revalidation with cache disabled: status = %d, want 304", rec.Code)
	}
	getH(s, "/v1/t/funcs", nil)
	if got := s.reg.Counter("twpp_respcache_hits_total").Value(); got != 0 {
		t.Errorf("disabled response cache reported hits: %d", got)
	}
	if got := s.reg.Counter("twpp_respcache_misses_total").Value(); got != 0 {
		t.Errorf("disabled response cache reported misses: %d", got)
	}
}

// The response cache stays bounded: filling it past capacity evicts
// rather than grows.
func TestRespCacheBounded(t *testing.T) {
	s := newTestServer(t, Options{ResponseCacheEntries: 16})
	for i := 0; i < 200; i++ {
		if rec := getH(s, "/v1/t/query?func=1&block=2&gen="+strings.Repeat("1,", i%37)+"1", nil); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, rec.Code)
		}
	}
	if n := s.resp.len(); n > 16+respShards {
		t.Errorf("response cache grew to %d entries (cap 16)", n)
	}
}

// Every metric name registered anywhere in the server — aggregate,
// per-mount, per-shard — must appear in the /metrics exposition.
func TestMetricsExposeEveryRegisteredName(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, path := range []string{"/v1/t/funcs", "/v1/t/trace/1", "/v1/t/stats/1", "/v1/t/cfg/1", "/v1/t/query?func=1&block=2&gen=1", "/mounts"} {
		if rec := getH(s, path, nil); rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d", path, rec.Code)
		}
	}
	rec := getH(s, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status = %d", rec.Code)
	}
	text := rec.Body.String()
	names := s.reg.Names()
	if len(names) == 0 {
		t.Fatal("registry lists no metrics")
	}
	for _, name := range names {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing registered metric %q", name)
		}
	}
	// The new serving metrics must be among the registered set.
	for _, want := range []string{
		"twpp_respcache_hits_total",
		"twpp_respcache_misses_total",
		"twpp_respcache_entries",
		"twpp_responses_304_total",
		"twpp_mount_t_respcache_hits_total",
		"twpp_mount_t_respcache_304_total",
		"twpp_mount_t_cache_shard0_hits",
		"twpp_mount_t_cache_shard0_misses",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
