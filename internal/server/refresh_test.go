// Regression tests for the refresh path: before it, mounts were fixed
// at startup — a session sealed into a mounted container by another
// process stayed invisible until restart.

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"twpp/internal/diff"
	"twpp/internal/passes"
	"twpp/internal/segment"
	"twpp/internal/wppfile"
)

func postH(s *Server, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, nil)
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// A segmented mount must serve newly appended sessions after — and
// only after — a refresh: the stale view keeps serving consistently
// until POST /v1/{mount}/refresh picks up the new generation, which
// also moves the ETag so client caches invalidate.
func TestRefreshPicksUpAppendedSession(t *testing.T) {
	t1 := buildFixtureTWPP(30)
	dir := t.TempDir() + "/seg"
	if _, err := segment.Write(dir, t1, segment.WriteOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}

	s := New(Options{})
	if err := s.Mount("t", dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	before := getH(s, "/v1/t/stats/1", nil)
	if before.Code != http.StatusOK {
		t.Fatalf("pre-append GET: %d\n%s", before.Code, before.Body.Bytes())
	}
	etag0 := before.Header().Get("ETag")

	// Another writer (the ingest server) seals a second session.
	t2 := buildFixtureTWPP(50)
	if _, err := segment.Append(dir, t2, segment.WriteOptions{Workers: 1}); err != nil {
		t.Fatalf("Append: %v", err)
	}

	// Unrefreshed, the mount serves the old generation unchanged.
	stale := getH(s, "/v1/t/stats/1", nil)
	if stale.Code != http.StatusOK || stale.Body.String() != before.Body.String() {
		t.Fatalf("pre-refresh view changed: %d\n%s", stale.Code, stale.Body.Bytes())
	}

	rec := postH(s, "/v1/t/refresh")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST refresh: %d\n%s", rec.Code, rec.Body.Bytes())
	}
	var rr RefreshResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatalf("refresh body: %v", err)
	}
	if !rr.Refreshed || rr.Generation != 2 {
		t.Fatalf("refresh = %+v, want refreshed at generation 2", rr)
	}

	after := getH(s, "/v1/t/stats/1", nil)
	if after.Code != http.StatusOK {
		t.Fatalf("post-refresh GET: %d\n%s", after.Code, after.Body.Bytes())
	}
	if after.Body.String() == before.Body.String() {
		t.Fatal("refresh served the old generation")
	}
	var stats passes.StatsResult
	if err := json.Unmarshal(after.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	// Session 1 called "hot" 30 times, session 2 another 50.
	if stats.Calls != 80 {
		t.Errorf("post-refresh calls = %d, want 80", stats.Calls)
	}
	if etag1 := after.Header().Get("ETag"); etag1 == etag0 {
		t.Errorf("ETag unchanged across refresh: %q", etag0)
	}

	// A second refresh with nothing new is a clean no-op.
	rec = postH(s, "/v1/t/refresh")
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Refreshed {
		t.Error("refresh with no new generation reported refreshed")
	}
}

// POST /refresh sweeps the whole catalog; single-file mounts are
// no-ops, segmented ones pick up their generations — the SIGHUP path
// uses exactly this.
func TestRefreshAll(t *testing.T) {
	t1 := buildFixtureTWPP(20)
	dir := t.TempDir() + "/seg"
	if _, err := segment.Write(dir, t1, segment.WriteOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	single := writeFixture(t, 20)

	s := New(Options{})
	if err := s.Mount("seg", dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Mount("one", single); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	if _, err := segment.Append(dir, buildFixtureTWPP(10), segment.WriteOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	rec := postH(s, "/refresh")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /refresh: %d\n%s", rec.Code, rec.Body.Bytes())
	}
	var rr RefreshAllResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Mounts != 2 || rr.Refreshed != 1 {
		t.Fatalf("refresh-all = %+v, want 2 mounts / 1 refreshed", rr)
	}
}

// A /v1/diff under concurrent refresh must never serve a mixed
// generation: every 200 body is byte-identical to the diff of
// (a, b@gen1) or (a, b@gen2) — nothing in between. The engine's
// content-hash bracketing plus the handler's settled-snapshot cache
// discipline are what this pins down; the response cache is disabled
// so every request recomputes and can race the refresh.
func TestDiffServesConsistentGenerationsDuringRefresh(t *testing.T) {
	aPath := writeFixture(t, 12)
	dir := t.TempDir() + "/seg"
	if _, err := segment.Write(dir, buildFixtureTWPP(30), segment.WriteOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}

	s := New(Options{ResponseCacheEntries: -1})
	if err := s.Mount("a", aPath); err != nil {
		t.Fatal(err)
	}
	if err := s.Mount("b", dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// ref computes the generation's reference report in-process, with
	// the same labels the handler uses, through freshly opened
	// containers pinned to the directory's current generation.
	ref := func() []byte {
		t.Helper()
		fa, err := wppfile.OpenCompacted(aPath)
		if err != nil {
			t.Fatal(err)
		}
		defer fa.Close()
		fb, err := segment.Open(dir, wppfile.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer fb.Close()
		rep, err := diff.Containers(context.Background(), "a", "b", fa, fb, diff.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		body, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	r1 := ref()

	var (
		mu     sync.Mutex
		bodies = map[string]int{}
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := getH(s, "/v1/diff?a=a&b=b", nil)
				if rec.Code != http.StatusOK {
					t.Errorf("/v1/diff mid-refresh: %d\n%s", rec.Code, rec.Body.Bytes())
					return
				}
				mu.Lock()
				bodies[rec.Body.String()]++
				mu.Unlock()
			}
		}()
	}

	// Pin a guaranteed gen1 observation through the handler before the
	// append (the workers race the refresh; this one cannot).
	before := getH(s, "/v1/diff?a=a&b=b", nil)
	if before.Code != http.StatusOK || !bytes.Equal(before.Body.Bytes(), r1) {
		t.Fatalf("pre-append diff is not the gen1 report: %d\n%s", before.Code, before.Body.Bytes())
	}

	// Another writer seals a second session, then the refresh flips
	// the mount's generation while the hammering continues.
	if _, err := segment.Append(dir, buildFixtureTWPP(50), segment.WriteOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	rec := postH(s, "/v1/b/refresh")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST refresh: %d\n%s", rec.Code, rec.Body.Bytes())
	}
	// Guarantee at least one fully post-refresh observation before
	// stopping the fleet.
	after := getH(s, "/v1/diff?a=a&b=b", nil)
	if after.Code != http.StatusOK {
		t.Fatalf("post-refresh diff: %d\n%s", after.Code, after.Body.Bytes())
	}
	close(stop)
	wg.Wait()

	r2 := ref()
	if bytes.Equal(r1, r2) {
		t.Fatal("appended generation did not change the diff; the test is vacuous")
	}
	if !bytes.Equal(after.Body.Bytes(), r2) {
		t.Fatalf("post-refresh diff is not the gen2 report:\n%s", after.Body.Bytes())
	}
	// Both generations are pinned by the synchronous requests above;
	// every concurrent body must be exactly one of the two.
	for body, n := range bodies {
		if body != string(r1) && body != string(r2) {
			t.Fatalf("mixed-generation diff served %d time(s):\n%s", n, body)
		}
	}
}

// Ensure mounts unknown names and refreshes known ones — the OnSeal
// hook a colocated ingest server drives, so it must work while the
// query plane is live.
func TestCatalogEnsure(t *testing.T) {
	dir := t.TempDir() + "/seg"
	if _, err := segment.Write(dir, buildFixtureTWPP(20), segment.WriteOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}

	s := New(Options{})
	t.Cleanup(func() { s.Close() })
	if err := s.Catalog().Ensure("live", dir); err != nil {
		t.Fatalf("Ensure (mount): %v", err)
	}
	if got := getH(s, "/v1/live/funcs", nil); got.Code != http.StatusOK {
		t.Fatalf("GET after Ensure: %d\n%s", got.Code, got.Body.Bytes())
	}
	if _, err := segment.Append(dir, buildFixtureTWPP(15), segment.WriteOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Catalog().Ensure("live", dir); err != nil {
		t.Fatalf("Ensure (refresh): %v", err)
	}
	m, err := s.Catalog().Get("live")
	if err != nil {
		t.Fatal(err)
	}
	if m.Generation() != 2 {
		t.Fatalf("generation after Ensure = %d, want 2", m.Generation())
	}
}
