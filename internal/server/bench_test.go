package server_test

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"twpp/internal/server"
	"twpp/internal/testkit"
)

// BenchmarkServeExtract is the pure-Go serving throughput smoke: the
// full request path (mux, semaphore, deadline, extraction, JSON
// render) driven through the handler with no network, in parallel.
func BenchmarkServeExtract(b *testing.B) {
	path, _ := writeCorpusFile(b, testkit.Config{Seed: 73, Shape: testkit.Regular, Funcs: 6, Calls: 200})
	paths := goodPaths(b, path)
	srv := server.New(server.Options{CacheEntries: 16, MaxInFlight: 4 * runtime.GOMAXPROCS(0)})
	if err := srv.Mount("bench", path); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p := paths[i%len(paths)]
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
			if rec.Code != http.StatusOK {
				b.Errorf("GET %s: status %d: %s", p, rec.Code, rec.Body.Bytes())
				return
			}
			i++
		}
	})
	reg := srv.Registry()
	b.ReportMetric(float64(reg.Counter("twpp_cache_hits_total").Value())/float64(b.N), "hits/op")
}

// withGOMAXPROCS raises GOMAXPROCS to at least n for the duration of a
// test (restored on cleanup). The serving soaks must run at
// GOMAXPROCS > 1 even on small CI hosts so the concurrent
// serving path — shard contention, semaphore, response cache — is
// actually exercised in parallel.
func withGOMAXPROCS(t testing.TB, n int) int {
	cur := runtime.GOMAXPROCS(0)
	if n > cur {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(cur) })
		return n
	}
	return cur
}
