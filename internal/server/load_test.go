package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twpp/internal/core"
	"twpp/internal/server"
	"twpp/internal/testkit"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// writeCorpusFile compacts a generated WPP to a temp file and returns
// its path and raw bytes.
func writeCorpusFile(t testing.TB, cfg testkit.Config) (string, []byte) {
	t.Helper()
	w := testkit.Generate(cfg)
	c, _ := wpp.Compact(w)
	path := filepath.Join(t.TempDir(), "load.twpp")
	if err := wppfile.WriteCompacted(path, core.FromCompacted(c)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// goodPaths enumerates request paths that must all succeed against the
// file mounted as mount: /funcs, and per function the trace/stats/CFG
// extractions plus one valid GEN-KILL query built from the first
// trace's blocks.
func goodPaths(t testing.TB, mount, path string) []string {
	t.Helper()
	cf, err := wppfile.OpenCompacted(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	pre := "/v1/" + mount
	paths := []string{pre + "/funcs"}
	for _, fn := range cf.Functions() {
		ft, err := cf.ExtractFunction(fn)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths,
			fmt.Sprintf("%s/trace/%d", pre, fn),
			fmt.Sprintf("%s/stats/%d", pre, fn),
			fmt.Sprintf("%s/cfg/%d", pre, fn),
		)
		if len(ft.Traces) > 0 && len(ft.Traces[0].Blocks) > 1 {
			tr := ft.Traces[0]
			paths = append(paths, fmt.Sprintf("%s/query?func=%d&block=%d&gen=%d",
				pre, fn, tr.Blocks[0].Block, tr.Blocks[1].Block))
		}
	}
	return paths
}

// TestLoadSoak drives a 16-client mixed workload against a mounted
// server (run under -race via `make serve-test`): every request on the
// well-formed file must return 200, the in-flight gauge stays within
// [0, MaxInFlight], counters are monotonic, and the observability
// plane (/metrics, /healthz) keeps answering during the load.
func TestLoadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("load soak skipped in -short")
	}
	const (
		clients     = 16
		perClient   = 100
		maxInFlight = 32
	)
	withGOMAXPROCS(t, 4) // exercise real parallelism even on 1-CPU CI hosts
	path, _ := writeCorpusFile(t, testkit.Config{Seed: 71, Shape: testkit.Regular, Funcs: 6, Calls: 120})
	paths := goodPaths(t, "load", path)

	srv := server.New(server.Options{CacheEntries: 8, MaxInFlight: maxInFlight})
	if err := srv.Mount("load", path); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reg := srv.Registry()
	inFlight := reg.Gauge("twpp_in_flight")
	requests := reg.Counter("twpp_requests_total")

	var (
		wg       sync.WaitGroup
		failures atomic.Int64
		done     = make(chan struct{})
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				p := paths[(c*perClient+i)%len(paths)]
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					failures.Add(1)
					t.Errorf("client %d: GET %s: %v", c, p, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("client %d: GET %s: status %d: %s", c, p, resp.StatusCode, body)
					return
				}
			}
		}(c)
	}

	// Observability-plane watcher: /metrics and /healthz must answer
	// while the query plane is under load, the in-flight gauge must stay
	// bounded, and the request counter must be monotonic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastRequests uint64
		for {
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if v := inFlight.Value(); v < 0 || v > maxInFlight {
				t.Errorf("twpp_in_flight = %d, want within [0, %d]", v, maxInFlight)
			}
			if v := requests.Value(); v < lastRequests {
				t.Errorf("twpp_requests_total moved backwards: %d -> %d", lastRequests, v)
			} else {
				lastRequests = v
			}
			for _, p := range []string{"/metrics", "/healthz", "/debug/pprof/cmdline"} {
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					t.Errorf("under load: GET %s: %v", p, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("under load: GET %s: status %d", p, resp.StatusCode)
				}
			}
		}
	}()

	wgWait := make(chan struct{})
	go func() { wg.Wait(); close(wgWait) }()
	// Release the watcher once the clients finish.
	go func() {
		for {
			if requests.Value() >= clients*perClient {
				close(done)
				return
			}
			select {
			case <-wgWait:
				select {
				case <-done:
				default:
					close(done)
				}
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	<-wgWait
	select {
	case <-done:
	default:
		close(done)
	}

	if failures.Load() != 0 {
		t.Fatalf("%d client failures", failures.Load())
	}
	if v := requests.Value(); v < clients*perClient {
		t.Errorf("twpp_requests_total = %d, want >= %d", v, clients*perClient)
	}
	if v := reg.Counter("twpp_responses_5xx_total").Value(); v != 0 {
		t.Errorf("twpp_responses_5xx_total = %d, want 0", v)
	}
	if v := reg.Counter("twpp_panics_total").Value(); v != 0 {
		t.Errorf("twpp_panics_total = %d, want 0", v)
	}
	if reg.Counter("twpp_cache_hits_total").Value() == 0 {
		t.Error("twpp_cache_hits_total = 0 after repeated extraction load")
	}
	if reg.Counter("twpp_decode_bytes_total").Value() == 0 {
		t.Error("twpp_decode_bytes_total = 0 after load")
	}
	if v := inFlight.Value(); v != 0 {
		t.Errorf("twpp_in_flight = %d after drain, want 0", v)
	}
}

// TestLoadCorruptedFile mounts testkit.BitFlip-mutated files and
// drives every endpoint: hostile bytes must yield structured 4xx
// responses (code corrupt/truncated/limit, or not_found) — never a
// 5xx, never a panic. Mutations the index validation rejects at Mount
// time must fail with a structured (PR 3) error.
func TestLoadCorruptedFile(t *testing.T) {
	if testing.Short() {
		t.Skip("corruption sweep skipped in -short")
	}
	path, data := writeCorpusFile(t, testkit.Config{Seed: 72, Shape: testkit.Irregular, Funcs: 4, Calls: 40})
	paths := goodPaths(t, "m", path)
	dir := t.TempDir()

	var mounts, rejects4xx, mountRejects int
	// Flip one bit every 23 bytes across the whole image: header,
	// index, and block sections all get hit.
	for off := 0; off < len(data); off += 23 {
		mut := testkit.BitFlip(data, off, int(off)%8)
		mpath := filepath.Join(dir, "mut.twpp")
		if err := os.WriteFile(mpath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Options{CacheEntries: 4})
		err := srv.Mount("m", mpath)
		if err != nil {
			if !testkit.Structured(err) {
				t.Errorf("bitflip@%d: Mount failed unstructured: %v", off, err)
			}
			mountRejects++
			srv.Close()
			continue
		}
		mounts++
		h := srv.Handler()
		for _, p := range paths {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
			if rec.Code >= 500 {
				t.Errorf("bitflip@%d: GET %s: status %d (must never be 5xx):\n%s",
					off, p, rec.Code, rec.Body.Bytes())
				continue
			}
			if rec.Code >= 400 {
				var e server.ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
					t.Errorf("bitflip@%d: GET %s: 4xx body is not structured JSON: %v", off, p, err)
					continue
				}
				switch e.Code {
				case "corrupt", "truncated", "limit":
					rejects4xx++
				case "not_found", "usage":
					// A flipped index entry can legitimately turn into a
					// missing function or an out-of-range trace index.
				default:
					t.Errorf("bitflip@%d: GET %s: code %q, want a structured input-fault class", off, p, e.Code)
				}
			}
		}
		if v := srv.Registry().Counter("twpp_panics_total").Value(); v != 0 {
			t.Errorf("bitflip@%d: %d panics while serving corrupt file", off, v)
		}
		if v := srv.Registry().Counter("twpp_responses_5xx_total").Value(); v != 0 {
			t.Errorf("bitflip@%d: twpp_responses_5xx_total = %d, want 0", off, v)
		}
		srv.Close()
	}
	if mounts == 0 && mountRejects == 0 {
		t.Fatal("sweep exercised nothing")
	}
	if rejects4xx == 0 && mounts > 0 {
		t.Errorf("no mutation produced a structured 4xx rejection (%d mounts served clean)", mounts)
	}
	t.Logf("sweep: %d mount-time rejections, %d mounts served, %d structured 4xx rejections",
		mountRejects, mounts, rejects4xx)
}
