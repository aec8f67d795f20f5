package server

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/segment"
	"twpp/internal/trace"
	"twpp/internal/wpp"
)

// buildFixtureTWPP is writeFixture's WPP in TWPP form, for sealing
// into a segmented container.
func buildFixtureTWPP(calls int) *core.TWPP {
	b := trace.NewBuilder([]string{"main", "hot", "warm"})
	b.EnterCall(0)
	b.Block(1)
	for i := 0; i < calls; i++ {
		b.Block(2)
		b.EnterCall(1)
		b.Block(1)
		b.Block(2)
		b.Block(cfg.BlockID(i%5 + 3))
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
	return core.FromCompacted(c)
}

// A directory with a manifest mounts as a segmented container: queries
// serve normally, and a background merge mid-serve changes the ETag
// (stale If-None-Match revalidations get a full 200 again) without a
// single failed response — the relaxed catalog contract.
func TestSegmentedMountServesAcrossMerge(t *testing.T) {
	tw := buildFixtureTWPP(60)
	dir := t.TempDir() + "/seg"
	if _, err := segment.Write(dir, tw, segment.WriteOptions{Segments: 6, Workers: 1}); err != nil {
		t.Fatal(err)
	}

	s := New(Options{})
	if err := s.Mount("t", dir); err != nil {
		t.Fatalf("Mount segmented dir: %v", err)
	}
	t.Cleanup(func() { s.Close() })

	m, err := s.Catalog().Get("t")
	if err != nil {
		t.Fatal(err)
	}
	set, ok := m.File().(*segment.Set)
	if !ok {
		t.Fatalf("segmented mount opened as %T", m.File())
	}
	if set.SegmentCount() < 2 {
		t.Fatalf("fixture sealed into %d segments, want >= 2", set.SegmentCount())
	}

	first := getH(s, "/v1/t/trace/1", nil)
	if first.Code != http.StatusOK {
		t.Fatalf("pre-merge GET: %d\n%s", first.Code, first.Body.Bytes())
	}
	etag0 := first.Header().Get("ETag")
	if etag0 == "" {
		t.Fatal("segmented mount served no ETag")
	}
	body0 := first.Body.String()

	// Hammer the query plane from several goroutines while the merger
	// folds two segments at a time. Every response must be 200 or 304.
	paths := []string{"/v1/t/trace/0", "/v1/t/trace/1", "/v1/t/trace/2", "/v1/t/funcs", "/v1/t/stats/1"}
	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := paths[(i+g)%len(paths)]
				rec := getH(s, p, nil)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("GET %s during merge: status %d: %s", p, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}

	mg := segment.NewMerger(set, segment.MergeOptions{MaxRun: 2, Workers: 1})
	for set.SegmentCount() > 1 {
		did, err := mg.MergeOnce(t.Context())
		if err != nil {
			t.Fatalf("MergeOnce: %v", err)
		}
		if !did {
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	after := getH(s, "/v1/t/trace/1", nil)
	if after.Code != http.StatusOK {
		t.Fatalf("post-merge GET: %d\n%s", after.Code, after.Body.Bytes())
	}
	etag1 := after.Header().Get("ETag")
	if etag1 == etag0 {
		t.Errorf("ETag unchanged across merge: %q", etag0)
	}
	if after.Body.String() != body0 {
		t.Errorf("merge changed /trace/1 body:\npre:  %s\npost: %s", body0, after.Body.String())
	}

	// A client holding the pre-merge tag must get a fresh 200, not 304.
	if rec := getH(s, "/v1/t/trace/1", map[string]string{"If-None-Match": etag0}); rec.Code != http.StatusOK {
		t.Errorf("stale tag revalidation: status %d, want 200", rec.Code)
	}
	// The current tag revalidates to 304 as usual.
	if rec := getH(s, "/v1/t/trace/1", map[string]string{"If-None-Match": etag1}); rec.Code != http.StatusNotModified {
		t.Errorf("fresh tag revalidation: status %d, want 304", rec.Code)
	}
}
