package server_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twpp/internal/server"
	"twpp/internal/testkit"
	"twpp/internal/wppfile"
)

// The diff oracle: for every generator shape, GET /v1/diff over two
// mounted profiles must be byte-identical to the in-process
// diff.Containers call on the same two files, cache-stable across
// repeated requests, and revalidable via If-None-Match.
func TestDiffParityAllShapes(t *testing.T) {
	for _, shape := range testkit.Shapes() {
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			wA := testkit.Generate(testkit.Config{Seed: 6000 + int64(shape), Shape: shape})
			wB := testkit.Generate(testkit.Config{Seed: 7000 + int64(shape), Shape: shape})
			if err := testkit.CheckDiffParity(wA, wB); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Two generations of the same trace stream diff empty through the
// server too, not just in-process.
func TestDiffParityIdenticalContent(t *testing.T) {
	w := testkit.Generate(testkit.Config{Seed: 8421, Shape: testkit.Periodic})
	w2 := testkit.Generate(testkit.Config{Seed: 8421, Shape: testkit.Periodic})
	if err := testkit.CheckDiffParity(w, w2); err != nil {
		t.Fatal(err)
	}
}

// /v1/diff answers within its request deadline even when a side's
// expansion runs for seconds: 504 naming side a, the side the
// deadline expired in.
func TestDiffHandlerDeadlineInFirstSide(t *testing.T) {
	probe := filepath.Join(t.TempDir(), "probe.twpp")
	if err := wppfile.WriteCompacted(probe, testkit.ExpansionProbe()); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{RequestTimeout: 100 * time.Millisecond, LogWriter: io.Discard})
	t.Cleanup(func() { srv.Close() })
	for _, name := range []string{"a", "b"} {
		if err := srv.Mount(name, probe); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/diff?a=a&b=b", nil))
	if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), "diff side a (a)") {
		t.Fatalf("/v1/diff over the probe: %d\n%s\nwant 504 naming side a", rec.Code, rec.Body.Bytes())
	}
}
