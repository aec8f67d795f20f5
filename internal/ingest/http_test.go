// The HTTP POST fallback under test: a complete raw WPP image POSTed
// to /v1/ingest/{mount} must seal to the exact bytes the offline
// pipeline produces, and every failure class maps to the structured
// HTTP status the serve plane uses — 400 usage, 422 corrupt, 429
// busy. Never a 5xx for client-caused failures.

package ingest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"twpp/internal/encoding"
	"twpp/internal/ingest"
	"twpp/internal/segment"
	"twpp/internal/sequitur"
	"twpp/internal/testkit"
	"twpp/internal/trace"
	"twpp/internal/wppfile"
)

// postBody POSTs raw bytes to the handler and returns status + body.
func postBody(t *testing.T, h http.Handler, path string, body []byte) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.ContentLength = int64(len(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func TestHTTPIngestParity(t *testing.T) {
	s := newInMemServer(t, ingest.Options{})
	h := s.Handler()
	w := testkit.Generate(testkit.Config{Shape: testkit.Irregular, Seed: 21})

	status, body := postBody(t, h, "/v1/ingest/web", wppfile.EncodeRaw(w))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var res ingest.IngestResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, body)
	}
	if res.Mount != "web" || res.Session != 1 || res.Segments != 1 {
		t.Fatalf("unexpected seal summary %+v", res)
	}

	// Byte parity with the offline pipeline.
	want, err := testkit.OfflineCompact(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := s.MountDir("web")
	man, err := segment.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 1 {
		t.Fatalf("%d segments, want 1", len(man.Segments))
	}
	got, err := os.ReadFile(filepath.Join(dir, man.Segments[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sealed segment differs from offline pipeline: %d vs %d bytes", len(got), len(want))
	}
}

func TestHTTPIngestErrors(t *testing.T) {
	s := newInMemServer(t, ingest.Options{})
	h := s.Handler()
	w := testkit.Generate(testkit.Config{Shape: testkit.Regular, Seed: 22})
	img := wppfile.EncodeRaw(w)

	cases := []struct {
		name   string
		path   string
		body   []byte
		status int
		code   string
	}{
		{"invalid-mount", "/v1/ingest/bad.name", nil, http.StatusBadRequest, "usage"},
		{"empty-body", "/v1/ingest/m", nil, http.StatusUnprocessableEntity, "truncated"},
		{"corrupt-body", "/v1/ingest/m", testkit.BitFlip(img, 2, 3), http.StatusUnprocessableEntity, ""},
		{"truncated-body", "/v1/ingest/m", testkit.Truncate(img, len(img)/2), http.StatusUnprocessableEntity, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postBody(t, h, tc.path, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d: %s", status, tc.status, body)
			}
			var er struct {
				Code  string `json:"code"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("error body not JSON: %v\n%s", err, body)
			}
			if er.Code == "" || er.Error == "" {
				t.Fatalf("unstructured error body: %+v", er)
			}
			if tc.code != "" && er.Code != tc.code {
				t.Fatalf("code %q, want %q", er.Code, tc.code)
			}
		})
	}
	if n := metricValue(t, s, "twpp_ingest_panics_total"); n != 0 {
		t.Fatalf("HTTP ingest caused %d panics", n)
	}
}

// One WPP sent over HTTP and over a TCP session moves
// twpp_ingest_events_total by the same amount: the symbols the demux
// accepted, whether the session seals or is rejected mid-stream.
func TestHTTPCountsEventsLikeTCP(t *testing.T) {
	w := testkit.Generate(testkit.Config{Shape: testkit.Irregular, Seed: 24})
	events := w.Linear()
	// An ENTER beyond the name table halfway through: the demux
	// accepts exactly the symbols before it.
	half := len(events) / 2
	bad := append(append(slices.Clone(events[:half]), sequitur.EnterMarker(len(w.FuncNames)+3)), events[half:]...)
	header := wppfile.EncodeRaw(&trace.RawWPP{FuncNames: w.FuncNames})
	for _, tc := range []struct {
		name     string
		events   []uint32
		accepted uint64
	}{
		{"sealed", events, uint64(len(events))},
		{"rejected", bad, uint64(half)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newInMemServer(t, ingest.Options{})
			res := s.ServeSession(context.Background(), rwPair{bytes.NewReader(wireImage("tcp", w.FuncNames, tc.events)), io.Discard})
			if res.OK() != (tc.name == "sealed") || res.Events != tc.accepted {
				t.Fatalf("TCP result %+v, want %d events accepted", res, tc.accepted)
			}
			overTCP := metricValue(t, s, "twpp_ingest_events_total")

			img := slices.Clone(header)
			for _, sym := range tc.events {
				img = encoding.PutUvarint(img, uint64(sym))
			}
			status, body := postBody(t, s.Handler(), "/v1/ingest/http", img)
			if (status == http.StatusOK) != (tc.name == "sealed") {
				t.Fatalf("HTTP status %d: %s", status, body)
			}
			overHTTP := metricValue(t, s, "twpp_ingest_events_total") - overTCP
			if overTCP != tc.accepted || overHTTP != tc.accepted {
				t.Fatalf("twpp_ingest_events_total moved by %d over TCP and %d over HTTP, want %d each", overTCP, overHTTP, tc.accepted)
			}
		})
	}
}

// TestHTTPIngestBusy saturates the shared semaphore via a held TCP
// session and asserts the HTTP plane answers 429 with the busy code.
func TestHTTPIngestBusy(t *testing.T) {
	s, addr := startServer(t, ingest.Options{MaxSessions: 1, Workers: 1})
	w := testkit.Generate(testkit.Config{Shape: testkit.Regular, Seed: 23})

	// Hold the only slot with a silent TCP session.
	hold, err := dialAndHello(addr, "hold", w.FuncNames)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()

	awaitSlotsHeld(t, s, 1)

	status, body := postBody(t, s.Handler(), "/v1/ingest/m", wppfile.EncodeRaw(w))
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", status, body)
	}
	var er struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &er); err != nil || er.Code != "busy" {
		t.Fatalf("busy body %s (err %v)", body, err)
	}
}

// TestHTTPMetricsAndHealth covers the observability routes.
func TestHTTPMetricsAndHealth(t *testing.T) {
	s := newInMemServer(t, ingest.Options{})
	h := s.Handler()
	for _, path := range []string{"/metrics", "/healthz"} {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s: %d", path, rec.Code)
		}
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !bytes.Contains(rec.Body.Bytes(), []byte("twpp_ingest_sessions_sealed_total")) {
		t.Error("metrics output missing ingest counters")
	}
}

// dialAndHello opens a TCP session and sends only the HELLO, leaving
// the slot occupied.
func dialAndHello(addr, mount string, names []string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(ingest.AppendHello(nil, mount, names)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	return conn, nil
}
