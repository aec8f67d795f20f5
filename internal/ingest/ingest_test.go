package ingest_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"twpp/internal/core"
	"twpp/internal/ingest"
	"twpp/internal/segment"
	"twpp/internal/testkit"
	"twpp/internal/trace"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

// rawToTWPP compacts a generated WPP in memory (the batch pipeline).
func rawToTWPP(t *testing.T, w *trace.RawWPP) *core.TWPP {
	t.Helper()
	cc, _ := wpp.Compact(w)
	return core.FromCompacted(cc)
}

// openSet opens a sealed container directory with checksum
// verification.
func openSet(t *testing.T, dir string) *segment.Set {
	t.Helper()
	set, err := segment.Open(dir, wppfile.OpenOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatalf("Open %s: %v", dir, err)
	}
	t.Cleanup(func() { set.Close() })
	return set
}

// startServer brings up an ingest server on a loopback listener and
// returns it with its dialable address. Cleanup drains it.
func startServer(t *testing.T, opts ingest.Options) (*ingest.Server, string) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := ingest.NewServer(opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, ln.Addr().String()
}

// awaitValue polls v until it reaches want, for up to 10 s. It returns
// an error rather than failing the test so producer goroutines can use
// it.
func awaitValue(v func() int64, want int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for v() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("value stuck at %d, want %d", v(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// awaitSlotsHeld waits until n sessions hold a slot
// (twpp_ingest_sessions_active), so a contending session is known to
// find the semaphore full.
func awaitSlotsHeld(t *testing.T, s *ingest.Server, n int64) {
	t.Helper()
	active := s.Registry().Gauge("twpp_ingest_sessions_active")
	if err := awaitValue(active.Value, n); err != nil {
		t.Fatalf("twpp_ingest_sessions_active: %v", err)
	}
}

// Every generator shape streamed over a real socket must seal to
// bytes identical to the offline `twpp-compact -stream` pipeline —
// the ingest parity oracle.
func TestIngestParityAllShapes(t *testing.T) {
	s, addr := startServer(t, ingest.Options{Workers: 1})
	for _, shape := range testkit.Shapes() {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			cfg := testkit.Config{Shape: shape, Seed: 41 + int64(shape)}
			if shape == testkit.DeepRecursion {
				cfg.Calls = 300
			}
			w := testkit.Generate(cfg)
			mount := "parity-" + shape.String()
			if err := testkit.CheckIngestParity(addr, mount, s.MountDir(mount), w); err != nil {
				t.Fatal(err)
			}
		})
	}
}
