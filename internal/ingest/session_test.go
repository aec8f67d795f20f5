package ingest_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"twpp/internal/cfg"
	"twpp/internal/cli"
	"twpp/internal/ingest"
	"twpp/internal/segment"
	"twpp/internal/sequitur"
	"twpp/internal/testkit"
)

// rwPair joins a reader and writer into the io.ReadWriter the session
// driver accepts — the in-memory harness for deterministic protocol
// tests.
type rwPair struct {
	io.Reader
	io.Writer
}

// newInMemServer builds a server for in-memory session driving (no
// listener).
func newInMemServer(t *testing.T, opts ingest.Options) *ingest.Server {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	s, err := ingest.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// wireImage renders a complete valid session as wire bytes.
func wireImage(mount string, names []string, events []uint32) []byte {
	img := ingest.AppendHello(nil, mount, names)
	img = ingest.AppendEvents(img, events)
	return ingest.AppendFinish(img)
}

// Protocol violations must be rejected with the structured code the
// violation deserves — and the session must never reach the seal path.
func TestProtocolErrors(t *testing.T) {
	w := testkit.Generate(testkit.Config{Shape: testkit.Regular, Seed: 1})
	names, events := w.FuncNames, w.Linear()

	cases := []struct {
		name   string
		image  []byte
		status uint64
	}{
		{"events-before-hello", ingest.AppendEvents(nil, events), cli.ExitCorrupt},
		{"finish-before-hello", ingest.AppendFinish(nil), cli.ExitCorrupt},
		{"double-hello", ingest.AppendHello(ingest.AppendHello(nil, "m", names), "m", names), cli.ExitCorrupt},
		{"unknown-frame", ingest.AppendFrame(nil, 'Z', nil), cli.ExitCorrupt},
		{"empty-stream", nil, cli.ExitTruncated},
		{"hello-only-disconnect", ingest.AppendHello(nil, "m", names), cli.ExitTruncated},
		{"mid-events-disconnect", ingest.AppendEvents(ingest.AppendHello(nil, "m", names), events[:len(events)/2]), cli.ExitTruncated},
		{"unbalanced-finish", ingest.AppendFinish(ingest.AppendEvents(ingest.AppendHello(nil, "m", names), events[:1])), cli.ExitCorrupt},
		{"bad-mount-name", wireImage("../evil", names, events), cli.ExitCorrupt},
		{"empty-mount-name", wireImage("", names, events), cli.ExitCorrupt},
		{"enter-out-of-table", ingest.AppendEvents(ingest.AppendHello(nil, "m", names[:1]), []uint32{sequitur.EnterMarker(5)}), cli.ExitCorrupt},
	}
	s := newInMemServer(t, ingest.Options{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			res := s.ServeSession(context.Background(), rwPair{bytes.NewReader(tc.image), &out})
			if res.Status != tc.status {
				t.Fatalf("status %d (%s: %s), want %d", res.Status, res.Code, res.Detail, tc.status)
			}
			// The producer-visible RESULT frame carries the same verdict.
			got, err := ingest.ReadResult(bytes.NewReader(out.Bytes()))
			if err != nil {
				t.Fatalf("reading RESULT: %v", err)
			}
			if got.Status != tc.status || got.Code != res.Code {
				t.Fatalf("wire RESULT %+v != returned %+v", got, res)
			}
		})
	}
}

// Hellos with a broken preamble get the precise structured code.
func TestHelloPreambleErrors(t *testing.T) {
	s := newInMemServer(t, ingest.Options{})
	run := func(image []byte) ingest.Result {
		return s.ServeSession(context.Background(), rwPair{bytes.NewReader(image), io.Discard})
	}
	// Wrong magic.
	bad := ingest.AppendFrame(nil, ingest.FrameHello, []byte{0, 0, 0, 0, 1, 0, 0})
	if res := run(bad); res.Status != cli.ExitCorrupt {
		t.Errorf("bad magic: status %d (%s)", res.Status, res.Detail)
	}
	// Declared function count beyond the payload.
	p := []byte{0x54, 0x57, 0x50, 0x49, 1, 1, 'm'}
	p = append(p, 0xff, 0xff, 0x03) // numFuncs = 65535
	if res := run(ingest.AppendFrame(nil, ingest.FrameHello, p)); res.Status != cli.ExitCorrupt {
		t.Errorf("inflated func count: status %d (%s)", res.Status, res.Detail)
	}
}

// Resource limits reject with code "limit": an oversized frame, and a
// session whose event payload total exceeds the budget.
func TestLimits(t *testing.T) {
	w := testkit.Generate(testkit.Config{Shape: testkit.Regular, Seed: 2})
	t.Run("frame", func(t *testing.T) {
		s := newInMemServer(t, ingest.Options{MaxFrameBytes: 64})
		img := wireImage("m", w.FuncNames, w.Linear()) // events frame >> 64 bytes
		res := s.ServeSession(context.Background(), rwPair{bytes.NewReader(img), io.Discard})
		if res.Status != cli.ExitLimit {
			t.Fatalf("status %d (%s), want limit", res.Status, res.Detail)
		}
	})
	t.Run("session-bytes", func(t *testing.T) {
		s := newInMemServer(t, ingest.Options{MaxSessionBytes: 16})
		img := wireImage("m", w.FuncNames, w.Linear())
		res := s.ServeSession(context.Background(), rwPair{bytes.NewReader(img), io.Discard})
		if res.Status != cli.ExitLimit {
			t.Fatalf("status %d (%s), want limit", res.Status, res.Detail)
		}
	})
}

// A saturated semaphore answers "busy" immediately instead of queueing.
func TestBusyRejection(t *testing.T) {
	s, addr := startServer(t, ingest.Options{MaxSessions: 1, Workers: 1})
	w := testkit.Generate(testkit.Config{Shape: testkit.Regular, Seed: 3})

	// Hold the only slot open: HELLO, then silence (within the long
	// default idle timeout).
	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	if _, err := hold.Write(ingest.AppendHello(nil, "m", w.FuncNames)); err != nil {
		t.Fatal(err)
	}
	awaitSlotsHeld(t, s, 1)

	// The second producer streams a whole session and must read a busy
	// RESULT, not a reset connection.
	p := &testkit.Producer{Addr: addr, Mount: "n", Names: w.FuncNames, Events: w.Linear()}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ingest.StatusBusy || res.Code != "busy" {
		t.Fatalf("contending session got %+v, want busy", res)
	}
}

// Producer silence after a balanced stream seals the session (the
// instrumented program exited without a polite FINISH); silence
// mid-call-stack is a structured rejection.
func TestIdleTimeout(t *testing.T) {
	w := testkit.Generate(testkit.Config{Shape: testkit.Periodic, Seed: 4})
	events := w.Linear()

	t.Run("balanced-seals", func(t *testing.T) {
		s, addr := startServer(t, ingest.Options{IdleTimeout: 150 * time.Millisecond, Workers: 1})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		img := ingest.AppendEvents(ingest.AppendHello(nil, "idle", w.FuncNames), events)
		if _, err := conn.Write(img); err != nil {
			t.Fatal(err)
		}
		// No FINISH: the idle deadline fires and the server seals.
		res, err := ingest.ReadResult(conn)
		if err != nil {
			t.Fatalf("reading idle RESULT: %v", err)
		}
		if !res.OK() {
			t.Fatalf("idle session not sealed: %s (%s)", res.Code, res.Detail)
		}
		if res.Detail != "sealed on idle timeout" {
			t.Errorf("detail %q", res.Detail)
		}
		if !segment.IsSegmented(s.MountDir("idle")) {
			t.Error("no container sealed")
		}
	})
	t.Run("unbalanced-rejects", func(t *testing.T) {
		_, addr := startServer(t, ingest.Options{IdleTimeout: 150 * time.Millisecond, Workers: 1})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Strip the trailing EXIT: one call stays open.
		img := ingest.AppendEvents(ingest.AppendHello(nil, "idle2", w.FuncNames), events[:len(events)-1])
		if _, err := conn.Write(img); err != nil {
			t.Fatal(err)
		}
		res, err := ingest.ReadResult(conn)
		if err != nil {
			t.Fatalf("reading idle RESULT: %v", err)
		}
		if res.Status != cli.ExitCorrupt {
			t.Fatalf("unbalanced idle session: status %d (%s), want corrupt", res.Status, res.Detail)
		}
	})
}

// Three sessions streamed into one mount must extract identically to
// an offline container built from the same sessions in the same order
// (Write, then Append) — the multi-session merged view is semantic
// (per-segment bytes stay covered by the parity oracle).
func TestMultiSessionMountMatchesOfflineWriter(t *testing.T) {
	seeds := []int64{10, 11, 12}
	srv, addr := startServer(t, ingest.Options{Workers: 1})

	offDir := t.TempDir() + "/off"
	for i, seed := range seeds {
		w := testkit.Generate(testkit.Config{Shape: testkit.Irregular, Seed: seed})
		p := &testkit.Producer{Addr: addr, Mount: "multi", Names: w.FuncNames, Events: w.Linear()}
		res, err := p.Run()
		if err != nil || !res.OK() {
			t.Fatalf("seed %d: err=%v res=%+v", seed, err, res)
		}
		seal := segment.Append
		if i == 0 {
			seal = segment.Write
		}
		if _, err := seal(offDir, rawToTWPP(t, w), segment.WriteOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}

	got := openSet(t, srv.MountDir("multi"))
	want := openSet(t, offDir)
	nf := len(testkit.Generate(testkit.Config{Shape: testkit.Irregular, Seed: seeds[0]}).FuncNames)
	for fn := 0; fn < nf; fn++ {
		wf, werr := want.ExtractFunction(cfg.FuncID(fn))
		gf, gerr := got.ExtractFunction(cfg.FuncID(fn))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("fn %d: offline err=%v ingest err=%v", fn, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if err := testkit.EqualFunctionTWPP(wf, gf); err != nil {
			t.Errorf("fn %d: %v", fn, err)
		}
	}
}
