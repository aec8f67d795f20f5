// Producer: a synthetic instrumented client for soak-testing the
// ingest service. It speaks the real wire protocol over a real socket
// (or any ReadWriter), with the misbehaviors fleets exhibit — jittered
// pacing, mid-stream disconnects, slowloris trickling — driven by the
// same seeded determinism as the generators. CheckIngestParity is the
// oracle: whatever path events take into the server, the sealed
// segment bytes must be identical to the offline streaming pipeline.

package testkit

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"twpp/internal/core"
	"twpp/internal/ingest"
	"twpp/internal/segment"
	"twpp/internal/trace"
	"twpp/internal/wppfile"
)

// Producer streams one session of WPP events to an ingest server.
type Producer struct {
	// Addr is the server's TCP address. Leave empty and set RW to
	// drive an in-memory stream instead.
	Addr string
	// RW, when non-nil, carries the session instead of a dialed
	// connection.
	RW io.ReadWriter
	// Mount names the container the session seals into.
	Mount string
	// Names is the function name table; Events the linear symbol
	// stream (trace.RawWPP.Linear vocabulary).
	Names  []string
	Events []uint32
	// BatchSymbols is how many symbols ride in one EVENTS frame
	// (default 256).
	BatchSymbols int
	// Jitter, when > 0, sleeps a seeded random duration in [0, Jitter)
	// between frames — the pacing of a real fleet.
	Jitter time.Duration
	// Seed drives the jitter; equal seeds pace equally.
	Seed int64
	// DisconnectAfter, when > 0, drops the connection mid-stream after
	// that many symbols without FINISH — the kill -9 producer.
	DisconnectAfter int
	// Slowloris, when set, sends one symbol per frame with Jitter
	// pacing regardless of BatchSymbols.
	Slowloris bool
}

// Run plays the session and returns the server's RESULT. A
// DisconnectAfter producer returns a zero Result and nil error after
// dropping the connection on purpose.
func (p *Producer) Run() (ingest.Result, error) {
	rw := p.RW
	if rw == nil {
		conn, err := net.Dial("tcp", p.Addr)
		if err != nil {
			return ingest.Result{}, err
		}
		defer conn.Close()
		rw = conn
	}
	batch := p.BatchSymbols
	if batch <= 0 {
		batch = 256
	}
	if p.Slowloris {
		batch = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	pace := func() {
		if p.Jitter > 0 {
			time.Sleep(time.Duration(rng.Int63n(int64(p.Jitter))))
		}
	}

	if _, err := rw.Write(ingest.AppendHello(nil, p.Mount, p.Names)); err != nil {
		return resultAfterWriteError(rw, err)
	}
	sent := 0
	for sent < len(p.Events) {
		if p.DisconnectAfter > 0 && sent >= p.DisconnectAfter {
			if c, ok := rw.(io.Closer); ok {
				c.Close()
			}
			return ingest.Result{}, nil
		}
		hi := sent + batch
		if hi > len(p.Events) {
			hi = len(p.Events)
		}
		if p.DisconnectAfter > 0 && hi > p.DisconnectAfter {
			hi = p.DisconnectAfter
		}
		pace()
		if _, err := rw.Write(ingest.AppendEvents(nil, p.Events[sent:hi])); err != nil {
			return resultAfterWriteError(rw, err)
		}
		sent = hi
	}
	if p.DisconnectAfter > 0 && p.DisconnectAfter >= len(p.Events) {
		if c, ok := rw.(io.Closer); ok {
			c.Close()
		}
		return ingest.Result{}, nil
	}
	pace()
	if _, err := rw.Write(ingest.AppendFinish(nil)); err != nil {
		return resultAfterWriteError(rw, err)
	}
	return ingest.ReadResult(rw)
}

// resultAfterWriteError handles a failed write. A server that answers
// early (busy, or a rejection mid-stream) may stop reading before the
// producer stops writing, yet its RESULT can already be waiting, so it
// is still read. The write error stands only if no RESULT arrives.
func resultAfterWriteError(rw io.Reader, werr error) (ingest.Result, error) {
	if res, err := ingest.ReadResult(rw); err == nil {
		return res, nil
	}
	return ingest.Result{}, werr
}

// OfflineCompact runs the offline streaming pipeline — the exact
// `twpp-compact -stream` path: raw encode, bounded-memory replay,
// online compaction, v2 encode — over w and returns the file bytes.
func OfflineCompact(w *trace.RawWPP, workers int) ([]byte, error) {
	raw := wppfile.EncodeRaw(w)
	rr, err := wppfile.NewRawStreamReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return nil, err
	}
	sc := core.NewStreamCompactor(rr.Names())
	if err := rr.Replay(sc); err != nil {
		return nil, err
	}
	tw, _, err := sc.Finish()
	if err != nil {
		return nil, err
	}
	return wppfile.EncodeCompactedFormat(tw, workers, wppfile.FormatV2)
}

// CheckIngestParity streams w to the ingest server at addr under
// mount and asserts the sealed session's segment bytes are identical
// to the offline streaming pipeline on the same events. The mount
// must seal into a single segment (use a generous segment budget).
// dir is the server's container directory for the mount.
func CheckIngestParity(addr, mount, dir string, w *trace.RawWPP) error {
	p := &Producer{Addr: addr, Mount: mount, Names: w.FuncNames, Events: w.Linear()}
	res, err := p.Run()
	if err != nil {
		return fmt.Errorf("producer: %w", err)
	}
	if !res.OK() {
		return fmt.Errorf("session rejected: %s (%s)", res.Code, res.Detail)
	}
	if res.Segments != 1 {
		return fmt.Errorf("session sealed %d segments, want 1 for byte parity", res.Segments)
	}
	man, err := segment.ReadManifest(dir)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	var entry *segment.Entry
	for i := range man.Segments {
		if man.Segments[i].Session == res.Session {
			if entry != nil {
				return fmt.Errorf("session %d spans multiple segments", res.Session)
			}
			entry = &man.Segments[i]
		}
	}
	if entry == nil {
		return fmt.Errorf("session %d not in manifest", res.Session)
	}
	got, err := os.ReadFile(filepath.Join(dir, entry.Name))
	if err != nil {
		return err
	}
	want, err := OfflineCompact(w, 1)
	if err != nil {
		return fmt.Errorf("offline pipeline: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("ingested segment differs from offline pipeline: %d vs %d bytes", len(got), len(want))
	}
	return nil
}
