// The producer-fleet soak: 16 concurrent synthetic producers over
// real sockets — jittered pacing, slowloris trickling, kill-and-
// reconnect mid-session — hammering 4 shared mounts. Run under -race
// by `make ingest-test`. Assertions: every completed session seals,
// every kill is rejected as truncated, the server never panics, and
// every container opens clean afterwards with one manifest session
// per seal.

package ingest_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"twpp/internal/ingest"
	"twpp/internal/segment"
	"twpp/internal/testkit"
)

func TestProducerFleetSoak(t *testing.T) {
	const producers = 16
	srv, addr := startServer(t, ingest.Options{MaxSessions: producers, Workers: 1})
	rejected := srv.Registry().Counter("twpp_ingest_sessions_rejected_total")
	rejectedValue := func() int64 { return int64(rejected.Value()) }

	shapes := testkit.Shapes()
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	var sealedWant, killedWant int64
	var mu sync.Mutex

	for i := 0; i < producers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := testkit.Config{Shape: shapes[i%len(shapes)], Seed: int64(100 + i)}
			if cfg.Shape == testkit.DeepRecursion {
				cfg.Calls = 120
			}
			w := testkit.Generate(cfg)
			events := w.Linear()
			mount := fmt.Sprintf("soak-%d", i%4)
			p := &testkit.Producer{
				Addr:   addr,
				Mount:  mount,
				Names:  w.FuncNames,
				Events: events,
				Jitter: 200 * time.Microsecond,
				Seed:   int64(i),
			}
			if i%5 == 1 {
				// Slowloris producers trickle single symbols over a
				// short session: pacing, not volume, is the point.
				sw := testkit.Generate(testkit.Config{Shape: testkit.SingleBlock, Seed: int64(i), Calls: 8})
				p.Slowloris = true
				p.BatchSymbols = 1
				p.Names = sw.FuncNames
				p.Events = sw.Linear()
			}
			// Every 4th producer is killed mid-session, then
			// reconnects and streams the whole session again. It
			// reconnects only once every kill finished so far is
			// counted as rejected: the server frees a session's slot
			// before counting it, so the fleet never holds more than
			// MaxSessions slots and the reconnect cannot be busy.
			if i%4 == 3 {
				kill := *p
				kill.DisconnectAfter = len(p.Events) / 2
				if _, err := kill.Run(); err != nil {
					errs <- fmt.Errorf("producer %d kill run: %w", i, err)
					return
				}
				mu.Lock()
				killedWant++
				kills := killedWant
				mu.Unlock()
				if err := awaitValue(rejectedValue, kills); err != nil {
					errs <- fmt.Errorf("producer %d: kills not counted: %w", i, err)
					return
				}
			}
			res, err := p.Run()
			if err != nil {
				errs <- fmt.Errorf("producer %d: %w", i, err)
				return
			}
			if !res.OK() {
				errs <- fmt.Errorf("producer %d rejected: %s (%s)", i, res.Code, res.Detail)
				return
			}
			mu.Lock()
			sealedWant++
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Every kill was counted before its producer reconnected, and
	// every seal before its RESULT, so the counters are exact now.
	sealed := metricValue(t, srv, "twpp_ingest_sessions_sealed_total")
	if sealed != uint64(sealedWant) || rejected.Value() != uint64(killedWant) {
		t.Fatalf("sealed=%d want %d, rejected=%d want %d",
			sealed, sealedWant, rejected.Value(), killedWant)
	}
	if n := metricValue(t, srv, "twpp_ingest_panics_total"); n != 0 {
		t.Fatalf("soak caused %d contained panics", n)
	}

	// Every container opens clean and its manifest carries exactly the
	// sealed sessions.
	totalSessions := 0
	for m := 0; m < 4; m++ {
		set := openSet(t, srv.MountDir(fmt.Sprintf("soak-%d", m)))
		totalSessions += countSessions(t, srv.MountDir(fmt.Sprintf("soak-%d", m)))
		if set.SegmentCount() < 1 {
			t.Errorf("mount soak-%d is empty", m)
		}
	}
	if totalSessions != int(sealedWant) {
		t.Errorf("manifests carry %d sessions, want %d", totalSessions, sealedWant)
	}
}

// countSessions reads a container's manifest and counts distinct
// write sessions.
func countSessions(t *testing.T, dir string) int {
	t.Helper()
	man, err := segment.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, e := range man.Segments {
		seen[e.Session] = true
	}
	return len(seen)
}
