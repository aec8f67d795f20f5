package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"time"

	"twpp/internal/core"
	"twpp/internal/ingest"
	"twpp/internal/segment"
	"twpp/internal/server"
	"twpp/internal/testkit"
	"twpp/internal/trace"
	"twpp/internal/wppfile"
)

// sessionSeed generates ingest-live's session WPP. It is fixed rather
// than taken from --seed, so the work per session and the compaction
// factor are the same on every run; --seed picks the checked session.
const sessionSeed = 1

// ingestBench is ingest-live: an ingest.Server with default options and
// a colocated query plane hot-mounted on every seal, wired as
// twpp-ingest -serve-addr wires them. One producer streams sessions of
// one fixed WPP over loopback TCP; as each session starts, one reader
// queries the mount it streams into.
type ingestBench struct {
	c        *config
	dir      string
	w        *trace.RawWPP
	events   []uint32
	offline  []byte // testkit.OfflineCompact(w): what every sealed session must equal
	qs       *server.Server
	is       *ingest.Server
	ln       net.Listener
	served   chan error
	qpl      *plane
	reader   *client
	hottest  string
	mounts   []string // mounts written inside windows
	next     int
	raw0     int64
	stored0  int64
	pick     *rand.Rand
	sampled  sessionRef
	before   map[string]float64
	after    map[string]float64
	sessions int
}

type sessionRef struct {
	mount   string
	session uint64
}

func setupIngest(c *config, dir string) (_ runner, err error) {
	b := &ingestBench{c: c, dir: dir, served: make(chan error, 1), pick: rand.New(rand.NewSource(c.seed ^ 0x5eed))}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	b.w = testkit.Generate(testkit.Config{Seed: sessionSeed, Shape: testkit.Irregular, Funcs: 12, Calls: c.sz.sessionCalls})
	b.events = b.w.Linear()
	if b.offline, err = testkit.OfflineCompact(b.w, 0); err != nil {
		return nil, err
	}

	b.qs = server.New(server.Options{})
	cat := b.qs.Catalog()
	b.is, err = ingest.NewServer(ingest.Options{
		Dir:      filepath.Join(dir, "data"),
		Registry: b.qs.Registry(),
		OnSeal: func(mount, dir string, _ *segment.Manifest) {
			if err := cat.Ensure(mount, dir); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: mount %q: %v\n", mount, err)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if b.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() { b.served <- b.is.Serve(b.ln) }()
	if b.qpl, err = startPlane(b.qs.Handler()); err != nil {
		return nil, err
	}
	b.reader = newClient()

	// Warm-up: fill mount m0 with one mount's worth of sessions; its
	// stored bytes give the (deterministic) compaction factor.
	m0 := "m0"
	for i := 0; i < c.sz.perMount; i++ {
		if _, err := b.session(m0); err != nil {
			return nil, fmt.Errorf("warm-up session: %w", err)
		}
	}
	set, err := segment.Open(b.is.MountDir(m0), wppfile.OpenOptions{})
	if err != nil {
		return nil, err
	}
	b.hottest = fmt.Sprint(int(set.Functions()[0]))
	set.Close()
	b.raw0 = int64(c.sz.perMount * rawBytes(b.w))
	if b.stored0, err = storedBytes(b.is.MountDir(m0)); err != nil {
		return nil, err
	}
	for i := 0; i < c.sz.warmReqs; i++ {
		if _, err := b.reader.get(b.statsURL(m0)); err != nil {
			return nil, fmt.Errorf("warm-up read: %w", err)
		}
	}
	return b, nil
}

func (b *ingestBench) statsURL(mount string) string {
	return b.qpl.base + "/v1/" + mount + "/stats/" + b.hottest
}

// session streams one session (HELLO, EVENTS, FINISH, RESULT) into
// mount over a fresh connection.
func (b *ingestBench) session(mount string) (ingest.Result, error) {
	p := &testkit.Producer{Addr: b.ln.Addr().String(), Mount: mount, Names: b.w.FuncNames, Events: b.events}
	res, err := p.Run()
	if err != nil {
		return res, err
	}
	if !res.OK() {
		return res, fmt.Errorf("session into %s: %s (%s)", mount, res.Code, res.Detail)
	}
	return res, nil
}

func (b *ingestBench) run(tr *tracer, d time.Duration) *window {
	var err error
	if b.before, err = b.reader.scrape(b.qpl.base); err != nil {
		w := &window{}
		w.fail(err)
		return w
	}
	type read struct {
		d   time.Duration
		err error
	}
	var (
		mount string
		seen  int
		reads []time.Duration
		errs  []error
	)
	w := closedLoop(1, d, b.c.sz.heapSessions, func(_, i int) error {
		// A fixed number of sessions per mount keeps a session's cost
		// independent of how far into the run it falls.
		first := i%b.c.sz.perMount == 0
		if first {
			b.next++
			mount = fmt.Sprintf("m%d", b.next)
			b.mounts = append(b.mounts, mount)
		}
		id := tr.op()
		// One read per session, issued as it starts, queries the
		// generation the previous seal swapped in while this session
		// streams; a mount's first session has no seal to read yet. A
		// reader in its own closed loop would keep a vCPU busy and make
		// the producer's latency depend on how the scheduler splits
		// the other one.
		var rd chan read
		if !first {
			rd = make(chan read, 1)
			url := b.statsURL(mount)
			go func() {
				sp := tr.begin(id, -1, "http.get")
				t0 := time.Now()
				_, err := b.reader.get(url)
				d := time.Since(t0)
				tr.end(sp)
				rd <- read{d, err}
			}()
		}
		sp := tr.begin(id, -1, "ingest.session")
		res, err := b.session(mount)
		tr.end(sp)
		if rd != nil {
			r := <-rd
			reads = append(reads, r.d)
			if r.err != nil {
				errs = append(errs, r.err)
			}
		}
		if err != nil {
			return err
		}
		seen++
		if b.pick.Intn(seen) == 0 {
			b.sampled = sessionRef{mount, res.Session}
		}
		return nil
	})
	b.sessions = w.ops
	// The colocated catalog keeps every mount it opens, so the heap
	// grows with the sessions run and the window's peak would grow with
	// throughput. peak_heap_mb is instead the median, over the window's
	// first heapSessions/perMount mounts, of each mount's peak.
	per := b.c.sz.perMount
	if n := len(w.heap) / per; n > 0 {
		peaks := make([]float64, n)
		for g := range peaks {
			peaks[g] = float64(slices.Max(w.heap[g*per : (g+1)*per]))
		}
		w.peakHeap = uint64(median(peaks))
	}
	w.reads = reads
	w.attempted += len(reads)
	for _, err := range errs {
		w.fail(err)
	}
	if b.after, err = b.reader.scrape(b.qpl.base); err != nil {
		w.fail(err)
	}
	return w
}

// check compares the sampled session's sealed segment with the offline
// streaming pipeline's bytes for the same WPP.
func (b *ingestBench) check(w *window) {
	s := b.sampled
	if s.mount == "" {
		w.fail(fmt.Errorf("no session sealed"))
		return
	}
	dir := b.is.MountDir(s.mount)
	man, err := segment.ReadManifest(dir)
	if err != nil {
		w.fail(err)
		return
	}
	var names []string
	for _, e := range man.Segments {
		if e.Session == s.session {
			names = append(names, e.Name)
		}
	}
	if len(names) != 1 {
		w.fail(fmt.Errorf("session %d of %s sealed %d segments, want 1", s.session, s.mount, len(names)))
		return
	}
	got, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		w.fail(err)
		return
	}
	if !bytes.Equal(got, b.offline) {
		w.fail(fmt.Errorf("session %d of %s: sealed %d bytes differ from the offline pipeline's %d", s.session, s.mount, len(got), len(b.offline)))
	}
}

func (b *ingestBench) factor() float64 { return float64(b.raw0) / float64(b.stored0) }

func (b *ingestBench) layers(tr *tracer, w *window, m metrics) error {
	const p = "ingest-live."
	delta := func(name string) float64 { return b.after[name] - b.before[name] }
	m.set(p+"ingest.seal_p50_ms", "ms", 1000*histQuantile(b.before, b.after, "twpp_ingest_seal_seconds", 0.5))
	m.set(p+"ingest.wire_bytes_per_event", "bytes", delta("twpp_ingest_bytes_in_total")/delta("twpp_ingest_events_total"))
	m.set(p+"runtime.alloc_mb_per_session", "MB", float64(w.after.TotalAlloc-w.before.TotalAlloc)/1e6/float64(max(b.sessions, 1)))
	segs := 0
	for _, mount := range b.mounts {
		man, err := segment.ReadManifest(b.is.MountDir(mount))
		if err != nil {
			return err
		}
		segs += len(man.Segments)
	}
	m.set(p+"segment.segments_per_mount", "count", float64(segs)/float64(max(len(b.mounts), 1)))
	return b.sealTimes(tr, m, p)
}

// sealTimes replays the seal path in-process, one stage at a time:
// streaming compaction of the session's events, the v2 encode, the
// segment.Append into a scratch mount (a fresh one every perMount
// appends, as in the window), and the colocated catalog's refresh.
func (b *ingestBench) sealTimes(tr *tracer, m metrics, p string) error {
	var compact, encode, appendT, refresh []time.Duration
	srv := server.New(server.Options{})
	defer srv.Close()
	cat := srv.Catalog()
	var dir string
	for r := 0; r < b.c.sz.layerReps; r++ {
		id := tr.op()
		root := tr.begin(id, -1, "seal")
		var (
			tw  *core.TWPP
			err error
		)
		compact = append(compact, tr.timed(id, root, "core.stream_compact", func() {
			sc := core.NewStreamCompactor(b.w.FuncNames)
			b.w.Replay(sc)
			tw, _, err = sc.Finish()
		}))
		if err == nil {
			encode = append(encode, tr.timed(id, root, "wppfile.seal_encode", func() {
				_, err = wppfile.EncodeCompactedFormat(tw, 0, wppfile.FormatV2)
			}))
		}
		if err == nil && r%b.c.sz.perMount == 0 {
			dir = filepath.Join(b.dir, fmt.Sprintf("scratch%d", r))
			if _, err = segment.Write(dir, tw, segment.WriteOptions{}); err == nil {
				err = cat.Ensure(fmt.Sprintf("s%d", r), dir)
			}
		} else if err == nil {
			appendT = append(appendT, tr.timed(id, root, "segment.append", func() {
				_, err = segment.Append(dir, tw, segment.WriteOptions{})
			}))
			if err == nil {
				mount := fmt.Sprintf("s%d", r-r%b.c.sz.perMount)
				refresh = append(refresh, tr.timed(id, root, "server.refresh", func() { err = cat.Ensure(mount, dir) }))
			}
		}
		tr.end(root)
		if err != nil {
			return err
		}
	}
	m.set(p+"core.stream_compact_ms", "ms", durQuantile(compact, 0.5, time.Millisecond))
	m.set(p+"wppfile.seal_encode_ms", "ms", durQuantile(encode, 0.5, time.Millisecond))
	m.set(p+"segment.append_ms", "ms", durQuantile(appendT, 0.5, time.Millisecond))
	m.set(p+"server.refresh_ms", "ms", durQuantile(refresh, 0.5, time.Millisecond))
	return nil
}

func (b *ingestBench) close() error {
	var errs []error
	if b.reader != nil {
		b.reader.close()
	}
	if b.is != nil {
		errs = append(errs, b.is.Close())
		if b.ln != nil {
			errs = append(errs, <-b.served)
		}
	} else if b.ln != nil {
		errs = append(errs, b.ln.Close())
	}
	if b.qpl != nil {
		errs = append(errs, b.qpl.close())
	}
	if b.qs != nil {
		errs = append(errs, b.qs.Close())
	}
	errs = append(errs, os.RemoveAll(b.dir))
	return errors.Join(errs...)
}
