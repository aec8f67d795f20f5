// The ingest server: accept loop, session semaphore, the seal path
// into segmented containers, metrics, and graceful drain — the serve
// discipline of internal/server applied to the write side.

package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"twpp/internal/cli"
	"twpp/internal/core"
	"twpp/internal/obs"
	"twpp/internal/segment"
)

// Defaults mirror internal/server's conservative posture.
const (
	DefaultMaxSessions     = 64
	DefaultIdleTimeout     = 30 * time.Second
	DefaultMaxFrameBytes   = 1 << 20
	DefaultMaxSessionBytes = int64(1) << 30
	DefaultDrainTimeout    = 5 * time.Second
)

// MountExt is the directory suffix sealed containers get under
// Options.Dir: mount "web" seals into "<dir>/web.twppd".
const MountExt = ".twppd"

// Options configures a Server.
type Options struct {
	// Dir is where sealed containers live; one segmented container
	// directory per mount name.
	Dir string
	// MaxSessions bounds concurrent sessions (TCP and HTTP combined);
	// excess producers get an immediate "busy" RESULT (or HTTP 429).
	// 0 selects DefaultMaxSessions.
	MaxSessions int
	// IdleTimeout is the per-frame read deadline. A producer silent
	// this long has its session sealed if balanced, rejected otherwise.
	// 0 selects DefaultIdleTimeout.
	IdleTimeout time.Duration
	// MaxFrameBytes bounds a single frame payload; 0 selects
	// DefaultMaxFrameBytes.
	MaxFrameBytes int
	// MaxSessionBytes bounds a session's total EVENTS payload bytes;
	// 0 selects DefaultMaxSessionBytes, < 0 disables the bound.
	MaxSessionBytes int64
	// SegmentBytes is the per-segment payload budget for sealed
	// sessions (segment.WriteOptions.SegmentBytes).
	SegmentBytes int64
	// Workers sizes each seal's encode worker pool.
	Workers int
	// Registry receives the twpp_ingest_* metrics; nil creates a
	// private one.
	Registry *obs.Registry
	// LogWriter receives one structured line per session outcome; nil
	// disables logging.
	LogWriter io.Writer
	// OnSeal, when set, runs after every successful seal with the
	// mount name, its container directory, and the committed manifest
	// — the hook a colocated twpp-serve uses to mount or refresh.
	OnSeal func(mount, dir string, man *segment.Manifest)
	// DrainTimeout bounds how long Close waits for in-flight sessions
	// before force-closing their connections. 0 selects
	// DefaultDrainTimeout.
	DrainTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = DefaultMaxSessions
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = DefaultIdleTimeout
	}
	if o.MaxFrameBytes <= 0 {
		o.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if o.MaxSessionBytes == 0 {
		o.MaxSessionBytes = DefaultMaxSessionBytes
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = DefaultDrainTimeout
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o
}

// sealInfo summarizes one committed seal for the session's RESULT.
type sealInfo struct {
	session      uint64
	generation   uint64
	segments     uint64
	calls        int
	uniqueTraces int
}

// Server accepts producer sessions, compacts them online, and seals
// them into per-mount segmented containers.
type Server struct {
	opts Options

	sem chan struct{}

	mu     sync.Mutex // guards ln, conns, closed
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// sealMu serializes seals per mount: segment.Append is
	// single-writer per container directory.
	sealMu sync.Mutex
	seals  map[string]*sync.Mutex

	mActive    *obs.Gauge
	mSealed    *obs.Counter
	mRejected  *obs.Counter
	mBusy      *obs.Counter
	mBytesIn   *obs.Counter
	mEvents    *obs.Counter
	mFrames    *obs.Counter
	mPanics    *obs.Counter
	mSealSecs  *obs.Histogram
	mHTTPSeals *obs.Counter
}

// NewServer builds a Server; Serve (or the HTTP handler) makes it
// live.
func NewServer(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("ingest: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	r := opts.Registry
	s := &Server{
		opts:       opts,
		sem:        make(chan struct{}, opts.MaxSessions),
		conns:      make(map[net.Conn]struct{}),
		seals:      make(map[string]*sync.Mutex),
		mActive:    r.Gauge("twpp_ingest_sessions_active"),
		mSealed:    r.Counter("twpp_ingest_sessions_sealed_total"),
		mRejected:  r.Counter("twpp_ingest_sessions_rejected_total"),
		mBusy:      r.Counter("twpp_ingest_sessions_busy_total"),
		mBytesIn:   r.Counter("twpp_ingest_bytes_in_total"),
		mEvents:    r.Counter("twpp_ingest_events_total"),
		mFrames:    r.Counter("twpp_ingest_frames_total"),
		mPanics:    r.Counter("twpp_ingest_panics_total"),
		mSealSecs:  r.Histogram("twpp_ingest_seal_seconds", obs.DefaultLatencyBuckets),
		mHTTPSeals: r.Counter("twpp_ingest_http_seals_total"),
	}
	return s, nil
}

// Registry exposes the server's metrics registry (for /metrics).
func (s *Server) Registry() *obs.Registry { return s.opts.Registry }

// Serve accepts sessions on ln until Close. It returns nil after a
// clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("ingest: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		s.track(conn, true)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.track(conn, false)
			defer conn.Close()
			s.ServeSession(context.Background(), conn)
		}()
	}
}

// ListenAndServe listens on addr and Serves. The listener's actual
// address is available via Addr once listening.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the live listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

// ServeSession runs one complete producer session over rw: semaphore
// admission, the frame loop, sealing, and exactly one RESULT. It is
// exported so tests and the fuzz target can drive the full path over
// in-memory streams. Panics are contained per session and reported as
// internal RESULTs — a hostile producer can be rejected, never crash
// the server.
func (s *Server) ServeSession(ctx context.Context, rw io.ReadWriter) Result {
	res, finished := s.admitAndRun(ctx, rw)
	// The RESULT goes out last, best-effort: the producer may have
	// disconnected, and a dead writer must not mask the real outcome.
	rw.Write(appendResult(nil, res))
	if !finished {
		drainUnread(rw)
	}
	return res
}

// admitAndRun takes a session slot and runs the session, reporting
// whether the producer's FINISH was read. By the time it returns the
// slot is free and the outcome is counted and logged, so a producer
// that holds its RESULT never sees stale metrics.
func (s *Server) admitAndRun(ctx context.Context, rw io.ReadWriter) (res Result, finished bool) {
	select {
	case s.sem <- struct{}{}:
	default:
		s.mBusy.Inc()
		return Result{Status: StatusBusy, Code: "busy", Detail: "ingest: too many concurrent sessions"}, false
	}
	s.mActive.Inc()
	ss := &session{srv: s, rw: rw, buf: make([]byte, 4096)}
	var stack []byte
	func() {
		defer func() {
			if p := recover(); p != nil {
				s.mPanics.Inc()
				stack = debug.Stack()
				res = Result{
					Status: cli.ExitFailure,
					Code:   cli.CodeName(cli.ExitFailure),
					Detail: fmt.Sprintf("ingest: internal error: %v", p),
				}
			}
		}()
		res = ss.run(ctx)
	}()
	s.mActive.Dec()
	<-s.sem
	if res.OK() {
		s.mSealed.Inc()
	} else {
		s.mRejected.Inc()
	}
	s.logSession(ss, res, stack)
	return res, ss.finished
}

// Bounds on reading what a producer still sends after an early
// RESULT.
const (
	drainTimeout = time.Second
	drainBytes   = 1 << 20
)

// drainUnread ends a session answered before its FINISH (busy, or
// rejected mid-stream). Closing a TCP connection with unread input
// makes the kernel send RST, which can destroy the RESULT before the
// producer reads it. So half-close instead, and discard the producer's
// remaining frames, bounded in time and bytes, before the caller
// closes. Streams without CloseWrite are left alone.
func drainUnread(rw io.ReadWriter) {
	cw, ok := rw.(interface{ CloseWrite() error })
	if !ok || cw.CloseWrite() != nil {
		return
	}
	if d, ok := rw.(readDeadliner); ok {
		d.SetReadDeadline(time.Now().Add(drainTimeout))
	}
	io.CopyN(io.Discard, rw, drainBytes)
}

func (s *Server) logSession(ss *session, res Result, stack []byte) {
	w := s.opts.LogWriter
	if w == nil {
		return
	}
	mount := ""
	if ss.hello != nil {
		mount = ss.hello.Mount
	}
	fmt.Fprintf(w, "session mount=%q status=%s events=%d bytes=%d detail=%q\n",
		mount, res.Code, res.Events, ss.bytes, res.Detail)
	if stack != nil {
		w.Write(stack)
	}
}

// mountLock returns the per-mount seal mutex, creating it on first
// use.
func (s *Server) mountLock(mount string) *sync.Mutex {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	l := s.seals[mount]
	if l == nil {
		l = &sync.Mutex{}
		s.seals[mount] = l
	}
	return l
}

// MountDir returns the container directory a mount seals into.
func (s *Server) MountDir(mount string) string {
	return filepath.Join(s.opts.Dir, mount+MountExt)
}

// seal finishes the compactor and commits the session into the
// mount's container: segment.Write creates it on the first session,
// segment.Append extends it on every later one. Appends are
// serialized per mount; different mounts seal concurrently.
func (s *Server) seal(ctx context.Context, mount string, sc *core.StreamCompactor) (sealInfo, error) {
	start := time.Now()
	tw, stats, err := sc.FinishCtx(ctx)
	if err != nil {
		return sealInfo{}, err
	}
	l := s.mountLock(mount)
	l.Lock()
	defer l.Unlock()

	dir := s.MountDir(mount)
	wopts := segment.WriteOptions{SegmentBytes: s.opts.SegmentBytes, Workers: s.opts.Workers}
	var man *segment.Manifest
	if segment.IsSegmented(dir) {
		man, err = segment.Append(dir, tw, wopts)
	} else {
		man, err = segment.Write(dir, tw, wopts)
	}
	if err != nil {
		return sealInfo{}, err
	}
	s.mSealSecs.Observe(time.Since(start).Seconds())

	// The appended session's entries are the trailing run sharing the
	// highest session id.
	last := man.Segments[len(man.Segments)-1]
	nseg := uint64(0)
	for i := len(man.Segments) - 1; i >= 0 && man.Segments[i].Session == last.Session; i-- {
		nseg++
	}
	if s.opts.OnSeal != nil {
		s.opts.OnSeal(mount, dir, man)
	}
	return sealInfo{
		session:      last.Session,
		generation:   man.Generation,
		segments:     nseg,
		calls:        stats.Calls,
		uniqueTraces: stats.UniqueTraces,
	}, nil
}

// Close drains the server: stop accepting, wait up to DrainTimeout
// for in-flight sessions, then force-close stragglers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(s.opts.DrainTimeout):
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	select {
	case <-done:
	case <-time.After(s.opts.DrainTimeout):
		return errors.New("ingest: sessions still running after forced close")
	}
	return nil
}
