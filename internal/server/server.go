// Package server implements twpp-serve: a concurrent HTTP/JSON query
// server over compacted TWPP files. It mounts one or more files
// read-only (the CompactedFile concurrency contract — positioned
// reads, immutable index, shared decode cache — is exactly what a
// serving layer needs) and exposes the facade operations the paper
// motivates: per-function trace extraction (one seek), per-function
// stats, dynamic-CFG construction, and profile-limited GEN-KILL
// queries.
//
// Operational discipline:
//
//   - Bounded concurrency: a semaphore caps in-flight query requests;
//     saturation returns 429 instead of queueing unboundedly.
//   - Per-request deadlines: every query runs under a context deadline
//     threaded into the decode (ExtractFunctionCtx) and solver
//     (SolveAllCtx) layers, so one expensive request cannot hold a
//     slot forever. Expired deadlines return 504.
//   - Structured failure: decode errors keep their PR 3 codes end to
//     end — a corrupt mounted file is a 422 with code "corrupt" or
//     "truncated", a resource-limit rejection a 422 with code
//     "limit" — never a 500, so server faults stay distinguishable
//     from hostile input.
//   - Observability: an obs.Registry of request, latency, cache, and
//     rejection metrics served at /metrics (Prometheus text format),
//     pprof at /debug/pprof, and one structured log line per request.
//
// /metrics, /healthz, and /debug/pprof bypass the semaphore: the
// observability plane must respond while the query plane is saturated.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sync"
	"time"

	"twpp/internal/cfg"
	"twpp/internal/cli"
	"twpp/internal/obs"
	"twpp/internal/passes"
	"twpp/internal/wppfile"
)

// Defaults for Options zero values.
const (
	DefaultCacheEntries         = 64
	DefaultMaxInFlight          = 64
	DefaultRequestTimeout       = 5 * time.Second
	DefaultResponseCacheEntries = 256
)

// Options configures a Server. Zero values select the defaults above.
type Options struct {
	// CacheEntries sizes each mounted file's sharded decode cache.
	CacheEntries int
	// MaxInFlight bounds concurrently served query requests; excess
	// requests are rejected with 429 rather than queued.
	MaxInFlight int
	// ResponseCacheEntries bounds the rendered-response cache shared by
	// the cacheable query routes (see respcache.go). Zero selects
	// DefaultResponseCacheEntries; negative disables response caching
	// (ETag/304 revalidation still works — it needs no cache).
	ResponseCacheEntries int
	// RequestTimeout is the per-request context deadline. Negative
	// disables the deadline (requests still honor client cancellation).
	RequestTimeout time.Duration
	// Registry receives the server's metrics; nil creates a private one.
	Registry *obs.Registry
	// LogWriter receives one structured line per request (key=value
	// pairs, one line per request); nil discards them.
	LogWriter io.Writer
	// Open carries the decode resource limits applied to mounted files.
	// Its CacheEntries and Instrument fields are overridden per mount.
	Open wppfile.OpenOptions
}

func (o Options) withDefaults() Options {
	if o.CacheEntries == 0 {
		o.CacheEntries = DefaultCacheEntries
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = DefaultMaxInFlight
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.ResponseCacheEntries == 0 {
		o.ResponseCacheEntries = DefaultResponseCacheEntries
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.LogWriter == nil {
		o.LogWriter = io.Discard
	}
	return o
}

// Server serves query requests over a catalog of mounted compacted
// TWPP files. It is safe for concurrent use once built; Mount and
// the refresh path may run concurrently with serving (the catalog is
// lock-guarded), which is how a colocated ingest server makes newly
// sealed sessions queryable live.
type Server struct {
	opts Options
	reg  *obs.Registry
	mux  *http.ServeMux
	sem  chan struct{}

	logMu sync.Mutex
	logW  io.Writer

	cat *Catalog

	// resp is the rendered-response cache; nil when disabled.
	resp *respCache

	// Metrics handles, resolved once.
	mRequests    *obs.Counter
	m2xx         *obs.Counter
	m4xx         *obs.Counter
	m5xx         *obs.Counter
	mThrottled   *obs.Counter
	mPanics      *obs.Counter
	mCorrupt     *obs.Counter
	mTruncated   *obs.Counter
	mLimit       *obs.Counter
	mCanceled    *obs.Counter
	mLatency     *obs.Histogram
	mInFlight    *obs.Gauge
	mCacheHits   *obs.Counter
	mCacheMisses *obs.Counter
	mDecodeBytes *obs.Counter
	m304         *obs.Counter
	mRespHits    *obs.Counter
	mRespMisses  *obs.Counter
}

// New builds a Server with no mounts.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	r := opts.Registry
	s := &Server{
		opts: opts,
		reg:  r,
		sem:  make(chan struct{}, opts.MaxInFlight),
		logW: opts.LogWriter,

		mRequests:    r.Counter("twpp_requests_total"),
		m2xx:         r.Counter("twpp_responses_2xx_total"),
		m4xx:         r.Counter("twpp_responses_4xx_total"),
		m5xx:         r.Counter("twpp_responses_5xx_total"),
		mThrottled:   r.Counter("twpp_throttled_total"),
		mPanics:      r.Counter("twpp_panics_total"),
		mCorrupt:     r.Counter("twpp_reject_corrupt_total"),
		mTruncated:   r.Counter("twpp_reject_truncated_total"),
		mLimit:       r.Counter("twpp_reject_limit_total"),
		mCanceled:    r.Counter("twpp_canceled_total"),
		mLatency:     r.Histogram("twpp_request_seconds", nil),
		mInFlight:    r.Gauge("twpp_in_flight"),
		mCacheHits:   r.Counter("twpp_cache_hits_total"),
		mCacheMisses: r.Counter("twpp_cache_misses_total"),
		mDecodeBytes: r.Counter("twpp_decode_bytes_total"),
		m304:         r.Counter("twpp_responses_304_total"),
		mRespHits:    r.Counter("twpp_respcache_hits_total"),
		mRespMisses:  r.Counter("twpp_respcache_misses_total"),
	}
	if opts.ResponseCacheEntries > 0 {
		s.resp = newRespCache(opts.ResponseCacheEntries)
		r.GaugeFunc("twpp_respcache_entries", func() float64 { return float64(s.resp.len()) })
	}
	s.cat = NewCatalog(CatalogOptions{
		Open:         opts.Open,
		CacheEntries: opts.CacheEntries,
		Registry:     r,
		Instrument: &wppfile.Instrument{
			OnDecode: func(_ cfg.FuncID, n int) {
				s.mCacheMisses.Inc()
				s.mDecodeBytes.Add(uint64(n))
			},
			OnCacheHit: func(_ cfg.FuncID) { s.mCacheHits.Inc() },
		},
	})
	r.GaugeFunc("twpp_mounted_files", func() float64 { return float64(s.cat.Len()) })

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	// Query routes are deterministic functions of (mounted bytes,
	// request URI), so they go through the ETag/response-cache wrapper,
	// and each registers once, under /v1/{mount}/...
	registerQuery := func(pattern string, h handlerFunc) {
		mux.HandleFunc("GET /v1/{mount}"+pattern, s.limited(s.cached(h)))
	}
	// Each registered pass with a dedicated route gets it; every pass —
	// routed or not — is reachable through the generic analyze endpoint
	// and listed by the discovery endpoint.
	for _, p := range passes.All() {
		if p.Route != "" {
			registerQuery(p.Route, s.passHandler(p.Name))
		}
	}
	registerQuery("/analyze/{pass}", s.handleAnalyze)
	registerQuery("/analyses", s.handleAnalyses)
	mux.HandleFunc("GET /mounts", s.limited(s.handleMounts))
	// Cross-mount diff: names both sides in the query string, so it
	// does its own dual-hash ETag/cache handling instead of cached().
	mux.HandleFunc("GET /v1/diff", s.limited(s.handleDiff))
	// Refresh is a cheap mutation (re-read one manifest), not a query:
	// it goes through limited() for the semaphore and logging but is
	// never response-cached.
	mux.HandleFunc("POST /v1/{mount}/refresh", s.limited(s.handleRefresh))
	mux.HandleFunc("POST /refresh", s.limited(s.handleRefreshAll))
	s.mux = mux
	return s
}

// Mount opens path read-only under the given name, which requests
// address as the /v1/{mount}/... path segment. The file is opened
// with the server's decode limits and backend, its own decode cache,
// and instrumentation feeding both the aggregate and per-mount
// cache/decode metrics.
func (s *Server) Mount(name, path string) error {
	return s.cat.Mount(name, path)
}

// Mounts lists mount names in mount order.
func (s *Server) Mounts() []string { return s.cat.Names() }

// Catalog exposes the server's mount catalog.
func (s *Server) Catalog() *Catalog { return s.cat }

// Registry exposes the server's metrics registry (for tests and for
// embedding the server alongside other instrumented components).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close releases every mounted file.
func (s *Server) Close() error { return s.cat.Close() }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP dispatches through the method/pattern mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	s.mux.ServeHTTP(w, r)
}

// handlerFunc is a query handler returning an error classified by
// cli.HTTPStatus (plus the not-found special case).
type handlerFunc func(w http.ResponseWriter, r *http.Request) error

// limited wraps a query handler with the serving discipline: the
// in-flight semaphore (429 on saturation), the per-request deadline,
// panic recovery, latency/status metrics, and the request log line.
func (s *Server) limited(h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		select {
		case s.sem <- struct{}{}:
		default:
			s.mThrottled.Inc()
			s.m4xx.Inc()
			writeJSONError(w, http.StatusTooManyRequests, "throttled", "server saturated: too many in-flight requests")
			s.logRequest(r, http.StatusTooManyRequests, "throttled", time.Since(start), nil)
			return
		}
		s.mInFlight.Inc()
		defer func() {
			s.mInFlight.Dec()
			<-s.sem
		}()

		ctx := r.Context()
		if s.opts.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
			defer cancel()
		}
		// The handler records which mount it resolved here, so the
		// wrapper can attribute the request (and any failure) to that
		// mount's counters without changing handler signatures.
		ref := &mountRef{}
		ctx = context.WithValue(ctx, mountRefKey{}, ref)
		r = r.WithContext(ctx)

		var err error
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					s.mPanics.Inc()
					err = fmt.Errorf("server: panic serving %s: %v\n%s", r.URL.Path, rec, debug.Stack())
				}
			}()
			err = h(w, r)
		}()

		status, code := http.StatusOK, "ok"
		if err != nil {
			status, code = classify(err)
			writeJSONError(w, status, code, err.Error())
		} else if ref.status != 0 {
			// A handler wrapper (the ETag revalidation path) already
			// wrote a non-200 success status.
			status, code = ref.status, "not_modified"
		}
		if m := ref.m; m != nil && m.mRequests != nil {
			m.mRequests.Inc()
			if err != nil {
				m.mErrors.Inc()
			}
		}
		s.countStatus(status, code)
		s.mLatency.Observe(time.Since(start).Seconds())
		s.logRequest(r, status, code, time.Since(start), err)
	}
}

// classify maps a handler error to its HTTP status and short code
// name. Decode errors keep their structured class; a missing function,
// mount, pass, or block is a plain 404.
func classify(err error) (status int, code string) {
	if errors.Is(err, wppfile.ErrNoFunction) || errors.Is(err, errNotFound) ||
		errors.Is(err, passes.ErrNotFound) {
		return http.StatusNotFound, "not_found"
	}
	return cli.HTTPStatus(err), cli.CodeName(cli.ExitCode(err))
}

func (s *Server) countStatus(status int, code string) {
	switch {
	case status == http.StatusNotModified:
		s.m304.Inc()
	case status < 300:
		s.m2xx.Inc()
	case status < 500:
		s.m4xx.Inc()
	default:
		s.m5xx.Inc()
	}
	switch code {
	case "corrupt":
		s.mCorrupt.Inc()
	case "truncated":
		s.mTruncated.Inc()
	case "limit":
		s.mLimit.Inc()
	case "canceled":
		s.mCanceled.Inc()
	}
}

// logRequest emits one structured key=value line per request, carrying
// the error-code class so corrupt-input rejections are grep-able apart
// from server faults.
func (s *Server) logRequest(r *http.Request, status int, code string, d time.Duration, err error) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if err != nil {
		fmt.Fprintf(s.logW, "method=%s path=%s status=%d code=%s dur_us=%d err=%q\n",
			r.Method, r.URL.RequestURI(), status, code, d.Microseconds(), err.Error())
		return
	}
	fmt.Fprintf(s.logW, "method=%s path=%s status=%d code=%s dur_us=%d\n",
		r.Method, r.URL.RequestURI(), status, code, d.Microseconds())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}
