// Command twpp-serve is a long-lived HTTP/JSON query server over
// compacted TWPP containers — single .twpp files or segmented
// container directories (auto-detected by their manifest; a mounted
// directory keeps serving while a background merge folds its
// segments): the paper's single-seek per-function
// extraction, per-function stats, dynamic-CFG construction, and
// profile-limited GEN-KILL queries, served concurrently with bounded
// in-flight work, per-request deadlines, Prometheus metrics, and
// pprof.
//
// Usage:
//
//	twpp-serve -in trace.twpp[,more.twpp...] [-mount name=path,...]
//	           [-addr :7070] [-cache 64] [-resp-cache 256]
//	           [-max-inflight 64] [-timeout 5s] [-mmap] [-verify]
//	           [-quiet]
//
// Endpoints (GET unless marked; query routes name their mount):
//
//	/mounts                     the catalog: names, formats, section sizes
//	/v1/{mount}/funcs           functions, hottest first
//	/v1/{mount}/trace/{fn}      one function's TWPP traces [?trace=N]
//	/v1/{mount}/stats/{fn}      per-function stats summary
//	/v1/{mount}/cfg/{fn}        timestamp-annotated dynamic CFG [?trace=N]
//	/v1/{mount}/query?func=F&block=B&gen=ids&kill=ids[&trace=N]
//	                            profile-limited GEN-KILL query
//	/v1/{mount}/analyze/{pass}  any registered pass; /v1/{mount}/analyses lists them
//	/v1/{mount}/refresh         (POST) re-read a segmented mount's manifest
//	/refresh                    (POST) refresh every mount
//	/metrics                    Prometheus text metrics (incl. per-mount)
//	/debug/pprof/               runtime profiles
//	/healthz                    liveness
//
// -in paths (files or segment directories) mount under their base
// names without extension; -mount pairs mount under explicit names. -mmap serves reads from read-only
// memory mappings instead of file descriptors; -verify checks every
// section checksum of every mounted v2 file before serving. The
// server drains gracefully on SIGINT/SIGTERM: listeners close,
// in-flight requests finish (up to the drain timeout), then the
// process exits. SIGHUP refreshes every segmented mount (equivalent
// to POST /refresh), picking up sessions another process sealed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"twpp/internal/cli"
	"twpp/internal/server"
	"twpp/internal/storage"
)

// serveConfig carries the validated flag values newServer consumes.
type serveConfig struct {
	in          string // comma-separated paths, mounted by base name
	mounts      string // comma-separated name=path pairs
	cache       int
	respCache   int
	maxInflight int
	timeout     time.Duration
	mmap        bool
	verify      bool
	quiet       bool
}

func main() {
	var (
		c     serveConfig
		addr  = flag.String("addr", ":7070", "listen address")
		drain = flag.Duration("drain", 10*time.Second, "graceful shutdown grace period")
	)
	flag.StringVar(&c.in, "in", "", "comma-separated compacted TWPP files to mount by base name")
	flag.StringVar(&c.mounts, "mount", "", "comma-separated name=path mounts (explicit names)")
	flag.IntVar(&c.cache, "cache", server.DefaultCacheEntries, "decoded-block LRU cache entries per mounted file")
	flag.IntVar(&c.respCache, "resp-cache", server.DefaultResponseCacheEntries, "rendered-response cache entries (v2 mounts; negative disables)")
	flag.IntVar(&c.maxInflight, "max-inflight", server.DefaultMaxInFlight, "concurrent query requests before 429")
	flag.DurationVar(&c.timeout, "timeout", server.DefaultRequestTimeout, "per-request deadline (negative disables)")
	flag.BoolVar(&c.mmap, "mmap", false, "serve reads from read-only memory mappings")
	flag.BoolVar(&c.verify, "verify", false, "verify every section checksum of mounted v2 files at startup")
	flag.BoolVar(&c.quiet, "quiet", false, "suppress per-request log lines")
	flag.Parse()
	cli.Exit("twpp-serve", run(c, *addr, *drain))
}

// newServer validates flags, builds the server, and mounts every file.
// Split from run so tests can drive the full mount path without a
// listener.
func newServer(c serveConfig) (*server.Server, error) {
	if c.in == "" && c.mounts == "" {
		return nil, cli.Usagef("missing -in or -mount")
	}
	if c.maxInflight < 1 {
		return nil, cli.Usagef("-max-inflight must be >= 1")
	}
	opts := server.Options{
		CacheEntries:         c.cache,
		MaxInFlight:          c.maxInflight,
		RequestTimeout:       c.timeout,
		ResponseCacheEntries: c.respCache,
	}
	opts.Open.VerifyChecksums = c.verify
	if c.mmap {
		opts.Open.Backend = storage.KindMmap
	}
	if !c.quiet {
		opts.LogWriter = os.Stderr
	}
	s := server.New(opts)
	for _, path := range strings.Split(c.in, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if err := s.Mount(name, path); err != nil {
			s.Close()
			return nil, err
		}
	}
	for _, pair := range strings.Split(c.mounts, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, path, ok := strings.Cut(pair, "=")
		if !ok || name == "" || path == "" {
			s.Close()
			return nil, cli.Usagef("bad -mount entry %q (want name=path)", pair)
		}
		if err := s.Mount(name, path); err != nil {
			s.Close()
			return nil, err
		}
	}
	if len(s.Mounts()) == 0 {
		s.Close()
		return nil, cli.Usagef("-in and -mount list no files")
	}
	return s, nil
}

func run(c serveConfig, addr string, drain time.Duration) error {
	s, err := newServer(c)
	if err != nil {
		return err
	}
	defer s.Close()

	hs := &http.Server{Addr: addr, Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP re-reads every segmented mount's manifest — the
	// operational "pick up what the ingest server sealed" nudge, on a
	// separate channel so it never races the shutdown context.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			n, err := s.RefreshAll()
			if err != nil {
				fmt.Fprintf(os.Stderr, "twpp-serve: refresh: %v\n", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "twpp-serve: refreshed %d of %d mounts\n", n, len(s.Mounts()))
		}
	}()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "twpp-serve: listening on %s (%d mounts)\n", addr, len(s.Mounts()))
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Drain: stop accepting, let in-flight requests finish.
		stop()
		fmt.Fprintf(os.Stderr, "twpp-serve: shutting down (drain %s)\n", drain)
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			hs.Close()
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
