// The HTTP POST fallback: producers that cannot hold a TCP session
// open (batch jobs, curl, CI uploaders) POST a complete raw WPP file
// image and get the seal summary back as JSON. The body is decoded by
// the same bounded-memory reader the offline CLI uses, so validation
// — and every structured rejection code — is identical to
// `twpp-compact -stream`; bad input is the client's fault (422),
// never a 5xx.

package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"twpp/internal/cli"
	"twpp/internal/core"
	"twpp/internal/wppfile"
)

// IngestResponse is the JSON body for a successful HTTP seal.
type IngestResponse struct {
	Mount        string `json:"mount"`
	Session      uint64 `json:"session"`
	Generation   uint64 `json:"generation"`
	Segments     uint64 `json:"segments"`
	Calls        int    `json:"calls"`
	UniqueTraces int    `json:"unique_traces"`
}

// errorResponse mirrors internal/server's error body shape.
type errorResponse struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// Handler returns the server's HTTP surface:
//
//	POST /v1/ingest/{mount}  — body: raw WPP file image → seal
//	GET  /metrics            — Prometheus text format
//	GET  /healthz
//
// The observability routes bypass the session semaphore; the ingest
// route shares it with the TCP plane.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest/{mount}", s.handleIngest)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.opts.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	mount := r.PathValue("mount")
	if !ValidMount(mount) {
		writeHTTPError(w, http.StatusBadRequest, "usage", fmt.Sprintf("invalid mount name %q", mount))
		return
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.mBusy.Inc()
		writeHTTPError(w, http.StatusTooManyRequests, "busy", "too many concurrent sessions")
		return
	}
	defer func() { <-s.sem }()
	s.mActive.Inc()
	defer s.mActive.Dec()

	res, err := s.ingestBody(r, mount)
	if err != nil {
		s.mRejected.Inc()
		status := cli.HTTPStatus(err)
		writeHTTPError(w, status, cli.CodeName(cli.ExitCode(err)), err.Error())
		return
	}
	s.mSealed.Inc()
	s.mHTTPSeals.Inc()
	data, merr := json.MarshalIndent(res, "", "  ")
	if merr != nil {
		writeHTTPError(w, http.StatusInternalServerError, "error", merr.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// ingestBody decodes the raw WPP body through the bounded-memory
// reader, compacts it online, and seals it. Panics from deeper layers
// are contained by the caller's discipline in ServeSession; here the
// demux in ReplayCtx guarantees the compactor only sees balanced
// events, so no recovery shim is needed beyond net/http's own.
func (s *Server) ingestBody(r *http.Request, mount string) (IngestResponse, error) {
	size := r.ContentLength
	var body = r.Body
	if max := s.opts.MaxSessionBytes; max > 0 {
		if size > max {
			return IngestResponse{}, cli.Usagef("body of %d bytes exceeds session limit %d", size, max)
		}
		body = http.MaxBytesReader(nil, r.Body, max)
	}
	rr, err := wppfile.NewRawStreamReader(body, size)
	if err != nil {
		return IngestResponse{}, err
	}
	s.mBytesIn.Add(uint64(maxInt64(size, 0)))
	sc := core.NewStreamCompactor(rr.Names())
	err = rr.ReplayCtx(r.Context(), sc)
	s.mEvents.Add(uint64(rr.Accepted()))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return IngestResponse{}, cli.Usagef("body exceeds session limit %d", mbe.Limit)
		}
		return IngestResponse{}, err
	}
	sealed, err := s.seal(r.Context(), mount, sc)
	if err != nil {
		return IngestResponse{}, err
	}
	return IngestResponse{
		Mount:        mount,
		Session:      sealed.session,
		Generation:   sealed.generation,
		Segments:     sealed.segments,
		Calls:        sealed.calls,
		UniqueTraces: sealed.uniqueTraces,
	}, nil
}

func writeHTTPError(w http.ResponseWriter, status int, code, msg string) {
	data, err := json.MarshalIndent(errorResponse{Code: code, Error: msg}, "", "  ")
	if err != nil {
		data = []byte(fmt.Sprintf(`{"code":%q,"error":"marshal failure"}`, code))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
