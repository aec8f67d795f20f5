package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"twpp/internal/cfg"
	"twpp/internal/cli"
)

// errNotFound marks lookups of absent mounts; classify maps it to 404.
var errNotFound = errors.New("not found")

// ErrorResponse is every non-2xx body: the message plus the structured
// code class ("corrupt", "truncated", "limit", "canceled", "usage",
// "not_found", "throttled", "error").
type ErrorResponse struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	_, err = w.Write(append(data, '\n'))
	return err
}

func writeJSONError(w http.ResponseWriter, status int, code, msg string) {
	data, err := json.MarshalIndent(ErrorResponse{Code: code, Error: msg}, "", "  ")
	if err != nil {
		data = []byte(fmt.Sprintf(`{"code":%q,"error":"marshal failure"}`, code))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// mountRefKey/mountRef pass the resolved mount — and any non-200
// success status a wrapper wrote directly (the 304 revalidation path)
// — back to the limited() wrapper for accounting.
type mountRefKey struct{}

type mountRef struct {
	m      *Mount
	status int
}

// resolveMount picks the mount the request's /v1/{mount}/... path
// segment names.
func (s *Server) resolveMount(r *http.Request) (*Mount, error) {
	m, err := s.cat.Get(r.PathValue("mount"))
	if err != nil {
		return nil, err
	}
	if ref, ok := r.Context().Value(mountRefKey{}).(*mountRef); ok {
		ref.m = m
	}
	return m, nil
}

// pathFunc parses the {fn} path segment as a function id.
func pathFunc(r *http.Request) (cfg.FuncID, error) {
	v, err := strconv.Atoi(r.PathValue("fn"))
	if err != nil || v < 0 {
		return 0, cli.Usagef("bad function id %q", r.PathValue("fn"))
	}
	return cfg.FuncID(v), nil
}

// queryInt parses an integer query parameter (used by routes that sit
// outside the pass registry, like /v1/diff).
func queryInt(r *http.Request, key string, def int) (int, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, cli.Usagef("bad %s %q", key, s)
	}
	return v, nil
}

// MountInfo is one catalog entry in a MountsResponse: the mount name,
// its container format version, and the Table 3 section breakdown.
type MountInfo struct {
	Name        string `json:"name"`
	Format      int    `json:"format"`
	Functions   int    `json:"functions"`
	HeaderBytes int64  `json:"header_bytes"`
	DCGBytes    int64  `json:"dcg_bytes"`
	BlockBytes  int64  `json:"block_bytes"`
}

// MountsResponse lists the catalog in mount order.
type MountsResponse struct {
	Mounts []MountInfo `json:"mounts"`
}

// GET /mounts — list the catalog: every mount's name, format version,
// and section sizes.
func (s *Server) handleMounts(w http.ResponseWriter, _ *http.Request) error {
	resp := MountsResponse{Mounts: []MountInfo{}}
	for _, name := range s.cat.Names() {
		m, err := s.cat.Get(name)
		if err != nil {
			return err
		}
		hdr, dcg, blocks, err := m.file.SectionSizes()
		if err != nil {
			return err
		}
		resp.Mounts = append(resp.Mounts, MountInfo{
			Name:        m.name,
			Format:      m.file.FormatVersion(),
			Functions:   len(m.file.Functions()),
			HeaderBytes: hdr,
			DCGBytes:    dcg,
			BlockBytes:  blocks,
		})
	}
	return writeJSON(w, resp)
}
