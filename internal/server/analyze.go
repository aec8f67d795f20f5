// Dispatch from HTTP routes into the analysis-pass registry. Every
// query route is one registered pass: the dedicated routes
// (/funcs, /trace/{fn}, ...) and the generic /analyze/{pass} endpoint
// both resolve the pass, translate the request into passes.Params, and
// hand the mounted container to passes.Run — the server owns transport
// concerns (mount resolution, caching, deadlines, status mapping) and
// none of the analysis logic.

package server

import (
	"net/http"
	"strconv"

	"twpp/internal/passes"
)

// passParams translates the request into pass parameters: every query
// parameter, with a validated {fn} path segment (when the route has
// one) supplying "func".
func passParams(r *http.Request, m *Mount) (passes.Params, error) {
	vals := map[string]string{}
	for k, vs := range r.URL.Query() {
		if len(vs) == 0 {
			continue
		}
		vals[k] = vs[0]
	}
	if r.PathValue("fn") != "" {
		fn, err := pathFunc(r)
		if err != nil {
			return passes.Params{}, err
		}
		vals["func"] = strconv.Itoa(int(fn))
	}
	return passes.Params{Source: m.name, Values: vals}, nil
}

// passHandler adapts the registered pass name to its dedicated route.
func (s *Server) passHandler(name string) handlerFunc {
	return func(w http.ResponseWriter, r *http.Request) error {
		m, err := s.resolveMount(r)
		if err != nil {
			return err
		}
		params, err := passParams(r, m)
		if err != nil {
			return err
		}
		res, err := passes.Run(r.Context(), name, m.file, params)
		if err != nil {
			return err
		}
		return writeJSON(w, res)
	}
}

// GET /analyze/{pass} — run any registered pass by name; parameters
// come from the query string. Unknown pass names are 404.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) error {
	m, err := s.resolveMount(r)
	if err != nil {
		return err
	}
	params, err := passParams(r, m)
	if err != nil {
		return err
	}
	res, err := passes.Run(r.Context(), r.PathValue("pass"), m.file, params)
	if err != nil {
		return err
	}
	return writeJSON(w, res)
}

// AnalysesResponse is the discovery listing: every registered pass
// with its parameter docs.
type AnalysesResponse struct {
	File     string        `json:"file"`
	Analyses []passes.Info `json:"analyses"`
}

// GET /analyses — list the registered analysis passes.
func (s *Server) handleAnalyses(w http.ResponseWriter, r *http.Request) error {
	m, err := s.resolveMount(r)
	if err != nil {
		return err
	}
	return writeJSON(w, AnalysesResponse{File: m.name, Analyses: passes.Infos()})
}
