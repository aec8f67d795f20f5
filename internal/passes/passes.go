// Package passes is the unified analysis-pass framework over compacted
// TWPP containers: a registry of named analyses, each with one
// execution contract, that the facade, the CLIs, and the HTTP server
// all dispatch through. The paper's central claim is that the
// timestamped representation supports analyses *without decompression*;
// this package is where such analyses live, so adding one means writing
// the algorithm once and registering it — the serving routes, the
// generic /v1/{mount}/analyze/{pass} endpoint, discovery, response
// caching, and the CLI all pick it up from the registry.
//
// The contract:
//
//   - A pass runs against any opened wppfile.Container — a v1 or v2
//     single file or a segmented directory, on any storage backend —
//     and must produce identical results for identical content
//     regardless of layout.
//   - Run receives a context; long work polls it so per-request
//     deadlines and CLI cancellation bound the pass.
//   - Extraction goes through the pooled zero-allocation path when the
//     container provides one (Extract), so hot passes do not regress
//     the PR 6 allocation discipline.
//   - Results are JSON-marshalable structs with deterministic field
//     and element order: identical requests yield identical bytes,
//     which is what makes them cacheable under the server's
//     content-hash/ETag regime.
//   - Errors are structured: parameter problems are cli.UsageError
//     (exit 2, HTTP 400), missing functions/blocks match ErrNotFound
//     or wppfile.ErrNoFunction (HTTP 404), and decode failures keep
//     their encoding.Error codes (exits 3–5, HTTP 422) — a pass never
//     surfaces hostile input as an internal fault.
package passes

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"twpp/internal/cfg"
	"twpp/internal/cli"
	"twpp/internal/wppfile"
)

// ErrUnknown matches (errors.Is) Run with a pass name that is not
// registered.
var ErrUnknown = errors.New("unknown analysis pass")

// ErrNotFound matches (errors.Is) lookups of entities absent from the
// container's content — a block that never executes, for example — as
// opposed to malformed parameters (usage) or damaged bytes (decode
// errors). Serving layers map it to 404.
var ErrNotFound = errors.New("not found")

// Params carries one analysis invocation's parameters: the raw
// key→value map (query-string or CLI flags, uniformly strings) plus
// the source label embedded in results so every surface reports where
// the answer came from (the mount name over HTTP, the input path in a
// CLI).
type Params struct {
	// Source labels the analyzed container in results (the JSON "file"
	// field).
	Source string
	// Values holds the raw parameters. A nil map reads as empty.
	Values map[string]string
}

// Get returns the raw value for key ("" when absent).
func (p Params) Get(key string) string { return p.Values[key] }

// Int parses an integer parameter, returning def when absent and a
// usage error when malformed.
func (p Params) Int(key string, def int) (int, error) {
	s, ok := p.Values[key]
	if !ok || s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, cli.Usagef("bad %s %q", key, s)
	}
	return v, nil
}

// Blocks parses a comma-separated block-id set parameter (empty when
// absent).
func (p Params) Blocks(key string) (map[cfg.BlockID]bool, error) {
	out := map[cfg.BlockID]bool{}
	s := p.Values[key]
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, cli.Usagef("bad block id %q in %s", part, key)
		}
		out[cfg.BlockID(v)] = true
	}
	return out, nil
}

// Func parses the required "func" parameter as a function id.
func (p Params) Func() (cfg.FuncID, error) {
	v, err := p.Int("func", -1)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, cli.Usagef("missing func parameter")
	}
	return cfg.FuncID(v), nil
}

// ParamDoc documents one parameter of a pass for the discovery
// endpoint and generic clients.
type ParamDoc struct {
	// Name is the parameter key ("func", "trace", "k", ...).
	Name string `json:"name"`
	// Kind is the value syntax: "int" or "blocks" (comma-separated ids).
	Kind string `json:"kind"`
	// Required marks parameters without a usable default.
	Required bool `json:"required"`
	// Doc is a one-line description.
	Doc string `json:"doc"`
}

// Pass is one registered analysis: metadata plus the single execution
// entry point every surface dispatches through.
type Pass struct {
	// Name is the registry key and the {pass} segment of the generic
	// analyze endpoint.
	Name string
	// Summary is a one-line description for discovery.
	Summary string
	// Route, when non-empty, is the dedicated HTTP route pattern the
	// server additionally registers for the pass (relative to the mount
	// root, e.g. "/trace/{fn}"; a {fn} segment maps to the "func"
	// parameter). Analyze-only passes leave it empty.
	Route string
	// Params documents the accepted parameters.
	Params []ParamDoc
	// Run executes the pass. The result must be a JSON-marshalable
	// struct with deterministic order, fully owned by the caller (it
	// must not alias pooled extraction buffers).
	Run func(ctx context.Context, c wppfile.Container, p Params) (any, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]*Pass{}
)

// Register adds a pass to the registry. It panics on an empty or
// duplicate name or a nil Run — registration bugs are programmer
// errors caught at init.
func Register(p *Pass) {
	if p == nil || p.Name == "" || p.Run == nil {
		panic("passes: Register needs a name and a Run func")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[p.Name]; ok {
		panic("passes: duplicate pass " + p.Name)
	}
	registry[p.Name] = p
}

// Get resolves a pass by name.
func Get(name string) (*Pass, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	return p, ok
}

// Names lists registered pass names in lexical order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All lists registered passes in lexical name order.
func All() []*Pass {
	names := Names()
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Pass, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// Info is the discovery form of a pass.
type Info struct {
	Name    string     `json:"name"`
	Summary string     `json:"summary"`
	Route   string     `json:"route,omitempty"`
	Params  []ParamDoc `json:"params"`
}

// Infos lists every registered pass's discovery record, in lexical
// name order. Params is never nil, so the JSON form is deterministic.
func Infos() []Info {
	all := All()
	out := make([]Info, len(all))
	for i, p := range all {
		params := p.Params
		if params == nil {
			params = []ParamDoc{}
		}
		out[i] = Info{Name: p.Name, Summary: p.Summary, Route: p.Route, Params: params}
	}
	return out
}

// Run executes the named pass against c. Unknown names match
// ErrUnknown (and ErrNotFound, so serving layers answer 404 without a
// special case). A parameter that none of the pass's ParamDocs names
// is a usage error naming the lexically first such key, so a
// misspelled parameter is never silently ignored.
func Run(ctx context.Context, name string, c wppfile.Container, p Params) (any, error) {
	pass, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("passes: no analysis pass %q: %w", name, errors.Join(ErrUnknown, ErrNotFound))
	}
	unknown := ""
	for key := range p.Values {
		if (unknown == "" || key < unknown) && !slices.ContainsFunc(pass.Params, func(d ParamDoc) bool { return d.Name == key }) {
			unknown = key
		}
	}
	if unknown != "" {
		return nil, cli.Usagef("unknown parameter %q for analysis pass %s", unknown, name)
	}
	return pass.Run(ctx, c, p)
}

// funcName resolves fn's display name from the container's name table,
// with the same "func%d" fallback every surface uses.
func funcName(c wppfile.Container, fn cfg.FuncID) string {
	if names := c.Names(); int(fn) < len(names) && fn >= 0 {
		return names[fn]
	}
	return fmt.Sprintf("func%d", fn)
}
