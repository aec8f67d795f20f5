package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. A
// nil *tracer records nothing, so untraced windows pay one nil check
// per span. Spans stay in memory until write; self time is computed
// from the recorded intervals, never from inside the program.
type tracer struct {
	base   time.Time
	nextOp atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

// span is one timed layer call. Spans of one op share op; parent is
// the index of the enclosing span, or -1 for an op's root.
type span struct {
	Op     uint64 `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

// op allocates a fresh op id (0 on a nil tracer).
func (t *tracer) op() uint64 {
	if t == nil {
		return 0
	}
	return t.nextOp.Add(1)
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(op uint64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(op uint64, parent int, name string, f func()) time.Duration {
	id := t.begin(op, parent, name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return d
}

// spanStats aggregates the closed spans of one name.
type spanStats struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50US   float64 `json:"p50_us"`
}

// selfTimes returns each closed span's self time: its duration minus
// the part of its interval that its children cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, reach := int64(0), s.Start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// summary aggregates spans by name, sorted by name.
func (t *tracer) summary() []spanStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	by := map[string]*spanStats{}
	durs := map[string][]float64{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		st := by[s.Name]
		if st == nil {
			st = &spanStats{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.TotalMS += float64(s.End-s.Start) / 1e6
		st.SelfMS += float64(self[i]) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
	}
	out := make([]spanStats, 0, len(by))
	for name, st := range by {
		st.P50US = median(durs[name])
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write saves every span as one JSON line in path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary writes the per-name span table.
func printSummary(w io.Writer, title string, st []spanStats) {
	fmt.Fprintf(w, "spans (%s): name count total_ms self_ms p50_us\n", title)
	for _, s := range st {
		fmt.Fprintf(w, "  %-24s %7d %10.1f %10.1f %10.1f\n", s.Name, s.Count, s.TotalMS, s.SelfMS, s.P50US)
	}
}
