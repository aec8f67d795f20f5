package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twpp/internal/bench"
	"twpp/internal/core"
	"twpp/internal/passes"
	"twpp/internal/segment"
	"twpp/internal/server"
	"twpp/internal/storage"
	"twpp/internal/wpp"
	"twpp/internal/wppfile"
)

const serveClients = 2

// plane serves a handler on a loopback listener.
type plane struct {
	hs   *http.Server
	base string
	done chan error
}

func startPlane(h http.Handler) (*plane, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &plane{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { p.done <- p.hs.Serve(ln) }()
	return p, nil
}

// close stops the listener and every connection, and waits for Serve
// to return.
func (p *plane) close() error {
	err := p.hs.Close()
	if serr := <-p.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client is one keep-alive HTTP connection.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		Proxy: nil, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

// get fetches url; the body aliases the client's buffer until the next
// call. Any status but 2xx and 304 is an error.
func (c *client) get(url string) ([]byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if (resp.StatusCode < 200 || resp.StatusCode > 299) && resp.StatusCode != http.StatusNotModified {
		return nil, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// scrape reads the server's /metrics.
func (c *client) scrape(base string) (map[string]float64, error) {
	body, err := c.get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	return promSample(bytes.NewReader(body))
}

// request is one query URI and the pass invocation it maps to.
type request struct {
	path  string
	class string // the pass name
	vals  map[string]string
}

// expected renders what the server must answer for r: the in-process
// passes.Run result marshaled the way the server marshals it (the
// comparison testkit.CheckAnalyzeParity makes).
func expected(ctx context.Context, cont wppfile.Container, mount string, r request) ([]byte, error) {
	res, err := passes.Run(ctx, r.class, cont, passes.Params{Source: mount, Values: r.vals})
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// serveBench is serve-hot or serve-mixed: an in-process server.Server
// built as twpp-serve builds it, two keep-alive clients, and a
// per-client request sequence fixed by the seed.
type serveBench struct {
	c       *config
	dir     string
	mixed   bool
	srv     *server.Server
	pl      *plane
	cont    wppfile.Container // the same content, opened in-process
	v2path  string            // the content as one v2 file
	raw     int
	stored  int64
	reqs    []request
	seqs    [][]int // per-client request order, cycled
	clients []*client
	// Bodies of the checked requests, captured the first time each is
	// served inside the window.
	checkIdx []int
	mu       sync.Mutex
	bodies   map[int][]byte
	before   map[string]float64
	after    map[string]float64
}

const mountName = "gcc"

func setupServeHot(c *config, dir string) (runner, error)   { return setupServe(c, dir, false) }
func setupServeMixed(c *config, dir string) (runner, error) { return setupServe(c, dir, true) }

func setupServe(c *config, dir string, mixed bool) (_ runner, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p, err := bench.ProfileByName("126.gcc")
	if err != nil {
		return nil, err
	}
	w, err := genProfile(p, c.sz.serveScale)
	if err != nil {
		return nil, err
	}
	cp, _ := wpp.CompactWorkers(w, 0)
	tw := core.FromCompactedWorkers(cp, 0)
	b := &serveBench{c: c, dir: dir, mixed: mixed, raw: rawBytes(w), bodies: map[int][]byte{}}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	b.v2path = filepath.Join(dir, mountName+".twpp")
	if err := wppfile.WriteCompactedFormat(b.v2path, tw, 0, wppfile.FormatV2); err != nil {
		return nil, err
	}
	path := b.v2path
	if mixed {
		path = filepath.Join(dir, mountName+".twppd")
		if _, err := segment.Write(path, tw, segment.WriteOptions{Segments: c.sz.segments}); err != nil {
			return nil, err
		}
		b.cont, err = segment.Open(path, wppfile.OpenOptions{})
	} else {
		b.cont, err = wppfile.OpenCompactedOptions(path, wppfile.OpenOptions{})
	}
	if err != nil {
		return nil, err
	}
	if b.stored, err = storedBytes(path); err != nil {
		return nil, err
	}

	b.srv = server.New(server.Options{})
	if err := b.srv.Mount(mountName, path); err != nil {
		return nil, err
	}
	if b.pl, err = startPlane(b.srv.Handler()); err != nil {
		return nil, err
	}
	for i := 0; i < serveClients; i++ {
		b.clients = append(b.clients, newClient())
	}

	rng := rand.New(rand.NewSource(c.seed))
	var warm [][]int
	if mixed {
		if err := b.mixedRequests(rng); err != nil {
			return nil, err
		}
		// The warm-up draws from the same distribution as the window,
		// from its own stream.
		for i := 0; i < serveClients; i++ {
			warm = append(warm, b.zipfSeq(rng, c.sz.warmReqs))
			b.seqs = append(b.seqs, b.zipfSeq(rng, 1<<15))
		}
	} else {
		fns := b.cont.Functions()
		for _, fn := range fns[:min(len(fns), c.sz.hotFuncs)] {
			v := map[string]string{"func": fmt.Sprint(int(fn))}
			b.reqs = append(b.reqs,
				request{fmt.Sprintf("/v1/%s/stats/%d", mountName, fn), "stats", v},
				request{fmt.Sprintf("/v1/%s/trace/%d", mountName, fn), "trace", v})
		}
		for i := 0; i < serveClients; i++ {
			all := make([]int, len(b.reqs))
			for j := range all {
				all[j] = j
			}
			warm = append(warm, all)
			b.seqs = append(b.seqs, rng.Perm(len(b.reqs)))
		}
	}
	// Checked requests: drawn from client 0's first requests, which
	// every window serves.
	head := b.seqs[0][:min(len(b.seqs[0]), 64)]
	for _, j := range rng.Perm(len(head))[:min(len(head), 16)] {
		b.checkIdx = append(b.checkIdx, head[j])
	}
	for ci, seq := range warm {
		for j := 0; j < max(len(seq), c.sz.warmReqs); j++ {
			if _, err := b.clients[ci].get(b.pl.base + b.reqs[seq[j%len(seq)]].path); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return b, nil
}

// mixedRequests builds serve-mixed's URI population: for every
// function, stats and per-trace trace/cfg requests, seeded GEN-KILL
// queries over blocks that execute in the queried trace, and kpaths
// windows of 1 to 3 iterations.
func (b *serveBench) mixedRequests(rng *rand.Rand) error {
	m := mountName
	for _, fn := range b.cont.Functions() {
		ft, err := b.cont.ExtractFunction(fn)
		if err != nil {
			return err
		}
		f := fmt.Sprint(int(fn))
		add := func(path, class string, vals map[string]string) {
			vals["func"] = f
			b.reqs = append(b.reqs, request{path, class, vals})
		}
		add(fmt.Sprintf("/v1/%s/stats/%s", m, f), "stats", map[string]string{})
		for t := 0; t < min(len(ft.Traces), 8); t++ {
			add(fmt.Sprintf("/v1/%s/trace/%s?trace=%d", m, f, t), "trace", map[string]string{"trace": fmt.Sprint(t)})
			add(fmt.Sprintf("/v1/%s/cfg/%s?trace=%d", m, f, t), "cfg", map[string]string{"trace": fmt.Sprint(t)})
		}
		for q := 0; q < 12; q++ {
			t := rng.Intn(len(ft.Traces))
			blocks := ft.Traces[t].Blocks
			if len(blocks) == 0 {
				continue
			}
			pick := func() string { return fmt.Sprint(int(blocks[rng.Intn(len(blocks))].Block)) }
			vals := map[string]string{"trace": fmt.Sprint(t), "block": pick(), "gen": pick(), "kill": pick()}
			add(fmt.Sprintf("/v1/%s/query?block=%s&func=%s&gen=%s&kill=%s&trace=%d", m, vals["block"], f, vals["gen"], vals["kill"], t),
				"query", vals)
		}
		for k := 1; k <= 3; k++ {
			for _, top := range []int{5, 10, 20} {
				add(fmt.Sprintf("/v1/%s/analyze/kpaths?func=%s&k=%d&top=%d", m, f, k, top), "kpaths",
					map[string]string{"k": fmt.Sprint(k), "top": fmt.Sprint(top)})
			}
		}
	}
	return nil
}

// mixWeights is serve-mixed's pass mix, in percent. It keeps p50 inside
// the cheap passes' response-cache misses (stats, trace, cfg, query)
// and p90 inside the kpaths misses, the only expensive pass, away from
// the boundaries between them; README.md records the measured shares.
var mixWeights = []struct {
	class  string
	weight int
}{{"stats", 30}, {"trace", 20}, {"cfg", 10}, {"query", 10}, {"kpaths", 30}}

// zipfS and zipfV shape serve-mixed's function popularity: P(rank k)
// ∝ (zipfV+k)^-zipfS, hottest first. With zipfV = 1 the head is so hot
// that about half the requests hit the response cache, which puts p50
// on the boundary between hits and misses; zipfV = 8 flattens the head
// until about 30% hit, so p50 sits among the cheap misses.
const (
	zipfS = 1.1
	zipfV = 8
)

// zipfSeq draws n requests: a function by a Zipf law over the
// hottest-first function list, a pass by mixWeights, then one of that
// function's requests of the pass uniformly.
func (b *serveBench) zipfSeq(rng *rand.Rand, n int) []int {
	fns := b.cont.Functions()
	byKey := map[string][]int{}
	for i, r := range b.reqs {
		k := r.vals["func"] + "/" + r.class
		byKey[k] = append(byKey[k], i)
	}
	z := rand.NewZipf(rng, zipfS, zipfV, uint64(len(fns)-1))
	seq := make([]int, 0, n)
	for len(seq) < n {
		fn := fns[z.Uint64()]
		x := rng.Intn(100)
		class := mixWeights[len(mixWeights)-1].class
		for _, w := range mixWeights {
			if x < w.weight {
				class = w.class
				break
			}
			x -= w.weight
		}
		cands := byKey[fmt.Sprint(int(fn))+"/"+class]
		if len(cands) == 0 {
			continue
		}
		seq = append(seq, cands[rng.Intn(len(cands))])
	}
	return seq
}

func (b *serveBench) run(tr *tracer, d time.Duration) *window {
	var err error
	if b.before, err = b.clients[0].scrape(b.pl.base); err != nil {
		w := &window{}
		w.fail(err)
		return w
	}
	checked := map[int]bool{}
	for _, i := range b.checkIdx {
		checked[i] = true
	}
	var captured atomic.Int32
	w := closedLoop(serveClients, d, 0, func(c, i int) error {
		seq := b.seqs[c]
		ri := seq[i%len(seq)]
		id := tr.op()
		sp := tr.begin(id, -1, "http.get")
		body, err := b.clients[c].get(b.pl.base + b.reqs[ri].path)
		tr.end(sp)
		if err != nil {
			return err
		}
		if checked[ri] && int(captured.Load()) < len(b.checkIdx) {
			b.mu.Lock()
			if _, ok := b.bodies[ri]; !ok {
				b.bodies[ri] = append([]byte(nil), body...)
				captured.Add(1)
			}
			b.mu.Unlock()
		}
		return nil
	})
	w.reads = w.lat
	if b.after, err = b.clients[0].scrape(b.pl.base); err != nil {
		w.fail(err)
	}
	return w
}

// check compares the bodies served inside the window with in-process
// passes.Run on the same content.
func (b *serveBench) check(w *window) {
	if b.mixed {
		b.classReport(w)
	}
	for _, i := range b.checkIdx {
		b.mu.Lock()
		got, ok := b.bodies[i]
		b.mu.Unlock()
		if !ok {
			continue // not served in this (short) window
		}
		want, err := expected(context.Background(), b.cont, mountName, b.reqs[i])
		if err != nil {
			w.fail(fmt.Errorf("%s: in-process: %w", b.reqs[i].path, err))
			continue
		}
		if !bytes.Equal(got, want) {
			w.fail(fmt.Errorf("%s: served %d bytes differ from in-process passes.Run (%d bytes)", b.reqs[i].path, len(got), len(want)))
		}
	}
}

func (b *serveBench) factor() float64 { return float64(b.raw) / float64(b.stored) }

// delta is how much a /metrics counter grew across the last window.
func (b *serveBench) delta(name string) float64 { return b.after[name] - b.before[name] }

// hitRatios are the response and decode caches' hit ratios over the
// last window.
func (b *serveBench) hitRatios() (resp, decode float64) {
	return ratio(b.delta("twpp_respcache_hits_total"), b.delta("twpp_respcache_misses_total")),
		ratio(b.delta("twpp_cache_hits_total"), b.delta("twpp_cache_misses_total"))
}

func (b *serveBench) layers(tr *tracer, w *window, m metrics) error {
	resp, decode := b.hitRatios()
	ops := float64(max(w.ops, 1))
	prefix := "serve-hot."
	if b.mixed {
		prefix = "serve-mixed."
	}
	m.set(prefix+"server.respcache_hit_ratio", "ratio", resp)
	if !b.mixed {
		handler, err := b.handlerTimes(tr)
		if err != nil {
			return err
		}
		m.set(prefix+"server.handler_us", "us", handler)
		m.set(prefix+"http.loopback_us", "us", durQuantile(w.lat, 0.5, time.Microsecond)-handler)
		m.set(prefix+"runtime.alloc_kb_per_req", "KB", float64(w.after.TotalAlloc-w.before.TotalAlloc)/1024/ops)
		return nil
	}
	m.set(prefix+"wppfile.decode_cache_hit_ratio", "ratio", decode)
	m.set(prefix+"wppfile.decode_kb_per_req", "KB", b.delta("twpp_decode_bytes_total")/1024/ops)
	if err := b.passTimes(tr, m, prefix); err != nil {
		return err
	}
	return b.storageReads(m, prefix)
}

// discard is a minimal http.ResponseWriter for in-process handler
// timing.
type discard struct {
	h      http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(s int)           { d.status = s }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }

// handlerTimes calls Server.Handler().ServeHTTP in-process, with no
// socket, over client 0's request order; it returns the median in µs.
func (b *serveBench) handlerTimes(tr *tracer) (float64, error) {
	h := b.srv.Handler()
	var ds []time.Duration
	seq := b.seqs[0]
	for i := 0; i < b.c.sz.layerReps*len(seq); i++ {
		r := httptest.NewRequest(http.MethodGet, b.reqs[seq[i%len(seq)]].path, nil)
		out := &discard{h: http.Header{}}
		id := tr.op()
		ds = append(ds, tr.timed(id, -1, "server.handler", func() { h.ServeHTTP(out, r) }))
		if out.status != 0 && out.status != http.StatusOK {
			return 0, fmt.Errorf("in-process %s: status %d", r.URL, out.status)
		}
	}
	return durQuantile(ds, 0.5, time.Microsecond), nil
}

// passTimes replays client 0's first requests in-process: passes.Extract
// on the mounted Set, passes.Run per pass, and the JSON marshal.
func (b *serveBench) passTimes(tr *tracer, m metrics, prefix string) error {
	ctx := context.Background()
	seq := b.seqs[0][:min(len(b.seqs[0]), b.c.sz.layerReps*25)]
	byClass := map[string][]time.Duration{}
	var extract, marshal []time.Duration
	for _, ri := range seq {
		r := b.reqs[ri]
		fn, _ := passes.Params{Values: r.vals}.Func()
		id := tr.op()
		root := tr.begin(id, -1, "request")
		var err error
		extract = append(extract, tr.timed(id, root, "segment.extract", func() {
			var release func()
			if _, release, err = passes.Extract(ctx, b.cont, fn); err == nil {
				release()
			}
		}))
		if err != nil {
			tr.end(root)
			return fmt.Errorf("extract f%d: %w", fn, err)
		}
		var res any
		byClass[r.class] = append(byClass[r.class], tr.timed(id, root, "passes."+r.class, func() {
			res, err = passes.Run(ctx, r.class, b.cont, passes.Params{Source: mountName, Values: r.vals})
		}))
		if err != nil {
			tr.end(root)
			return fmt.Errorf("%s: %w", r.path, err)
		}
		marshal = append(marshal, tr.timed(id, root, "server.marshal", func() { _, err = json.MarshalIndent(res, "", "  ") }))
		tr.end(root)
		if err != nil {
			return err
		}
	}
	m.set(prefix+"segment.extract_us", "us", durQuantile(extract, 0.5, time.Microsecond))
	m.set(prefix+"server.marshal_us", "us", durQuantile(marshal, 0.5, time.Microsecond))
	classes := make([]string, 0, len(mixWeights))
	for _, w := range mixWeights {
		classes = append(classes, w.class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		m.set(prefix+"passes."+class+"_us", "us", durQuantile(byClass[class], 0.5, time.Microsecond))
	}
	return nil
}

// countingBackend counts the reads a container makes of its storage.
type countingBackend struct {
	storage.Backend
	reads, bytes atomic.Int64
}

func (c *countingBackend) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	c.bytes.Add(int64(len(p)))
	return c.Backend.ReadAt(p, off)
}

// storageReads counts storage reads per pooled extraction over client
// 0's request functions, with the content opened as one v2 file.
func (b *serveBench) storageReads(m metrics, prefix string) error {
	fb, err := storage.OpenFile(b.v2path)
	if err != nil {
		return err
	}
	cb := &countingBackend{Backend: fb}
	cf, err := wppfile.OpenCompactedBackend(cb, wppfile.OpenOptions{})
	if err != nil {
		fb.Close()
		return err
	}
	defer cf.Close()
	cb.reads.Store(0)
	cb.bytes.Store(0)
	seq := b.seqs[0][:min(len(b.seqs[0]), b.c.sz.layerReps*25)]
	buf := wppfile.GetExtractBuffer()
	defer wppfile.PutExtractBuffer(buf)
	for _, ri := range seq {
		fn, _ := passes.Params{Values: b.reqs[ri].vals}.Func()
		if _, err := cf.ExtractFunctionInto(fn, buf); err != nil {
			return err
		}
	}
	n := float64(len(seq))
	m.set(prefix+"storage.reads_per_extract", "count", float64(cb.reads.Load())/n)
	m.set(prefix+"storage.read_kb_per_extract", "KB", float64(cb.bytes.Load())/1024/n)
	return nil
}

// classReport prints, per pass, its share of the window's requests and
// its latency quantiles, then which passes the requests around the
// overall p50 and p90 belong to: a percentile that sits inside one
// class does not swing when the mix moves slightly.
func (b *serveBench) classReport(w *window) {
	type op struct {
		class string
		d     time.Duration
	}
	var ops []op
	byClass := map[string][]time.Duration{}
	for c, ss := range w.byClient {
		for _, s := range ss {
			class := b.reqs[b.seqs[c][s.i%len(b.seqs[c])]].class
			ops = append(ops, op{class, s.dur})
			byClass[class] = append(byClass[class], s.dur)
		}
	}
	if len(ops) == 0 {
		return
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].d < ops[j].d })
	log := b.c.log
	resp, decode := b.hitRatios()
	fmt.Fprintf(log, "serve-mixed cache hit ratios: response %.3f, decode %.3f\n", resp, decode)
	fmt.Fprintf(log, "serve-mixed pass mix: pass share%% p50_ms p90_ms\n")
	for _, mw := range mixWeights {
		ds := byClass[mw.class]
		fmt.Fprintf(log, "  %-7s %6.2f %9.4f %9.4f\n", mw.class, 100*float64(len(ds))/float64(len(ops)),
			durQuantile(ds, 0.5, time.Millisecond), durQuantile(ds, 0.9, time.Millisecond))
	}
	for _, q := range []float64{0.5, 0.9} {
		lo, hi := int(float64(len(ops))*(q-0.025)), int(float64(len(ops))*(q+0.025))
		near := map[string]int{}
		for _, o := range ops[lo:hi] {
			near[o.class]++
		}
		fmt.Fprintf(log, "  around p%.0f (%.4f ms):", 100*q, ops[int(q*float64(len(ops)-1))].d.Seconds()*1000)
		for _, mw := range mixWeights {
			fmt.Fprintf(log, " %s %.0f%%", mw.class, 100*float64(near[mw.class])/float64(max(hi-lo, 1)))
		}
		fmt.Fprintln(log)
	}
}

func (b *serveBench) close() error {
	var errs []error
	for _, c := range b.clients {
		c.close()
	}
	if b.pl != nil {
		errs = append(errs, b.pl.close())
	}
	if b.srv != nil {
		errs = append(errs, b.srv.Close())
	}
	if b.cont != nil {
		errs = append(errs, b.cont.Close())
	}
	errs = append(errs, os.RemoveAll(b.dir))
	return errors.Join(errs...)
}

// storedBytes is the size of a container file, or the sum of every file
// in a container directory (segments plus manifest).
func storedBytes(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if !st.IsDir() {
		return st.Size(), nil
	}
	ents, err := os.ReadDir(path)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
