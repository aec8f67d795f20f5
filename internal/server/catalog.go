package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"twpp/internal/cfg"
	"twpp/internal/obs"
	"twpp/internal/segment"
	"twpp/internal/wppfile"
)

// Catalog maps mount names to opened containers and carries the
// per-mount serving metrics. It is the routing table behind the
// /v1/{mount}/... path namespace: the server resolves a request to a
// *Mount here, then serves entirely from that mount's container.
//
// Mounting IS safe concurrent with serving — the map is lock-guarded
// and metric registration is registry-guarded — which is what lets a
// colocated ingest server add mounts as first sessions seal (see
// Ensure in refresh.go). A mounted container's CONTENT may also
// change while requests are in flight: a segmented mount's background
// merger swaps manifest generations underneath the server, and
// Refresh picks up generations written by another process. The
// container handles that atomically on its side; the catalog's part of
// the contract is that nothing here caches derived state — ETags are
// computed from the live content hash per request, so a swap
// invalidates caches on the next request rather than serving a mix.
type Catalog struct {
	mu     sync.RWMutex
	mounts map[string]*Mount
	order  []string

	open         wppfile.OpenOptions
	cacheEntries int
	reg          *obs.Registry
	// chain, when non-nil, also receives every mount's decode events
	// (the server's aggregate cache/decode counters).
	chain *wppfile.Instrument
}

// CatalogOptions configures NewCatalog.
type CatalogOptions struct {
	// Open carries the decode limits, backend selection, and checksum
	// policy applied to every mounted file. CacheEntries and
	// Instrument on it are overridden per mount.
	Open wppfile.OpenOptions
	// CacheEntries sizes each mount's decode cache.
	CacheEntries int
	// Registry, when non-nil, receives per-mount request/cache/decode
	// counters (metric names embed the sanitized mount name).
	Registry *obs.Registry
	// Instrument, when non-nil, additionally receives every mount's
	// decode events — the hook for aggregate (cross-mount) metrics.
	Instrument *wppfile.Instrument
}

// Mount is one named, opened container (a single compacted file or a
// segmented directory) plus its metrics handles.
type Mount struct {
	name string
	path string
	file wppfile.Container

	mRequests    *obs.Counter
	mErrors      *obs.Counter
	mCacheHits   *obs.Counter
	mCacheMisses *obs.Counter
	mDecodeBytes *obs.Counter
	mRespHits    *obs.Counter
	mRespMisses  *obs.Counter
	mResp304     *obs.Counter
}

// Name returns the mount's name.
func (m *Mount) Name() string { return m.name }

// Path returns the file path the mount was opened from.
func (m *Mount) Path() string { return m.path }

// File returns the mount's opened container.
func (m *Mount) File() wppfile.Container { return m.file }

// ETag returns the mount's current entity tag, or "" for containers
// without a content hash (v1). It is derived from the live content
// hash on every call: for a segmented mount the tag changes the moment
// a background merge swaps in a new manifest generation, which is what
// invalidates If-None-Match revalidation and the response cache.
func (m *Mount) ETag() string {
	if hash, ok := m.file.ContentHash(); ok {
		return `"` + strconv.FormatUint(hash, 16) + `"`
	}
	return ""
}

// NewCatalog builds an empty catalog.
func NewCatalog(opts CatalogOptions) *Catalog {
	return &Catalog{
		mounts:       make(map[string]*Mount),
		open:         opts.Open,
		cacheEntries: opts.CacheEntries,
		reg:          opts.Registry,
		chain:        opts.Instrument,
	}
}

// metricName sanitizes a mount name for embedding in a Prometheus
// metric name: anything outside [a-zA-Z0-9_] becomes '_'. The obs
// registry has no label support, so per-mount series are distinct
// metric names. Distinct mounts that sanitize identically share a
// series; mount names from file basenames rarely collide.
func metricName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Mount opens path under the given name. The file is opened with the
// catalog's decode limits and backend, its own decode cache, and
// instrumentation feeding both the per-mount counters and the chained
// aggregate instrument.
func (c *Catalog) Mount(name, path string) error {
	if name == "" {
		return fmt.Errorf("server: empty mount name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.mounts[name]; ok {
		return fmt.Errorf("server: mount %q already exists", name)
	}
	m := &Mount{name: name, path: path}
	if c.reg != nil {
		mn := metricName(name)
		m.mRequests = c.reg.Counter("twpp_mount_" + mn + "_requests_total")
		m.mErrors = c.reg.Counter("twpp_mount_" + mn + "_errors_total")
		m.mCacheHits = c.reg.Counter("twpp_mount_" + mn + "_cache_hits_total")
		m.mCacheMisses = c.reg.Counter("twpp_mount_" + mn + "_cache_misses_total")
		m.mDecodeBytes = c.reg.Counter("twpp_mount_" + mn + "_decode_bytes_total")
		m.mRespHits = c.reg.Counter("twpp_mount_" + mn + "_respcache_hits_total")
		m.mRespMisses = c.reg.Counter("twpp_mount_" + mn + "_respcache_misses_total")
		m.mResp304 = c.reg.Counter("twpp_mount_" + mn + "_respcache_304_total")
	}
	o := c.open
	o.CacheEntries = c.cacheEntries
	chain := c.chain
	o.Instrument = &wppfile.Instrument{
		OnDecode: func(fn cfg.FuncID, n int) {
			if m.mCacheMisses != nil {
				m.mCacheMisses.Inc()
				m.mDecodeBytes.Add(uint64(n))
			}
			if chain != nil && chain.OnDecode != nil {
				chain.OnDecode(fn, n)
			}
		},
		OnCacheHit: func(fn cfg.FuncID) {
			if m.mCacheHits != nil {
				m.mCacheHits.Inc()
			}
			if chain != nil && chain.OnCacheHit != nil {
				chain.OnCacheHit(fn)
			}
		},
	}
	var f wppfile.Container
	var err error
	if segment.IsSegmented(path) {
		f, err = segment.Open(path, o)
	} else {
		f, err = wppfile.OpenCompactedOptions(path, o)
	}
	if err != nil {
		return err
	}
	m.file = f
	// Per-mount decode-cache shard visibility: one hits/misses gauge
	// pair per shard, read from the cache's shard-local counters at
	// scrape time.
	if c.reg != nil {
		mn := metricName(name)
		for i := range f.CacheShardStats() {
			i := i
			c.reg.GaugeFunc(fmt.Sprintf("twpp_mount_%s_cache_shard%d_hits", mn, i), func() float64 {
				if st := f.CacheShardStats(); i < len(st) {
					return float64(st[i].Hits)
				}
				return 0
			})
			c.reg.GaugeFunc(fmt.Sprintf("twpp_mount_%s_cache_shard%d_misses", mn, i), func() float64 {
				if st := f.CacheShardStats(); i < len(st) {
					return float64(st[i].Misses)
				}
				return 0
			})
		}
	}
	c.mounts[name] = m
	c.order = append(c.order, name)
	return nil
}

// Get resolves a mount by name.
func (c *Catalog) Get(name string) (*Mount, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.mounts[name]
	if !ok {
		return nil, fmt.Errorf("server: no mount %q: %w", name, errNotFound)
	}
	return m, nil
}

// Names lists mount names in mount order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Len reports the number of mounts.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.order)
}

// Close releases every mounted file, keeping the first error. Mounts
// are closed in sorted-name order so failures report deterministically.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.mounts))
	for n := range c.mounts {
		names = append(names, n)
	}
	sort.Strings(names)
	var first error
	for _, n := range names {
		if err := c.mounts[n].file.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
