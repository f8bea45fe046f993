package serve

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
)

// Epoch-keyed query cache with request collapsing.
//
// Query results are pure functions of (epoch, endpoint, canonicalized
// parameters): snapshots are immutable and every algorithm run is
// deterministic for a fixed server config. The cache exploits that in
// three layers, outermost first:
//
//  1. ETag / If-None-Match: the ETag of a GET response is derived from the
//     key alone, so an unchanged-epoch poll is answered 304 with no body
//     and no graph work — before the cache is even consulted.
//  2. Result cache: rendered response bodies are kept in an LRU bounded by
//     total byte size and served verbatim — byte-identical replays,
//     epoch-keyed so a mutation (new epoch) invalidates implicitly; a
//     prior epoch's entry can never be returned because the lookup key
//     always carries the current epoch.
//  3. Singleflight: concurrent identical misses collapse onto one
//     in-flight computation; followers wait and replay the leader's bytes
//     instead of burning worker-pool slots on duplicate work.
//
// Entries are only stored when the epoch was stable across the
// computation (checked by the caller), so a cached body always matches
// the epoch in its key. Since lookups only ever use the current epoch, a
// past epoch's entries are dead weight: the first store at a newer epoch
// drops them, and a body older than the newest stored epoch is not kept.

type cacheKey struct {
	epoch  uint64
	path   string
	params string
}

// etag derives the deterministic entity tag for the key. boot is a
// per-server-instance nonce: epochs restart from the initial graph on
// every boot, so without it a tag from a previous run (different graph,
// same epoch) could match and 304 a client into keeping stale bytes. It
// is a strong validator: two resources with this tag are byte-identical
// whenever they were produced by the same instance at the same epoch with
// the same parameters.
func (k cacheKey) etag(boot uint64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s?%s", boot, k.path, k.params)
	return fmt.Sprintf("\"e%d-%016x\"", k.epoch, h.Sum64())
}

// canonicalParams renders query parameters in a canonical order so
// ?a=1&b=2 and ?b=2&a=1 share a cache entry. Keys and values are
// re-escaped: they arrive decoded, and joining them raw would collide
// distinct requests (e.g. a value containing a literal "&k=v") onto one
// key.
func canonicalParams(q url.Values) string {
	if len(q) == 0 {
		return ""
	}
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		// Values of a repeated key keep their request order: handlers read
		// the first value (url.Values.Get), so ?src=1&src=2 and
		// ?src=2&src=1 are different requests and must not share a key.
		for _, v := range q[k] {
			if b.Len() > 0 {
				b.WriteByte('&')
			}
			b.WriteString(url.QueryEscape(k))
			b.WriteByte('=')
			b.WriteString(url.QueryEscape(v))
		}
	}
	return b.String()
}

type cacheEntry struct {
	key  cacheKey
	body []byte
	elem *list.Element
}

// flight is one in-progress computation; followers block on done and then
// replay the leader's recorded response.
type flight struct {
	done   chan struct{}
	status int
	body   []byte
	header http.Header
	cached bool // leader stored the body (epoch-stable 200)
}

// CacheStats is the counter snapshot exported under /stats.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Collapsed uint64 `json:"collapsed"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
}

type queryCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[cacheKey]*cacheEntry
	lru      list.List // front = most recent; values are *cacheEntry
	flights  map[cacheKey]*flight
	epoch    uint64 // newest epoch stored; every entry has it

	hits, misses, collapsed, evictions uint64
}

func newQueryCache(maxBytes int64) *queryCache {
	return &queryCache{
		maxBytes: maxBytes,
		entries:  make(map[cacheKey]*cacheEntry),
		flights:  make(map[cacheKey]*flight),
	}
}

// acquire resolves key in one critical section: a cached body (hit), an
// existing in-flight computation to wait on (collapsed), or a freshly
// created flight the caller must lead (miss). Checking the entry map and
// the flight map under one lock is what makes "N concurrent identical
// queries → exactly one computation" airtight: a leader stores the entry
// before retiring its flight, so every interleaving of a second request
// sees either the flight or the entry — hits+collapsed+misses partitions
// the GETs and misses equals started computations.
func (c *queryCache) acquire(key cacheKey) (body []byte, f *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		return e.body, nil, false
	}
	if f, ok := c.flights[key]; ok {
		c.collapsed++
		return nil, f, false
	}
	c.misses++
	f = &flight{done: make(chan struct{})}
	c.flights[key] = f
	return nil, f, true
}

// store inserts a body and evicts LRU entries past the byte bound. Bodies
// larger than the whole cache are not stored, nor are bodies of an epoch
// older than the newest stored one; a store at a newer epoch evicts every
// older entry first.
func (c *queryCache) store(key cacheKey, body []byte) {
	size := int64(len(body))
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if key.epoch < c.epoch {
		return
	}
	if key.epoch > c.epoch {
		for c.lru.Len() > 0 {
			c.evictTail()
		}
		c.epoch = key.epoch
	}
	if _, ok := c.entries[key]; ok {
		return // a concurrent leader of the same key beat us; keep theirs
	}
	e := &cacheEntry{key: key, body: body}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += size
	for c.bytes > c.maxBytes {
		c.evictTail()
	}
}

// evictTail drops the least recently used entry; the caller holds mu.
func (c *queryCache) evictTail() {
	tail := c.lru.Back()
	old := tail.Value.(*cacheEntry)
	c.lru.Remove(tail)
	delete(c.entries, old.key)
	c.bytes -= int64(len(old.body))
	c.evictions++
}

// finish retires key's flight. The leader populates the flight's
// status/body and closes done before calling; followers woken by the
// close replay those fields.
func (c *queryCache) finish(key cacheKey) {
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
}

func (c *queryCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Collapsed: c.collapsed,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
	}
}

// bodyRecorder captures a handler's response for replay and caching.
type bodyRecorder struct {
	header http.Header
	status int
	body   []byte
}

func newBodyRecorder() *bodyRecorder {
	return &bodyRecorder{header: make(http.Header), status: http.StatusOK}
}

func (r *bodyRecorder) Header() http.Header { return r.header }

func (r *bodyRecorder) WriteHeader(status int) { r.status = status }

func (r *bodyRecorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}
