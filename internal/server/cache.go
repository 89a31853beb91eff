package server

import (
	"container/list"
	"crypto/sha256"
	"os"
	"sync"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// cacheKey addresses a response by content: SHA-256 over (op, codec,
// level, body) with NUL separators so ("compress","lz77x") and
// ("compressx","lz77") can never collide. Identical bodies through the
// same codec+op+level always map to the same entry regardless of which
// client sent them — the content-addressed sharing that makes the cache a
// realistic stage for cross-request compression side channels (see
// PAPERS.md: Schwarzl et al., Debreach). The level dimension backs the
// Vary: X-Zip-Level HTTP semantics: a level-partitioned entry can never
// be served for a different level.
func cacheKey(op, codecName, level string, body []byte) Key {
	h := sha256.New()
	h.Write([]byte(op))
	h.Write([]byte{0})
	h.Write([]byte(codecName))
	h.Write([]byte{0})
	h.Write([]byte(level))
	h.Write([]byte{0})
	h.Write(body)
	var k Key
	h.Sum(k[:0])
	return k
}

// LRUBackend is a byte-budgeted LRU of codec responses, modeled on the
// MemoryCache of the httpcache reference repo but with strict size
// accounting, obs counters, and end-to-end integrity: every value is
// stored with a SHA-256 that Get verifies on each hit, so a corrupted
// stored response (a flipped bit in "storage", injected via
// internal/fault in chaos runs, or a torn file) is detected and
// re-fetched instead of served — a cache can degrade to a miss but never
// to wrong bytes.
//
// Where the value bytes live is fixed at construction. NewLRUBackend
// keeps them in memory, in the entry itself: the reference CacheBackend
// and the hot tier of the default hierarchy. NewDiskBackend keeps them in
// one file per entry under a directory (disk.go): the cold tier, slower
// and bigger, surviving entry churn above it and process restarts. The
// index, recency order, byte accounting and eviction are the same for
// both.
type LRUBackend struct {
	mu    sync.Mutex
	max   int64      // byte budget for stored values
	size  int64      // current stored bytes
	order *list.List // front = most recently used; values are *cacheEntry
	items map[Key]*list.Element

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	bytes     *obs.Gauge
	entries   *obs.Gauge
	// reg and prefix back the lazily-registered corruption and I/O error
	// counters, so a run that never sees either keeps its metrics
	// snapshot byte-identical to a pre-integrity build.
	reg    *obs.Registry
	prefix string

	// dir is empty for an in-memory store; otherwise values live in
	// files under it, and the two fault points are consulted.
	dir     string
	fpWrite *fault.Point
	fpRead  *fault.Point
}

type cacheEntry struct {
	key Key
	len int64
	// In memory only: the value and its integrity checksum, fixed at put
	// time. A file entry keeps both in its file.
	val []byte
	sum [sha256.Size]byte
}

// NewLRUBackend creates an in-memory cache holding at most maxBytes of
// values, hanging its counters off reg under prefix (e.g. "server.cache"
// → server.cache.hits; the single-backend default keeps the metric names
// every earlier build used). maxBytes <= 0 returns nil (caching
// disabled); note New wraps the nil in a nil CacheBackend interface, not
// a typed nil.
func NewLRUBackend(maxBytes int64, reg *obs.Registry, prefix string) *LRUBackend {
	if maxBytes <= 0 {
		return nil
	}
	return &LRUBackend{
		max:       maxBytes,
		order:     list.New(),
		items:     map[Key]*list.Element{},
		hits:      reg.Counter(prefix + ".hits"),
		misses:    reg.Counter(prefix + ".misses"),
		evictions: reg.Counter(prefix + ".evictions"),
		bytes:     reg.Gauge(prefix + ".bytes"),
		entries:   reg.Gauge(prefix + ".entries"),
		reg:       reg,
		prefix:    prefix,
	}
}

// Name implements CacheBackend.
func (c *LRUBackend) Name() string {
	if c != nil && c.dir != "" {
		return "disk"
	}
	return "lru"
}

// Get returns the cached value and marks the entry most recently used. A
// stored value that fails its integrity check is dropped and counted as a
// corruption plus a miss — the caller recomputes and re-puts. A file that
// cannot be read (ENOENT after external tampering, short file) is dropped
// too and counted as a read error; an injected read fault is a read
// error that keeps the entry. The returned slice is shared; callers must
// not mutate it.
func (c *LRUBackend) Get(key Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	val, sum := ent.val, ent.sum
	if c.dir != "" {
		if in := c.fpRead.Hit(); in.Kind == fault.KindError {
			return c.missLocked(nil, ".read_errors")
		}
		raw, err := os.ReadFile(c.path(key))
		if err != nil || len(raw) < sha256.Size {
			return c.missLocked(el, ".read_errors")
		}
		copy(sum[:], raw)
		val = raw[sha256.Size:]
	}
	if sha256.Sum256(val) != sum {
		return c.missLocked(el, ".corruptions_detected")
	}
	c.order.MoveToFront(el)
	c.hits.Inc()
	return val, true
}

// missLocked drops el (when non-nil), counts the named failure series
// and a miss, and returns Get's miss result. Callers hold c.mu.
func (c *LRUBackend) missLocked(el *list.Element, series string) ([]byte, bool) {
	if el != nil {
		c.removeLocked(el)
	}
	c.reg.Counter(c.prefix + series).Inc()
	c.misses.Inc()
	return nil, false
}

// CorruptStored simulates a storage bit-flip on the entry under key (the
// server.cache.get KindCorrupt fault): the stored value is replaced with a
// corrupted copy while its checksum keeps the original digest, so the next
// Get detects the damage. In-flight responses holding the old slice are
// unaffected (the flip lands in storage, not in buffers already handed
// out). No-op when the key is absent.
func (c *LRUBackend) CorruptStored(key Key, in fault.Injection) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	if c.dir == "" {
		ent := el.Value.(*cacheEntry)
		ent.val = in.CorruptCopy(ent.val)
		return
	}
	raw, err := os.ReadFile(c.path(key))
	if err != nil || len(raw) <= sha256.Size {
		return
	}
	bad := append(raw[:sha256.Size:sha256.Size], in.CorruptCopy(raw[sha256.Size:])...)
	_ = os.WriteFile(c.path(key), bad, 0o644) // a failed write just leaves the entry intact
}

// Put inserts val under key, evicting least-recently-used entries until the
// byte budget holds. Values larger than the whole budget are not cached.
// Re-putting an existing key refreshes its recency and heals its stored
// bytes (the value is correct by construction: the key hashes the full
// input, and a corrupted entry was just recomputed by the caller). A
// failed file write (disk full, injected fault) skips the store — the
// response was already computed, so the degradation is "uncached", never
// "broken".
func (c *LRUBackend) Put(key Key, val []byte) {
	if c == nil || int64(len(val)) > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ent := cacheEntry{key: key, len: int64(len(val))}
	if c.dir == "" {
		ent.val, ent.sum = val, sha256.Sum256(val)
	} else if err := c.writeEntry(key, val); err != nil {
		c.reg.Counter(c.prefix + ".write_errors").Inc()
		return
	}
	c.insertLocked(ent)
}

// insertLocked stores ent as the most recently used entry, replacing any
// entry under the same key, then evicts from the LRU end until the byte
// budget holds. Callers hold c.mu (or own c exclusively).
func (c *LRUBackend) insertLocked(ent cacheEntry) {
	if el, ok := c.items[ent.key]; ok {
		old := el.Value.(*cacheEntry)
		c.size -= old.len
		*old = ent
		c.order.MoveToFront(el)
	} else {
		c.items[ent.key] = c.order.PushFront(&ent)
	}
	c.size += ent.len
	for c.size > c.max {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions.Inc()
	}
	c.bytes.Set(float64(c.size))
	c.entries.Set(float64(len(c.items)))
}

// Stats reports the current entry count and stored bytes (0, 0 for a
// nil/disabled cache) — the health endpoint's view of the cache.
func (c *LRUBackend) Stats() (entries int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.size
}

// Keys returns stored keys most- to least-recently used — the
// deterministic iteration order the conformance suite and snapshot
// tooling rely on.
func (c *LRUBackend) Keys() []Key {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]Key, 0, len(c.items))
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*cacheEntry).key)
	}
	return keys
}

// Close implements CacheBackend. An in-memory store has nothing to
// release. A file store drops its index and deletes the entry files (the
// cache directory is disposable state, usually a temp dir).
func (c *LRUBackend) Close() error {
	if c == nil || c.dir == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for el := c.order.Front(); el != nil; el = el.Next() {
		if err := os.Remove(c.path(el.Value.(*cacheEntry).key)); err != nil && first == nil {
			first = err
		}
	}
	c.order.Init()
	c.items = map[Key]*list.Element{}
	c.size = 0
	c.bytes.Set(0)
	c.entries.Set(0)
	return first
}

// removeLocked unlinks one entry (and its file, if any) and updates the
// size accounting and gauges. Callers hold c.mu.
func (c *LRUBackend) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.items, ent.key)
	c.size -= ent.len
	if c.dir != "" {
		// A file left behind is harmless: a re-put overwrites it, and the
		// next startup scrub re-indexes or quarantines it.
		_ = os.Remove(c.path(ent.key))
	}
	c.bytes.Set(float64(c.size))
	c.entries.Set(float64(len(c.items)))
}
