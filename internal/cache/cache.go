// Package cache is a content-addressed memoization layer for the CAD flow.
//
// The paper's economic claim (C1/C3) is that partial reconfiguration avoids
// redundant CAD work; this package generalises the same amortization to every
// stage of the reproduction's flow. A stage result (a placement, a routed
// design, a bitstream) is stored under a Key derived
// from a stable hash of everything the stage's output depends on — netlist
// content, constraints, part, region, seed, options — so byte-identical
// inputs fetch byte-identical outputs instead of recomputing them.
//
// The cache is a concurrency-safe in-memory LRU (bounded by entry count and
// approximate bytes) with an optional on-disk store in the directory its
// Options name (atomic rename writes, corruption-tolerant reads that degrade
// to a miss). The package reads no environment: the CLIs turn $JPG_CACHE
// and $JPG_CACHE_DIR into their -cache and -cache-dir defaults.
// Lookups are single-flighted through a Group: when two workers request the
// same missing key concurrently, one computes and the other waits for the
// result, so a warm pool never duplicates in-flight work.
//
// Correctness contract: a cache must never change results, only wall-clock.
// Keys therefore cover every input a stage consumes, and the flow's
// determinism tests assert byte-identical artifacts with the cache cold,
// warm, and disabled, at any worker count. All methods are safe on a nil
// *Cache (they degrade to straight computation), so callers thread an
// optional cache without branching.
package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Key is a content-address: a SHA-256 over a stage's labelled inputs.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hasher accumulates labelled fields into a Key. Every field is written as
// (label, length, value) so field boundaries can never alias, and the
// constructor's domain string separates key spaces of different stages.
type Hasher struct {
	h   hash.Hash
	buf [8]byte
}

// NewHasher starts a hash in the given domain (e.g. "flow.place/v1").
// Bump the domain's version suffix whenever the set or meaning of hashed
// fields changes, so stale disk entries can never be misread.
func NewHasher(domain string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.write("domain", []byte(domain))
	return h
}

func (h *Hasher) write(label string, val []byte) {
	binary.BigEndian.PutUint64(h.buf[:], uint64(len(label)))
	h.h.Write(h.buf[:])
	h.h.Write([]byte(label))
	binary.BigEndian.PutUint64(h.buf[:], uint64(len(val)))
	h.h.Write(h.buf[:])
	h.h.Write(val)
}

// Str hashes a labelled string field.
func (h *Hasher) Str(label, v string) { h.write(label, []byte(v)) }

// Bytes hashes a labelled byte-slice field.
func (h *Hasher) Bytes(label string, v []byte) { h.write(label, v) }

// Int hashes a labelled signed integer field.
func (h *Hasher) Int(label string, v int64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	h.write(label, b[:])
}

// Float hashes a labelled float field by its IEEE-754 bits.
func (h *Hasher) Float(label string, v float64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	h.write(label, b[:])
}

// Bool hashes a labelled boolean field.
func (h *Hasher) Bool(label string, v bool) {
	b := []byte{0}
	if v {
		b[0] = 1
	}
	h.write(label, b)
}

// Key hashes a labelled sub-key, chaining content addresses across stages
// (a route key includes its place key, a bitgen key its route key).
func (h *Hasher) Key(label string, k Key) { h.write(label, k[:]) }

// Sum finalises the key.
func (h *Hasher) Sum() Key {
	var k Key
	copy(k[:], h.h.Sum(nil))
	return k
}

// Environment variables the CLIs read for their -cache and -cache-dir
// defaults.
const (
	// EnvDir names the on-disk store directory. Setting it enables the
	// cache with a disk tier.
	EnvDir = "JPG_CACHE_DIR"
	// EnvMode switches the cache: "1"/"on"/"mem" enables a
	// memory-only cache, "0"/"off" disables caching even when EnvDir is
	// set. Unset defers to EnvDir.
	EnvMode = "JPG_CACHE"
)

// EnvEnabled reports whether the environment asks for a cache
// ($JPG_CACHE_DIR set, or $JPG_CACHE on, and not explicitly switched off).
func EnvEnabled() bool {
	switch os.Getenv(EnvMode) {
	case "0", "off", "false":
		return false
	case "1", "on", "true", "mem":
		return true
	}
	return os.Getenv(EnvDir) != ""
}

// Options bounds a cache.
type Options struct {
	// MaxEntries caps the number of resident entries (default 4096).
	MaxEntries int
	// MaxBytes caps the approximate resident bytes (default 256 MiB).
	MaxBytes int64
	// Dir enables the on-disk store rooted at this directory. Empty means
	// memory-only.
	Dir string
}

// Cache metrics (always on; see internal/obs). cache.hit/miss/evict count
// lookups and evictions across all stages; per-stage counters are registered
// as cache.hit.<stage> / cache.miss.<stage> on first use.
var (
	mHit       = obs.GetCounter("cache.hit")
	mMiss      = obs.GetCounter("cache.miss")
	mEvict     = obs.GetCounter("cache.evict")
	mBytes     = obs.GetGauge("cache.bytes")
	mEntries   = obs.GetGauge("cache.entries")
	mDiskHit   = obs.GetCounter("cache.disk_hit")
	mDiskWrite = obs.GetCounter("cache.disk_write")
	mDiskError = obs.GetCounter("cache.disk_error")
	mWaits     = obs.GetCounter("cache.flight_wait")
)

type entry struct {
	key  Key
	val  any // []byte for GetOrCompute entries, a shared object otherwise
	size int64
	elem *list.Element
}

// stageCounters tracks one stage's hits and misses for Stats reporting
// (the obs registry carries the same numbers process-wide).
type stageCounters struct {
	hits, misses int64
}

// Cache is a bounded, concurrency-safe, content-addressed store.
type Cache struct {
	mu       sync.Mutex
	entries  map[Key]*entry
	lru      *list.List // front = most recently used
	bytes    int64
	stages   map[string]*stageCounters
	inflight Group

	maxEntries int
	maxBytes   int64
	disk       *diskStore
	evictions  int64
}

// New returns a cache. See Options for bounds and the disk tier.
func New(o Options) *Cache {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 4096
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 256 << 20
	}
	c := &Cache{
		entries:    map[Key]*entry{},
		lru:        list.New(),
		stages:     map[string]*stageCounters{},
		maxEntries: o.MaxEntries,
		maxBytes:   o.MaxBytes,
	}
	if o.Dir != "" {
		c.disk = &diskStore{root: o.Dir}
	}
	return c
}

// Dir returns the on-disk store root ("" for memory-only or nil caches).
func (c *Cache) Dir() string {
	if c == nil || c.disk == nil {
		return ""
	}
	return c.disk.root
}

// count records one lookup outcome in both the per-cache stage counters and
// the process-wide obs registry.
func (c *Cache) count(stage string, hit bool) {
	c.mu.Lock()
	sc := c.stages[stage]
	if sc == nil {
		sc = &stageCounters{}
		c.stages[stage] = sc
	}
	if hit {
		sc.hits++
	} else {
		sc.misses++
	}
	c.mu.Unlock()
	if hit {
		mHit.Inc()
		obs.GetCounter("cache.hit." + stage).Inc()
	} else {
		mMiss.Inc()
		obs.GetCounter("cache.miss." + stage).Inc()
	}
}

// get returns the resident value under k, bumping its LRU position.
func (c *Cache) get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e == nil {
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	return e.val, true
}

// insert adds an entry and evicts from the LRU tail while over bounds.
func (c *Cache) insert(k Key, val any, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.entries[k]; old != nil {
		c.lru.Remove(old.elem)
		c.bytes -= old.size
		delete(c.entries, k)
	}
	e := &entry{key: k, val: val, size: size}
	e.elem = c.lru.PushFront(e)
	c.entries[k] = e
	c.bytes += size
	for c.lru.Len() > 1 && (c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes) {
		tail := c.lru.Back()
		ev := tail.Value.(*entry)
		c.lru.Remove(tail)
		delete(c.entries, ev.key)
		c.bytes -= ev.size
		c.evictions++
		mEvict.Inc()
	}
	mBytes.Set(c.bytes)
	mEntries.Set(int64(c.lru.Len()))
}

// Remove drops an entry from memory and disk (used when a consumer finds an
// entry unusable, e.g. a bind failure on reconstructed artifacts).
func (c *Cache) Remove(stage string, k Key) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if e := c.entries[k]; e != nil {
		c.lru.Remove(e.elem)
		c.bytes -= e.size
		delete(c.entries, k)
		mBytes.Set(c.bytes)
		mEntries.Set(int64(c.lru.Len()))
	}
	disk := c.disk
	c.mu.Unlock()
	if disk != nil {
		disk.remove(stage, k)
	}
}

// clone returns a defensive copy; cached arrays are never handed out
// directly so a caller mutating its result cannot poison the store.
func clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// GetOrCompute returns the bytes stored under (stage, key), computing and
// storing them on a miss. Concurrent callers of the same missing key are
// single-flighted: exactly one runs compute, the rest wait for its result
// (or until their ctx ends). hit reports whether this caller's value came
// from the cache (or another caller's flight) rather than its own compute
// call. A compute error is returned to the caller that ran it and nothing
// is stored; a waiter then takes over as the next leader. On a nil cache
// the computation runs directly.
func (c *Cache) GetOrCompute(ctx context.Context, stage string, k Key, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	if c == nil {
		v, err := compute()
		return v, false, err
	}
	var own []byte
	v, hit, err := c.lookup(ctx, stage, k, true, func() (any, int64, error) {
		var err error
		if own, err = compute(); err != nil {
			return nil, 0, err
		}
		stored := clone(own)
		return stored, int64(len(stored)), nil
	})
	if err != nil || !hit {
		return own, false, err
	}
	return clone(v.([]byte)), true, nil
}

// GetOrComputeValue is GetOrCompute for live objects that cannot round-trip
// through bytes (e.g. a generated netlist shared read-only by later stages).
// Values live in the memory tier only; size is the caller's estimate for the
// byte bound. The stored object is returned shared, so it must be treated as
// immutable by every consumer.
func (c *Cache) GetOrComputeValue(ctx context.Context, stage string, k Key, compute func() (any, int64, error)) (val any, hit bool, err error) {
	if c == nil {
		v, _, err := compute()
		return v, false, err
	}
	return c.lookup(ctx, stage, k, false, compute)
}

// lookup is the one path behind GetOrCompute and GetOrComputeValue. A
// memory hit returns at once. Otherwise the key's flight elects one leader,
// which checks memory again (a flight that ended while this caller queued
// has stored its value), then the disk tier for byte entries, and only then
// computes. Followers share the leader's value and count as hits.
func (c *Cache) lookup(ctx context.Context, stage string, k Key, onDisk bool, compute func() (any, int64, error)) (any, bool, error) {
	if v, ok := c.get(k); ok {
		c.count(stage, true)
		return v, true, nil
	}
	computed := false
	v, shared, err := c.inflight.Do(ctx, k, func() (any, error) {
		if v, ok := c.get(k); ok {
			c.count(stage, true)
			return v, nil
		}
		if onDisk && c.disk != nil {
			if data, ok := c.disk.get(stage, k); ok {
				c.insert(k, data, int64(len(data)))
				c.count(stage, true)
				mDiskHit.Inc()
				return data, nil
			}
		}
		computed = true
		v, size, err := compute()
		c.count(stage, false)
		if err != nil {
			return nil, err
		}
		c.insert(k, v, size)
		return v, nil
	})
	if shared {
		c.count(stage, true)
		mWaits.Inc()
	}
	if err != nil {
		return nil, false, err
	}
	if computed && onDisk && c.disk != nil {
		c.disk.put(stage, k, v.([]byte))
	}
	return v, !computed, nil
}

// StageStats is one stage's hit/miss record.
type StageStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// HitRate returns hits / lookups (0 when the stage saw no lookups).
func (s StageStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats is a point-in-time summary of a cache, for jpgbench's perf record.
type Stats struct {
	Entries   int                   `json:"entries"`
	Bytes     int64                 `json:"bytes"`
	Evictions int64                 `json:"evictions"`
	Stages    map[string]StageStats `json:"stages,omitempty"`
}

// Stats snapshots the cache (nil caches report zeroes).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{Entries: c.lru.Len(), Bytes: c.bytes, Evictions: c.evictions}
	if len(c.stages) > 0 {
		s.Stages = make(map[string]StageStats, len(c.stages))
		names := make([]string, 0, len(c.stages))
		for n := range c.stages {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			sc := c.stages[n]
			s.Stages[n] = StageStats{Hits: sc.hits, Misses: sc.misses}
		}
	}
	return s
}
