package decomp

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"

	"sadproute/internal/obs"
)

// DefaultCacheCap is the entry bound of a Cache built with NewCache(0):
// large enough that a full routing run's window checks rarely evict, small
// enough that a pathological run stays bounded.
const DefaultCacheCap = 4096

// Cache memoizes DecomposeCut by layout content. The key is the canonical
// byte serialization of (Rules, Die, NaiveAssists, patterns sorted by net
// with colors and rects); entries are found via an FNV-1a hash of that
// serialization and verified against the full key bytes, so hash
// collisions cannot alias two layouts. Eviction is deterministic FIFO:
// when the cache is full, the oldest entry leaves, independent of hit
// pattern, so two runs with the same call sequence keep identical
// contents.
//
// A hit returns the stored *Result unchanged. Cached Results are SHARED
// and must be treated as immutable by every caller (Result carries the
// //sadp:immutable marker, so the sadplint immutable rule rejects writes
// outside this package); Paranoid mode retains deep copies so CheckIntegrity can
// prove nobody wrote to them.
//
// A Cache is single-goroutine state, like the Engine: the router's window
// checks and repair passes run serially.
// Methods are nil-safe; a nil *Cache degrades to the uncached oracle.
type Cache struct {
	// Paranoid retains a private deep copy of every stored Result;
	// CheckIntegrity compares the shared Results against the copies to
	// detect callers mutating cache-owned data. Debug/test facility.
	Paranoid bool

	cap     int
	buckets map[uint64][]*cacheEntry
	fifo    []*cacheEntry // insertion order, oldest first
	key     []byte        // serialization scratch
	order   []int         // pattern sort scratch
	eng     *Engine       // owned scratch engine for misses
	builds  int64         // canonical key serializations (KeyBuilds)
}

type cacheEntry struct {
	hash uint64
	key  []byte
	res  *Result
	snap *Result // deep copy, Paranoid only
}

// NewCache returns an empty cache bounded to capacity entries
// (DefaultCacheCap when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	return &Cache{
		cap:     capacity,
		buckets: make(map[uint64][]*cacheEntry),
		eng:     &Engine{},
	}
}

// Len returns the number of cached layouts.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return len(c.fifo)
}

// DecomposeCut returns the memoized decomposition of ly, running the
// oracle only on the first sighting of a layout. A nil receiver is the
// uncached oracle. Hits increment only decomp.cache_hits — the decomp.*
// work counters record real oracle runs, so equivalence tests zero the
// whole family when diffing cached vs uncached snapshots.
func (c *Cache) DecomposeCut(ly Layout, rec *obs.Recorder) *Result {
	if c == nil {
		return DecomposeCutR(ly, rec)
	}
	h := c.buildKey(ly)
	for _, ent := range c.buckets[h] {
		if ent.hash == h && bytesEqual(ent.key, c.key) {
			rec.Inc(obs.CtrDecompCacheHits)
			return ent.res
		}
	}
	rec.Inc(obs.CtrDecompCacheMisses)
	// c.key is shared serialization scratch that the next lookup
	// overwrites, so the entry keeps its own copy — stored from the copy,
	// never re-serialized (BenchmarkDecompCacheMiss asserts exactly one
	// build per lookup).
	key := append([]byte(nil), c.key...)
	res := c.eng.DecomposeCut(ly, rec)
	ent := &cacheEntry{hash: h, key: key, res: res}
	if c.Paranoid {
		ent.snap = deepCopyResult(res)
	}
	if len(c.fifo) >= c.cap {
		c.evictOldest(rec)
	}
	c.buckets[h] = append(c.buckets[h], ent)
	c.fifo = append(c.fifo, ent)
	return res
}

// evictOldest removes the FIFO head from both the queue and its bucket.
func (c *Cache) evictOldest(rec *obs.Recorder) {
	old := c.fifo[0]
	copy(c.fifo, c.fifo[1:])
	c.fifo = c.fifo[:len(c.fifo)-1]
	b := c.buckets[old.hash]
	for i, ent := range b {
		if ent == old {
			b = append(b[:i], b[i+1:]...)
			break
		}
	}
	if len(b) == 0 {
		delete(c.buckets, old.hash)
	} else {
		c.buckets[old.hash] = b
	}
	rec.Inc(obs.CtrDecompCacheEvictions)
}

// CheckIntegrity compares every shared Result against its Paranoid-mode
// deep copy and reports the first divergence — evidence that a caller
// wrote through a cached *Result. Nil when the cache is consistent, nil
// receiver, or Paranoid was never set.
func (c *Cache) CheckIntegrity() error {
	if c == nil {
		return nil
	}
	for i, ent := range c.fifo {
		if ent.snap == nil {
			continue
		}
		if !reflect.DeepEqual(ent.res, ent.snap) {
			return fmt.Errorf("decomp cache entry %d mutated after caching (shared Result written to)", i)
		}
	}
	return nil
}

// KeyBuilds returns how many canonical key serializations the cache has
// performed — exactly one per DecomposeCut lookup. Regression guard for
// the miss path: a reintroduced re-serialization (e.g. rebuilding the key
// to store the entry after the oracle ran) doubles this per miss, which
// BenchmarkDecompCacheMiss asserts against.
func (c *Cache) KeyBuilds() int64 {
	if c == nil {
		return 0
	}
	return c.builds
}

// buildKey serializes ly into c.key canonically and returns its FNV-1a
// hash. Patterns are ordered by net id (stable for duplicates), so any
// two layouts with the same geometry, rules and coloring — however their
// pattern lists are ordered — share one entry.
func (c *Cache) buildKey(ly Layout) uint64 {
	c.builds++
	c.key, c.order = layoutKey(c.key[:0], c.order[:0], ly)
	return fnv1a(c.key)
}

// layoutKey appends the canonical byte serialization of ly to k: rules,
// die, assist mode, then the patterns sorted by net id (stable for
// duplicates) with colors and rects: the memo cache's entry key. order is
// sort scratch; the (possibly regrown) key and scratch are returned for
// reuse.
func layoutKey(k []byte, order []int, ly Layout) ([]byte, []int) {
	k = appendInts(k, ly.Rules.WLine, ly.Rules.WSpacer, ly.Rules.WCut,
		ly.Rules.WCore, ly.Rules.DCut, ly.Rules.DCore, ly.Rules.DOverlap)
	k = appendInts(k, ly.Die.X0, ly.Die.Y0, ly.Die.X1, ly.Die.Y1)
	if ly.NaiveAssists {
		k = append(k, 1)
	} else {
		k = append(k, 0)
	}
	order = order[:0]
	for i := range ly.Pats {
		order = append(order, i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ly.Pats[order[a]].Net < ly.Pats[order[b]].Net
	})
	k = appendInts(k, len(ly.Pats))
	for _, pi := range order {
		p := &ly.Pats[pi]
		k = appendInts(k, p.Net, int(p.Color), len(p.Rects))
		for _, r := range p.Rects {
			k = appendInts(k, r.X0, r.Y0, r.X1, r.Y1)
		}
	}
	return k, order[:0]
}

func appendInts(k []byte, vs ...int) []byte {
	for _, v := range vs {
		k = binary.AppendVarint(k, int64(v))
	}
	return k
}

// fnv1a is the 64-bit FNV-1a hash (inlined to avoid the hash.Hash
// allocation of hash/fnv on this per-window-check path).
func fnv1a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// deepCopyResult clones a Result including every slice (all elements are
// plain values, so one level suffices).
func deepCopyResult(r *Result) *Result {
	cp := *r
	cp.Overlays = append([]Overlay(nil), r.Overlays...)
	cp.Conflicts = append([]CutConflict(nil), r.Conflicts...)
	cp.Violations = append([]string(nil), r.Violations...)
	cp.BadNets = append([]int(nil), r.BadNets...)
	cp.Materials = append([]Mat(nil), r.Materials...)
	return &cp
}
