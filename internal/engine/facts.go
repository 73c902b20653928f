// Package engine implements the LOGRES rule engine: compile-time analysis
// (typing, safety, oid-unification legality, stratification), the
// inflationary deterministic semantics of Appendix B (valuation domains,
// invented oids, Δ+/Δ−, the non-commutative composition ⊕ and the one-step
// inflationary operator), a semi-naive optimization for positive strata,
// the built-in predicates of §3.1, and the integrity constraints generated
// from type equations.
package engine

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"logres/internal/instance"
	"logres/internal/types"
	"logres/internal/value"
)

// Fact is one ground fact. Class facts carry the object's oid and the
// projection of its o-value; association and data-function facts carry a
// tuple. Data-function facts for F : T → {T'} are stored under the function
// name with tuple (arg: a, member: m); nullary functions omit arg.
type Fact struct {
	Pred    string
	IsClass bool
	OID     value.OID // class facts only
	Tuple   value.Tuple
}

// FuncArgLabel and FuncMemberLabel are the component labels of data-
// function facts.
const (
	FuncArgLabel    = "arg"
	FuncMemberLabel = "member"
)

// Key returns the identity of the fact (pred + oid + tuple).
func (f Fact) Key() string {
	var b strings.Builder
	b.WriteString(f.Pred)
	b.WriteByte('/')
	if f.IsClass {
		b.WriteString(f.OID.String())
		b.WriteByte('/')
	}
	b.WriteString(f.Tuple.Key())
	return b.String()
}

func (f Fact) String() string {
	if f.IsClass {
		return f.Pred + "(" + f.OID.String() + ", " + f.Tuple.String() + ")"
	}
	return f.Pred + f.Tuple.String()
}

var nullKey = value.Null{}.Key()

// predCache is the per-predicate access structure: the predicate's facts as
// a slice (a key-sorted prefix of length sortedLen followed by facts in
// insertion order) plus hash buckets per component label. Both are
// maintained incrementally on Add/Remove instead of being discarded and
// rebuilt from scratch (the pre-PR behaviour made every semi-naive round
// pay an O(n log n) re-sort and an O(n) index rebuild of the recursive
// predicate).
//
// Removal is lazy: cacheRemove only records a tombstone, and compact drops
// every tombstone from the list, the keys and the touched buckets in one
// pass the first time the cache is read, so a batch of removals (a DRed
// overestimate, a ⊕ replacement wave) costs one O(n) pass, not one each.
// Survivors keep their relative order, and a fact removed and re-added goes
// to the end of its bucket, exactly as with eager removal.
//
// A predCache may be shared copy-on-write between a FactSet and its clones:
// refs counts the owners beyond the first, and every mutation goes through
// cow() so a shared cache is never written through.
type predCache struct {
	list      []Fact
	keys      []string                     // keys[i] == list[i].Key(), kept to avoid re-deriving
	sortedLen int                          // list[:sortedLen] is in strictly ascending key order
	index     map[string]map[string][]Fact // label → value key → facts
	labels    map[string]bool              // labels occurring in any fact
	dead      map[string]Fact              // tombstones: removed key → fact, still listed until compact

	// bucketKeys carries the keys of the buckets a compaction has touched
	// (label → value key → keys, parallel to the index bucket), so the next
	// compaction of that bucket matches tombstones without re-deriving
	// Fact.Key. Buckets no removal ever reached carry none, so a set that
	// only grows pays nothing for it.
	bucketKeys map[string]map[string][]string

	refs int32 // owners beyond the first (accessed atomically)
}

// componentKey is the bucket key of f under label (null when f lacks it).
func componentKey(f Fact, label string) string {
	cv, found := f.Tuple.Get(label)
	if !found {
		return nullKey
	}
	return cv.Key()
}

// share registers one more owner (used by Clone).
func (c *predCache) share() { atomic.AddInt32(&c.refs, 1) }

// cow returns a cache safe to mutate: the receiver when it has a single
// owner, otherwise a private copy (the bucket index is dropped and rebuilt
// lazily — an O(n) build per queried label, never a re-sort). The caller
// must store the returned cache back in place of the receiver. A shared
// cache never holds tombstones (Clone compacts before sharing), so the copy
// and every read of a shared cache leave it untouched.
func (c *predCache) cow() *predCache {
	if atomic.LoadInt32(&c.refs) == 0 {
		return c
	}
	atomic.AddInt32(&c.refs, -1)
	n := &predCache{
		list:      append([]Fact{}, c.list...),
		keys:      append([]string{}, c.keys...),
		sortedLen: c.sortedLen,
		index:     map[string]map[string][]Fact{},
		labels:    make(map[string]bool, len(c.labels)),
	}
	for l := range c.labels {
		n.labels[l] = true
	}
	return n
}

// compact drops every tombstone: one pass over the list and one over each
// bucket a tombstoned fact sits in. Survivors keep their order. A bucket
// left empty is deleted from its index (a sliding window would otherwise
// grow the index by one empty bucket per retired value); a surviving
// touched bucket is reallocated at its exact size and from then on carries
// its keys (derived here the first time only). All arrays are fresh, so
// previously returned slices stay valid.
func (c *predCache) compact() {
	if len(c.dead) == 0 {
		return
	}
	n := len(c.keys) - len(c.dead)
	list, keys := make([]Fact, 0, n), make([]string, 0, n)
	sorted := 0
	for i, k := range c.keys {
		if _, gone := c.dead[k]; gone {
			continue
		}
		if i < c.sortedLen {
			sorted++
		}
		list = append(list, c.list[i])
		keys = append(keys, k)
	}
	c.list, c.keys, c.sortedLen = list, keys, sorted
	touched := make(map[string]bool, len(c.dead))
	for label, idx := range c.index {
		clear(touched)
		for _, f := range c.dead {
			touched[componentKey(f, label)] = true
		}
		carried := c.bucketKeys[label]
		for bk := range touched {
			b, ok := idx[bk]
			if !ok {
				continue
			}
			bkeys, ok := carried[bk]
			if !ok {
				bkeys = make([]string, len(b))
				for i, f := range b {
					bkeys[i] = f.Key()
				}
			}
			live := 0
			for _, k := range bkeys {
				if _, gone := c.dead[k]; !gone {
					live++
				}
			}
			if live == 0 {
				delete(idx, bk)
				delete(carried, bk)
				continue
			}
			facts, keys := make([]Fact, 0, live), make([]string, 0, live)
			for i, k := range bkeys {
				if _, gone := c.dead[k]; !gone {
					facts = append(facts, b[i])
					keys = append(keys, k)
				}
			}
			if carried == nil {
				if c.bucketKeys == nil {
					c.bucketKeys = map[string]map[string][]string{}
				}
				carried = map[string][]string{}
				c.bucketKeys[label] = carried
			}
			idx[bk], carried[bk] = facts, keys
		}
	}
	c.dead = nil
}

// dropCache releases one ownership reference when a cache is discarded
// (merged-view invalidation before a sharded merge).
func dropCache(c *predCache) {
	if c != nil && atomic.LoadInt32(&c.refs) > 0 {
		atomic.AddInt32(&c.refs, -1)
	}
}

// factShard is one partition of a sharded FactSet: the facts whose keys
// (oids, for class facts) hash to the shard, plus the shard's incrementally
// maintained caches. Shard caches exist only on multi-shard sets and only
// once a parallel operation has built them.
type factShard struct {
	byPred map[string]map[string]Fact    // pred → fact key → fact
	byOID  map[string]map[value.OID]Fact // class pred → oid → fact
	caches map[string]*predCache
}

// FactSet is a set of ground facts indexed by predicate. Class predicates
// additionally index facts by oid so that the right-biased composition ⊕
// can resolve o-value conflicts.
//
// Storage is partitioned into shards (NewFactSetShards): association and
// function facts are routed by a hash of their key, class facts by a hash
// of their oid — so the ⊕ replacement of an object's o-value (remove old
// key, insert new key, same oid) always stays within one shard, which lets
// MergeOrdered apply worker deltas with one goroutine per shard. Reads go
// through a merged per-predicate view that is maintained incrementally by
// single-writer mutations and reassembled by a sort-free k-way merge of the
// shard caches after a parallel merge. NewFactSet builds a single-shard set
// whose behaviour (and cost) matches the unsharded original exactly.
//
// A FactSet can be frozen (Freeze): all per-predicate views and component
// buckets are pre-built, reads never mutate shared state (safe for
// concurrent readers), and Add/Remove panic. Thaw re-enables mutation.
type FactSet struct {
	shards []factShard
	merged map[string]*predCache // pred → merged read view (absent = stale)
	frozen bool

	// rebuilds counts from-scratch (sorting) constructions of merged views;
	// the incremental-maintenance regression test asserts it stays flat
	// across mutations, clones, and parallel merges.
	rebuilds int
}

// NewFactSet returns an empty single-shard fact set.
func NewFactSet() *FactSet { return NewFactSetShards(1) }

// NewFactSetShards returns an empty fact set partitioned into n shards
// (values < 1 mean one shard).
func NewFactSetShards(n int) *FactSet {
	if n < 1 {
		n = 1
	}
	s := &FactSet{
		shards: make([]factShard, n),
		merged: map[string]*predCache{},
	}
	for i := range s.shards {
		s.shards[i].byPred = map[string]map[string]Fact{}
		s.shards[i].byOID = map[string]map[value.OID]Fact{}
	}
	return s
}

// ShardCount reports the number of shards.
func (s *FactSet) ShardCount() int { return len(s.shards) }

func fnv1aString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// oidShardIn routes a class fact by its oid so that o-value replacement
// stays within one shard.
func oidShardIn(o value.OID, n int) int {
	h := uint64(o)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(n))
}

// shardOf routes a fact (with its precomputed key) to its shard.
func (s *FactSet) shardOf(f Fact, key string) int {
	n := len(s.shards)
	if n == 1 {
		return 0
	}
	if f.IsClass {
		return oidShardIn(f.OID, n)
	}
	return int(fnv1aString(key) % uint32(n))
}

// --- merged view construction --------------------------------------------

// buildMergedView assembles the merged read view of one predicate without
// storing it. When every non-empty shard has an up-to-date shard cache the
// view is a sort-free k-way merge of the shard lists (rebuilt == false);
// otherwise it is built from scratch in strict key order.
func (s *FactSet) buildMergedView(pred string) (c *predCache, rebuilt bool) {
	if len(s.shards) > 1 {
		var parts []*predCache
		ok := true
		for si := range s.shards {
			sh := &s.shards[si]
			if len(sh.byPred[pred]) == 0 {
				continue
			}
			if sh.caches[pred] == nil {
				ok = false
				break
			}
			parts = append(parts, s.flushedShardCache(si, pred))
		}
		if ok {
			return mergeSortedCaches(parts), false
		}
	}
	total := 0
	for si := range s.shards {
		total += len(s.shards[si].byPred[pred])
	}
	facts := make([]Fact, 0, total)
	keys := make([]string, 0, total)
	for si := range s.shards {
		for k, f := range s.shards[si].byPred[pred] {
			keys = append(keys, k)
			facts = append(facts, f)
		}
	}
	sort.Sort(&factsByKey{facts: facts, keys: keys})
	c = &predCache{
		list:      facts,
		keys:      keys,
		sortedLen: len(keys),
		index:     map[string]map[string][]Fact{},
		labels:    map[string]bool{},
	}
	for _, f := range facts {
		for _, fl := range f.Tuple.Fields() {
			c.labels[fl.Label] = true
		}
	}
	return c, true
}

// mergeSortedCaches k-way merges fully sorted shard caches (disjoint key
// sets) into one merged view in strict key order — no sorting.
func mergeSortedCaches(parts []*predCache) *predCache {
	total := 0
	for _, p := range parts {
		total += len(p.list)
	}
	c := &predCache{
		list:   make([]Fact, 0, total),
		keys:   make([]string, 0, total),
		index:  map[string]map[string][]Fact{},
		labels: map[string]bool{},
	}
	pos := make([]int, len(parts))
	for {
		best := -1
		for i, p := range parts {
			if pos[i] >= len(p.keys) {
				continue
			}
			if best < 0 || p.keys[pos[i]] < parts[best].keys[pos[best]] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c.list = append(c.list, parts[best].list[pos[best]])
		c.keys = append(c.keys, parts[best].keys[pos[best]])
		pos[best]++
	}
	c.sortedLen = len(c.keys)
	for _, p := range parts {
		for l := range p.labels {
			c.labels[l] = true
		}
	}
	return c
}

// mergedCache returns the stored merged view of pred, assembling it when
// absent (from-scratch assemblies count as rebuilds).
func (s *FactSet) mergedCache(pred string) *predCache {
	c := s.merged[pred]
	if c == nil {
		var rebuilt bool
		c, rebuilt = s.buildMergedView(pred)
		s.merged[pred] = c
		if rebuilt {
			s.rebuilds++
		}
	}
	return c
}

// mutableMerged returns the merged view of pred ready for in-place cache
// maintenance (copy-on-write when shared), or nil when no view is stored.
func (s *FactSet) mutableMerged(pred string) *predCache {
	c := s.merged[pred]
	if c == nil {
		return nil
	}
	if cc := c.cow(); cc != c {
		s.merged[pred] = cc
		c = cc
	}
	return c
}

// flushedMerged compacts and restores strict key order on the stored
// merged view c of pred (copy-on-write when shared) and returns it.
func (s *FactSet) flushedMerged(pred string, c *predCache) *predCache {
	if c.sortedLen == len(c.list) && len(c.dead) == 0 {
		return c
	}
	c = s.mutableMerged(pred)
	c.flushCache()
	return c
}

// --- shard cache maintenance ---------------------------------------------

// ensureShardCache builds (once) and returns the shard-local cache of pred
// on shard si. Safe to call from the shard's own merge goroutine: it only
// touches shard-local state.
func (s *FactSet) ensureShardCache(si int, pred string) *predCache {
	sh := &s.shards[si]
	if c := sh.caches[pred]; c != nil {
		return c
	}
	m := sh.byPred[pred]
	facts := make([]Fact, 0, len(m))
	keys := make([]string, 0, len(m))
	for k, f := range m {
		keys = append(keys, k)
		facts = append(facts, f)
	}
	sort.Sort(&factsByKey{facts: facts, keys: keys})
	c := &predCache{
		list:      facts,
		keys:      keys,
		sortedLen: len(keys),
		index:     map[string]map[string][]Fact{},
		labels:    map[string]bool{},
	}
	for _, f := range facts {
		for _, fl := range f.Tuple.Fields() {
			c.labels[fl.Label] = true
		}
	}
	if sh.caches == nil {
		sh.caches = map[string]*predCache{}
	}
	sh.caches[pred] = c
	return c
}

// mutableShardCache returns shard si's cache of pred ready for mutation
// (copy-on-write when shared), or nil when the shard has no cache for it.
func (s *FactSet) mutableShardCache(si int, pred string) *predCache {
	sh := &s.shards[si]
	c := sh.caches[pred]
	if c == nil {
		return nil
	}
	if cc := c.cow(); cc != c {
		sh.caches[pred] = cc
		c = cc
	}
	return c
}

// flushedShardCache compacts and restores key order on shard si's cache of
// pred.
func (s *FactSet) flushedShardCache(si int, pred string) *predCache {
	c := s.shards[si].caches[pred]
	if c == nil {
		return nil
	}
	if c.sortedLen != len(c.list) || len(c.dead) > 0 {
		c = s.mutableShardCache(si, pred)
		c.flushCache()
	}
	return c
}

// flushCache compacts and restores strict key order by merging the
// insertion-ordered tail into the sorted prefix (fresh backing arrays, so
// previously returned slices stay valid).
func (c *predCache) flushCache() {
	c.compact()
	n := len(c.list)
	if c.sortedLen == n {
		return
	}
	tailF := append([]Fact{}, c.list[c.sortedLen:]...)
	tailK := append([]string{}, c.keys[c.sortedLen:]...)
	sort.Sort(&factsByKey{facts: tailF, keys: tailK})
	mergedF := make([]Fact, 0, n)
	mergedK := make([]string, 0, n)
	i, j := 0, 0
	for i < c.sortedLen && j < len(tailK) {
		if c.keys[i] <= tailK[j] {
			mergedF = append(mergedF, c.list[i])
			mergedK = append(mergedK, c.keys[i])
			i++
		} else {
			mergedF = append(mergedF, tailF[j])
			mergedK = append(mergedK, tailK[j])
			j++
		}
	}
	mergedF = append(append(mergedF, c.list[i:c.sortedLen]...), tailF[j:]...)
	mergedK = append(append(mergedK, c.keys[i:c.sortedLen]...), tailK[j:]...)
	c.list, c.keys, c.sortedLen = mergedF, mergedK, n
}

type factsByKey struct {
	facts []Fact
	keys  []string
}

func (a *factsByKey) Len() int           { return len(a.keys) }
func (a *factsByKey) Less(i, j int) bool { return a.keys[i] < a.keys[j] }
func (a *factsByKey) Swap(i, j int) {
	a.facts[i], a.facts[j] = a.facts[j], a.facts[i]
	a.keys[i], a.keys[j] = a.keys[j], a.keys[i]
}

// buildBucket constructs the component buckets of one label from the
// current list order (the cache must be compacted).
func (c *predCache) buildBucket(label string) map[string][]Fact {
	idx := map[string][]Fact{}
	for _, f := range c.list {
		bk := componentKey(f, label)
		idx[bk] = append(idx[bk], f)
	}
	c.index[label] = idx
	return idx
}

// cacheAdd maintains the cache for one inserted fact: O(1) list append plus
// one bucket append per already-built label index. Re-adding a tombstoned
// key compacts first, so the stale entry cannot shadow the new one.
func (c *predCache) cacheAdd(f Fact, key string) {
	if _, ok := c.dead[key]; ok {
		c.compact()
	}
	c.list = append(c.list, f)
	c.keys = append(c.keys, key)
	for label, idx := range c.index {
		bk := componentKey(f, label)
		idx[bk] = append(idx[bk], f)
		if bkeys, ok := c.bucketKeys[label][bk]; ok {
			c.bucketKeys[label][bk] = append(bkeys, key)
		}
	}
	for _, fl := range f.Tuple.Fields() {
		c.labels[fl.Label] = true
	}
}

// cacheRemove records a tombstone for one removed fact, present in the
// cache: O(1). The next read compacts.
func (c *predCache) cacheRemove(f Fact, key string) {
	if c.dead == nil {
		c.dead = map[string]Fact{}
	}
	c.dead[key] = f
}

// --- freeze ---------------------------------------------------------------

// Freeze pre-builds every predicate's merged view and component buckets and
// marks the set read-only: subsequent Facts/FactsByComponent calls never
// mutate shared state, making the set safe for concurrent readers; Add and
// Remove panic until Thaw. Freezing an already frozen set is a no-op.
func (s *FactSet) Freeze() { s.freeze(1) }

// FreezeParallel is Freeze with the per-shard cache builds and per-
// predicate view/bucket builds fanned across up to workers goroutines.
func (s *FactSet) FreezeParallel(workers int) { s.freeze(workers) }

func (s *FactSet) freeze(workers int) {
	if s.frozen {
		return
	}
	seen := map[string]bool{}
	var preds []string
	for si := range s.shards {
		for p := range s.shards[si].byPred {
			if !seen[p] {
				seen[p] = true
				preds = append(preds, p)
			}
		}
	}
	sort.Strings(preds)

	// Phase A (multi-shard only): for every predicate whose merged view is
	// missing — and must therefore be reassembled in Phase B — build and
	// flush the shard caches so the view assembles by k-way merge instead
	// of sorting. Phase B runs per predicate, so it must not flush shard
	// caches itself (the per-shard cache maps would see concurrent
	// copy-on-write stores); one Phase A goroutine owns one whole shard, so
	// all its map writes are disjoint. Predicates with a live incrementally
	// maintained view skip this entirely.
	if len(s.shards) > 1 {
		need := map[string]bool{}
		for _, p := range preds {
			if s.merged[p] == nil {
				need[p] = true
			}
		}
		if len(need) > 0 {
			runIndexed(len(s.shards), workers, func(si int) {
				for p := range s.shards[si].byPred {
					if need[p] {
						s.ensureShardCache(si, p)
						s.flushedShardCache(si, p)
					}
				}
			})
		}
	}

	// Phase B: assemble each predicate's frozen view (flushed, all occurring
	// labels bucketed) without touching shared maps; publish serially.
	type frozenView struct {
		c       *predCache
		rebuilt bool
	}
	views := make([]frozenView, len(preds))
	runIndexed(len(preds), workers, func(i int) {
		views[i].c, views[i].rebuilt = s.prepareFrozen(preds[i])
	})
	for i, p := range preds {
		s.merged[p] = views[i].c
		if views[i].rebuilt {
			s.rebuilds++
		}
	}
	s.frozen = true
}

// prepareFrozen returns pred's fully built frozen view. It never writes to
// s.merged or shard cache maps (safe to run per-predicate in parallel);
// shared caches are copied on write before any in-place normalization.
func (s *FactSet) prepareFrozen(pred string) (*predCache, bool) {
	c := s.merged[pred]
	rebuilt := false
	if c == nil {
		c, rebuilt = s.buildMergedView(pred)
	}
	if c.sortedLen != len(c.list) || len(c.dead) > 0 {
		c = c.cow()
		c.flushCache()
	}
	missing := false
	for label := range c.labels {
		if _, ok := c.index[label]; !ok {
			missing = true
			break
		}
	}
	if missing {
		c = c.cow()
		for label := range c.labels {
			if _, ok := c.index[label]; !ok {
				c.buildBucket(label)
			}
		}
	}
	return c, rebuilt
}

// runIndexed applies fn to 0..n-1, on up to workers goroutines.
func runIndexed(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1)
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
}

// Thaw re-enables mutation after Freeze.
func (s *FactSet) Thaw() { s.frozen = false }

// Frozen reports whether the set is frozen.
func (s *FactSet) Frozen() bool { return s.frozen }

// --- reads ----------------------------------------------------------------

// FactsByComponent returns the facts of pred whose labelled component
// equals v, through the component hash index. The returned slice must not
// be mutated. On an unfrozen set the index is built on demand and bucket
// order follows fact key order; on a frozen set all buckets are pre-built
// and the lookup is read-only. Pending removals are compacted first, but
// the list is not re-sorted for a lookup on an existing index.
func (s *FactSet) FactsByComponent(pred, label string, v value.Value) []Fact {
	c := s.merged[pred]
	if c == nil {
		if s.frozen {
			return nil // a frozen set has views for every stored predicate
		}
		c = s.mergedCache(pred)
	}
	c.compact() // only a private cache holds tombstones; frozen ones hold none
	idx, ok := c.index[label]
	if !ok {
		if s.frozen {
			// The label occurs in no fact of pred (Freeze pre-builds every
			// occurring label), so every fact holds null for it.
			if v.Key() == nullKey {
				return c.list
			}
			return nil
		}
		s.flushedMerged(pred, c) // keep bucket order = key order
		idx = s.mutableMerged(pred).buildBucket(label)
	}
	return idx[v.Key()]
}

// Facts returns the facts of a predicate in strict key order. On a frozen
// set the view was compacted and flushed by Freeze and the read never
// mutates. The returned slice must not be mutated.
func (s *FactSet) Facts(pred string) []Fact {
	c := s.merged[pred]
	if c == nil {
		if s.frozen {
			return nil // a frozen set has views for every stored predicate
		}
		c = s.mergedCache(pred)
	}
	if !s.frozen {
		c = s.flushedMerged(pred, c)
	}
	return c.list
}

// Has reports exact membership.
func (s *FactSet) Has(f Fact) bool {
	k := f.Key()
	m := s.shards[s.shardOf(f, k)].byPred[f.Pred]
	if m == nil {
		return false
	}
	_, ok := m[k]
	return ok
}

// HasOID reports whether the class predicate contains the oid, and returns
// its current o-value projection.
func (s *FactSet) HasOID(pred string, oid value.OID) (Fact, bool) {
	si := 0
	if len(s.shards) > 1 {
		si = oidShardIn(oid, len(s.shards))
	}
	om := s.shards[si].byOID[pred]
	if om == nil {
		return Fact{}, false
	}
	f, ok := om[oid]
	return f, ok
}

// Size reports the number of facts for a predicate.
func (s *FactSet) Size(pred string) int {
	n := 0
	for si := range s.shards {
		n += len(s.shards[si].byPred[pred])
	}
	return n
}

// TotalSize reports the total number of facts.
func (s *FactSet) TotalSize() int {
	n := 0
	for si := range s.shards {
		for _, m := range s.shards[si].byPred {
			n += len(m)
		}
	}
	return n
}

// Preds returns the predicates with at least one fact, sorted.
func (s *FactSet) Preds() []string {
	var out []string
	if len(s.shards) == 1 {
		for p, m := range s.shards[0].byPred {
			if len(m) > 0 {
				out = append(out, p)
			}
		}
	} else {
		counts := map[string]int{}
		for si := range s.shards {
			for p, m := range s.shards[si].byPred {
				counts[p] += len(m)
			}
		}
		for p, n := range counts {
			if n > 0 {
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

// MaxOID returns the largest oid mentioned by any class fact.
func (s *FactSet) MaxOID() value.OID {
	var max value.OID
	for si := range s.shards {
		for _, om := range s.shards[si].byOID {
			for o := range om {
				if o > max {
					max = o
				}
			}
		}
	}
	return max
}

// --- mutation -------------------------------------------------------------

// Add inserts a fact. For class facts an existing fact with the same oid is
// replaced (the newer o-value wins — the ⊕ bias); the method reports
// whether the set changed. Add panics on a frozen set.
func (s *FactSet) Add(f Fact) bool {
	return s.addKeyed(f, f.Key())
}

// addKeyed is Add for a caller that already holds k == f.Key().
func (s *FactSet) addKeyed(f Fact, k string) bool {
	if s.frozen {
		panic("engine: Add on frozen FactSet")
	}
	return s.addShard(s.shardOf(f, k), f, k, true)
}

// addShard inserts f (with precomputed key k) into shard si, maintaining
// the shard cache when present. When global is true the merged view cache
// is maintained as well; per-shard merge goroutines pass false (the merged
// map is shared across shards — MergeOrdered maintains or invalidates the
// touched views in its serial prologue/epilogue instead).
func (s *FactSet) addShard(si int, f Fact, k string, global bool) bool {
	sh := &s.shards[si]
	m := sh.byPred[f.Pred]
	if m == nil {
		m = map[string]Fact{}
		sh.byPred[f.Pred] = m
	}
	if f.IsClass {
		om := sh.byOID[f.Pred]
		if om == nil {
			om = map[value.OID]Fact{}
			sh.byOID[f.Pred] = om
		}
		if prev, ok := om[f.OID]; ok {
			pk := prev.Key()
			if pk == k {
				return false
			}
			delete(m, pk)
			if global {
				if c := s.mutableMerged(f.Pred); c != nil {
					c.cacheRemove(prev, pk)
				}
			}
			if c := s.mutableShardCache(si, f.Pred); c != nil {
				c.cacheRemove(prev, pk)
			}
		}
		om[f.OID] = f
		m[k] = f
		if global {
			if c := s.mutableMerged(f.Pred); c != nil {
				c.cacheAdd(f, k)
			}
		}
		if c := s.mutableShardCache(si, f.Pred); c != nil {
			c.cacheAdd(f, k)
		}
		return true
	}
	if _, ok := m[k]; ok {
		return false
	}
	m[k] = f
	if global {
		if c := s.mutableMerged(f.Pred); c != nil {
			c.cacheAdd(f, k)
		}
	}
	if c := s.mutableShardCache(si, f.Pred); c != nil {
		c.cacheAdd(f, k)
	}
	return true
}

// Remove deletes a fact by exact identity; it reports whether it was
// present. Remove panics on a frozen set.
func (s *FactSet) Remove(f Fact) bool {
	if s.frozen {
		panic("engine: Remove on frozen FactSet")
	}
	k := f.Key()
	si := s.shardOf(f, k)
	sh := &s.shards[si]
	m := sh.byPred[f.Pred]
	if m == nil {
		return false
	}
	if _, ok := m[k]; !ok {
		return false
	}
	delete(m, k)
	if c := s.mutableMerged(f.Pred); c != nil {
		c.cacheRemove(f, k)
	}
	if c := s.mutableShardCache(si, f.Pred); c != nil {
		c.cacheRemove(f, k)
	}
	if f.IsClass {
		if om := sh.byOID[f.Pred]; om != nil {
			if cur, ok := om[f.OID]; ok && cur.Key() == k {
				delete(om, f.OID)
			}
		}
	}
	return true
}

// --- parallel ordered merge ----------------------------------------------

// MergeStats reports how an ordered merge ran: the shard fan-out and the
// wall-clock each shard goroutine spent applying its partition of the
// deltas (empty for the serial single-shard path).
type MergeStats struct {
	Shards         int
	ShardDurations []time.Duration
	Changed        bool
}

// MergeOrdered applies the deltas to s in order — equivalent to calling
// s.Merge(d) for each delta left to right — with one goroutine per shard
// when s and all deltas share a multi-shard layout. Each goroutine walks
// the deltas in the given order restricted to its shard; because facts are
// routed by key hash (oid hash for class facts, so ⊕ replacement is shard-
// local) the per-shard application order matches the serial order
// restricted to that shard, and within one delta keys (and oids) are
// distinct, so the result is bit-identical to the serial merge for any
// shard count. Shard caches are built on first use and maintained
// incrementally. Merged views are also maintained incrementally when the
// deltas carry no class facts (the semi-naive case); deltas with class
// facts invalidate the touched views, which reassemble sort-free from the
// shard caches on the next read or freeze. MergeOrdered panics on a
// frozen set.
func (s *FactSet) MergeOrdered(deltas []*FactSet) MergeStats {
	if s.frozen {
		panic("engine: MergeOrdered on frozen FactSet")
	}
	n := len(s.shards)
	sameLayout := n > 1
	for _, d := range deltas {
		if len(d.shards) != n {
			sameLayout = false
			break
		}
	}
	if !sameLayout {
		st := MergeStats{Shards: 1}
		for _, d := range deltas {
			if s.Merge(d) {
				st.Changed = true
			}
		}
		return st
	}
	touched := map[string]bool{}
	hasClass := false
	for _, d := range deltas {
		for si := range d.shards {
			for p, m := range d.shards[si].byPred {
				if len(m) > 0 {
					touched[p] = true
				}
			}
			for _, om := range d.shards[si].byOID {
				if len(om) > 0 {
					hasClass = true
				}
			}
		}
	}
	st := MergeStats{Shards: n}
	if len(touched) == 0 {
		return st
	}
	// Class facts can replace an existing fact with the same oid (⊕), which
	// would need ordered removals from the shared merged views; drop the
	// touched views and let the next read reassemble them from the shard
	// caches. Pure association deltas — every semi-naive round — keep the
	// merged views live instead: each shard goroutine records what it
	// actually inserted and a serial epilogue appends those facts in the
	// exact serial merge order, so view and bucket maintenance stays
	// O(|delta|) per round rather than O(|set|).
	incremental := !hasClass
	var added [][]map[string]bool
	if incremental {
		added = make([][]map[string]bool, len(deltas))
		for di := range added {
			added[di] = make([]map[string]bool, n)
		}
	} else {
		for p := range touched {
			if c := s.merged[p]; c != nil {
				dropCache(c)
				delete(s.merged, p)
			}
		}
	}
	st.ShardDurations = make([]time.Duration, n)
	changed := make([]bool, n)
	var wg sync.WaitGroup
	for si := 0; si < n; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			start := time.Now()
			for p := range touched {
				s.ensureShardCache(si, p)
			}
			for di, d := range deltas {
				for _, m := range d.shards[si].byPred {
					for k, f := range m {
						if s.addShard(si, f, k, false) {
							changed[si] = true
							if incremental {
								am := added[di][si]
								if am == nil {
									am = map[string]bool{}
									added[di][si] = am
								}
								am[k] = true
							}
						}
					}
				}
			}
			st.ShardDurations[si] = time.Since(start)
		}(si)
	}
	wg.Wait()
	if incremental {
		// Append the inserted facts to the live merged views in the order a
		// serial s.Merge(d) sequence would have: delta order, predicates
		// sorted, keys sorted within each predicate. Views that were never
		// built stay absent and assemble lazily from the shard caches.
		for di, d := range deltas {
			for _, p := range d.Preds() {
				c := s.mutableMerged(p)
				if c == nil {
					continue
				}
				for _, f := range d.Facts(p) {
					k := f.Key()
					if am := added[di][s.shardOf(f, k)]; am != nil && am[k] {
						c.cacheAdd(f, k)
					}
				}
			}
		}
	}
	for _, c := range changed {
		if c {
			st.Changed = true
		}
	}
	return st
}

// --- set operations -------------------------------------------------------

// Clone returns a deep copy with the same shard layout. The copy is
// unfrozen; the per-predicate views and shard caches are compacted, then
// carried over and shared copy-on-write, so reads after Compose/Minus keep
// the incremental caches instead of paying a from-scratch O(n log n)
// rebuild per predicate.
func (s *FactSet) Clone() *FactSet {
	n := NewFactSetShards(len(s.shards))
	for si := range s.shards {
		sh, dst := &s.shards[si], &n.shards[si]
		for p, m := range sh.byPred {
			cp := make(map[string]Fact, len(m))
			for k, f := range m {
				cp[k] = f
			}
			dst.byPred[p] = cp
		}
		for p, om := range sh.byOID {
			cp := make(map[value.OID]Fact, len(om))
			for o, f := range om {
				cp[o] = f
			}
			dst.byOID[p] = cp
		}
		if len(sh.caches) > 0 {
			dst.caches = make(map[string]*predCache, len(sh.caches))
			for p, c := range sh.caches {
				c.compact()
				c.share()
				dst.caches[p] = c
			}
		}
	}
	for p, c := range s.merged {
		c.compact()
		c.share()
		n.merged[p] = c
	}
	return n
}

// CloneShards returns a deep copy redistributed over n shards. When n
// matches the receiver's layout this is Clone; otherwise every fact is
// re-routed by hash and caches are rebuilt lazily.
func (s *FactSet) CloneShards(n int) *FactSet {
	if n < 1 {
		n = 1
	}
	if n == len(s.shards) {
		return s.Clone()
	}
	out := NewFactSetShards(n)
	for si := range s.shards {
		for p, m := range s.shards[si].byPred {
			for k, f := range m {
				dst := &out.shards[out.shardOf(f, k)]
				dm := dst.byPred[p]
				if dm == nil {
					dm = map[string]Fact{}
					dst.byPred[p] = dm
				}
				dm[k] = f
				if f.IsClass {
					om := dst.byOID[p]
					if om == nil {
						om = map[value.OID]Fact{}
						dst.byOID[p] = om
					}
					om[f.OID] = f
				}
			}
		}
	}
	return out
}

// Equal reports whether two sets contain exactly the same facts (the shard
// layouts need not match).
func (s *FactSet) Equal(o *FactSet) bool {
	if s.TotalSize() != o.TotalSize() {
		return false
	}
	for si := range s.shards {
		for p, m := range s.shards[si].byPred {
			for k, f := range m {
				om := o.shards[o.shardOf(f, k)].byPred[p]
				if om == nil {
					return false
				}
				if _, ok := om[k]; !ok {
					return false
				}
			}
		}
	}
	return true
}

// Compose computes s ⊕ d (Appendix B): the union of the two sets, except
// that class facts of s whose oid also appears in d with a different
// o-value are replaced by d's fact. ⊕ is non-commutative; the receiver is
// the left operand. A fresh set is returned.
func (s *FactSet) Compose(d *FactSet) *FactSet {
	out := s.Clone()
	out.Merge(d)
	return out
}

// Merge is the in-place ⊕: it adds every fact of d into s (right bias for
// class facts) and reports whether s changed.
func (s *FactSet) Merge(d *FactSet) bool {
	changed := false
	for _, p := range d.Preds() {
		for _, f := range d.Facts(p) {
			if s.Add(f) {
				changed = true
			}
		}
	}
	return changed
}

// Minus returns s − d (exact-identity removal).
func (s *FactSet) Minus(d *FactSet) *FactSet {
	out := s.Clone()
	for _, p := range d.Preds() {
		for _, f := range d.Facts(p) {
			out.Remove(f)
		}
	}
	return out
}

// Intersect returns s ∩ d (exact identity).
func (s *FactSet) Intersect(d *FactSet) *FactSet {
	out := NewFactSet()
	for _, p := range s.Preds() {
		for _, f := range s.Facts(p) {
			if d.Has(f) {
				out.Add(f)
			}
		}
	}
	return out
}

// FromInstance converts an instance into a fact set: one class fact per
// class membership (o-value projected on the class's effective type) and
// one fact per association tuple.
func FromInstance(in *instance.Instance) (*FactSet, error) {
	s := in.Schema()
	fs := NewFactSet()
	for _, c := range s.NamesOf(types.DeclClass) {
		eff, err := s.EffectiveTuple(c)
		if err != nil {
			return nil, err
		}
		for _, oid := range in.Objects(c) {
			v, _ := in.OValue(oid)
			fs.Add(Fact{Pred: c, IsClass: true, OID: oid, Tuple: instance.Project(v, eff)})
		}
	}
	for _, a := range s.NamesOf(types.DeclAssociation) {
		for _, t := range in.Tuples(a) {
			fs.Add(Fact{Pred: a, Tuple: t})
		}
	}
	for _, fn := range s.NamesOf(types.DeclFunction) {
		for _, t := range in.Tuples(functionStore(fn)) {
			fs.Add(Fact{Pred: fn, Tuple: t})
		}
	}
	return fs, nil
}

// functionStore names the hidden association backing a data function.
func functionStore(fn string) string { return "$fn$" + fn }

// ToInstance converts a fact set into an instance over the schema,
// reconciling class facts across a generalization hierarchy (an oid's
// o-value is the ⊕ of its projections; later components win, but since all
// class facts of one oid stem from one o-value they agree).
func ToInstance(fs *FactSet, schema *types.Schema, oidCounter int64) *instance.Instance {
	in := instance.New(schema)
	in.SetOIDCounter(oidCounter)
	for _, p := range fs.Preds() {
		if schema.IsClass(p) {
			for _, f := range fs.Facts(p) {
				in.AddToClass(p, f.OID, f.Tuple)
			}
			continue
		}
		if schema.IsFunction(p) {
			for _, f := range fs.Facts(p) {
				in.InsertTuple(functionStore(p), f.Tuple)
			}
			continue
		}
		for _, f := range fs.Facts(p) {
			in.InsertTuple(p, f.Tuple)
		}
	}
	return in
}
