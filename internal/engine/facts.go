// Package engine implements the LOGRES rule engine: compile-time analysis
// (typing, safety, oid-unification legality, stratification), the
// inflationary deterministic semantics of Appendix B (valuation domains,
// invented oids, Δ+/Δ−, the non-commutative composition ⊕ and the one-step
// inflationary operator), a semi-naive optimization for positive strata,
// the built-in predicates of §3.1, and the integrity constraints generated
// from type equations.
package engine

import (
	"maps"
	"sort"
	"strconv"
	"sync/atomic"

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

// Key returns the identity of the fact (pred + oid + tuple), appended
// into one stack buffer so that it costs a single allocation.
func (f Fact) Key() string {
	var buf [value.KeyBufSize]byte
	b := append(append(buf[:0], f.Pred...), '/')
	if f.IsClass {
		if f.OID.IsNil() {
			b = append(b, "nil"...)
		} else {
			b = strconv.AppendInt(append(b, '&'), int64(f.OID), 10)
		}
		b = append(b, '/')
	}
	return string(f.Tuple.AppendKey(b))
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

	refs atomic.Int64 // owners beyond the first (64 bits: see predStore)
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
func (c *predCache) share() { c.refs.Add(1) }

// cow returns a cache safe to mutate: the receiver when it has a single
// owner, otherwise a private copy (the bucket index is dropped and rebuilt
// lazily — an O(n) build per queried label, never a re-sort). The caller
// must store the returned cache back in place of the receiver. A shared
// cache never holds tombstones (Clone compacts before sharing), so the copy
// and every read of a shared cache leave it untouched. The owner count
// drops only once the copy is taken, so the last owner cannot start
// writing in place while another is still copying.
func (c *predCache) cow() *predCache {
	if c.refs.Load() <= 0 {
		return c
	}
	defer c.refs.Add(-1)
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

// predStore holds one predicate's facts by key and, for a class, by oid
// (so the right-biased composition ⊕ can resolve o-value conflicts).
//
// A store is shared copy-on-write between a FactSet and its clones, like a
// predCache: refs counts the owners beyond the first, and every write goes
// through cow. Counts only grow: a clone dropped without writing never
// gives its share back, so an owner that was ever cloned copies each
// store once, on its next write to it, even when that clone is gone.
// Because counts only grow, a store that is never written gains one per
// query and commit for the life of the process; a 32-bit count would wrap
// negative within days on a busy server and let a clone write into the
// published set, so the count has 64 bits. It can reach -1, when every
// owner copies at once, so cow tests for <= 0.
type predStore struct {
	facts map[string]Fact    // fact key → fact
	byOID map[value.OID]Fact // class facts only: oid → fact (nil until one)
	refs  atomic.Int64       // owners beyond the first
}

// share registers one more owner (used by Clone).
func (st *predStore) share() { st.refs.Add(1) }

// cow returns a store safe to write: the receiver when it has a single
// owner, otherwise a private copy. The owner count drops only once the
// copy is taken, so the last owner cannot start writing in place while
// another is still copying.
func (st *predStore) cow() *predStore {
	if st.refs.Load() <= 0 {
		return st
	}
	defer st.refs.Add(-1)
	return &predStore{facts: maps.Clone(st.facts), byOID: maps.Clone(st.byOID)}
}

// FactSet is a set of ground facts indexed by predicate: one predStore per
// predicate holds the facts, and reads go through one view per predicate
// (a predCache), maintained incrementally by Add/Remove once built. Clone
// shares both copy-on-write, so it costs O(#predicates) and a write copies
// only the predicate it touches.
//
// A FactSet can be frozen (Freeze): all per-predicate views and component
// buckets are pre-built, reads never mutate shared state (safe for
// concurrent readers), and Add/Remove panic. Thaw re-enables mutation.
type FactSet struct {
	preds  map[string]*predStore // pred → its facts (kept once created, even empty)
	views  map[string]*predCache // pred → read view (absent = not built)
	frozen bool

	// rebuilds counts from-scratch (sorting) constructions of views; the
	// incremental-maintenance regression test asserts it stays flat
	// across mutations and clones.
	rebuilds int
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{
		preds: map[string]*predStore{},
		views: map[string]*predCache{},
	}
}

// keyed returns pred's facts by key (nil when pred was never added to).
// The map must not be mutated.
func (s *FactSet) keyed(pred string) map[string]Fact {
	if st := s.preds[pred]; st != nil {
		return st.facts
	}
	return nil
}

// --- views ----------------------------------------------------------------

// buildView assembles the read view of one predicate from scratch, in
// strict key order, without storing it.
func (s *FactSet) buildView(pred string) *predCache {
	m := s.keyed(pred)
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
	return c
}

// view returns the stored view of pred, building it (one rebuild) when
// absent.
func (s *FactSet) view(pred string) *predCache {
	c := s.views[pred]
	if c == nil {
		c = s.buildView(pred)
		s.views[pred] = c
		s.rebuilds++
	}
	return c
}

// mutableView returns the view of pred ready for in-place cache
// maintenance (copy-on-write when shared), or nil when no view is stored.
func (s *FactSet) mutableView(pred string) *predCache {
	c := s.views[pred]
	if c == nil {
		return nil
	}
	if cc := c.cow(); cc != c {
		s.views[pred] = cc
		c = cc
	}
	return c
}

// flushedView compacts and restores strict key order on the stored view c
// of pred (copy-on-write when shared) and returns it.
func (s *FactSet) flushedView(pred string, c *predCache) *predCache {
	if c.sortedLen == len(c.list) && len(c.dead) == 0 {
		return c
	}
	c = s.mutableView(pred)
	c.flushCache()
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

// SortFactsByKey sorts fs in fact key order, computing each key once.
func SortFactsByKey(fs []Fact) {
	keys := make([]string, len(fs))
	for i, f := range fs {
		keys[i] = f.Key()
	}
	sort.Sort(&factsByKey{facts: fs, keys: keys})
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

// Freeze pre-builds every predicate's view and component buckets and marks
// the set read-only: subsequent Facts/FactsByComponent calls never mutate
// shared state, making the set safe for concurrent readers; Add and Remove
// panic until Thaw. Freezing an already frozen set is a no-op.
func (s *FactSet) Freeze() {
	if s.frozen {
		return
	}
	for pred := range s.preds {
		c := s.view(pred)
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
		s.views[pred] = c
	}
	s.frozen = true
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
	c := s.views[pred]
	if c == nil {
		if s.frozen {
			return nil // a frozen set has views for every stored predicate
		}
		c = s.view(pred)
	}
	c.compact() // only a private cache holds tombstones; frozen ones hold none
	idx, ok := c.index[label]
	if !ok {
		if s.frozen {
			// The label occurs in no fact of pred (Freeze pre-builds every
			// occurring label), so every fact holds null for it.
			if _, isNull := v.(value.Null); isNull {
				return c.list
			}
			return nil
		}
		s.flushedView(pred, c) // keep bucket order = key order
		idx = s.mutableView(pred).buildBucket(label)
	}
	var buf [value.KeyBufSize]byte
	return idx[string(value.AppendKey(buf[:0], v))]
}

// Facts returns the facts of a predicate in strict key order. On a frozen
// set the view was compacted and flushed by Freeze and the read never
// mutates. The returned slice must not be mutated.
func (s *FactSet) Facts(pred string) []Fact {
	c := s.views[pred]
	if c == nil {
		if s.frozen {
			return nil // a frozen set has views for every stored predicate
		}
		c = s.view(pred)
	}
	if !s.frozen {
		c = s.flushedView(pred, c)
	}
	return c.list
}

// Has reports exact membership.
func (s *FactSet) Has(f Fact) bool {
	_, ok := s.keyed(f.Pred)[f.Key()]
	return ok
}

// HasOID reports whether the class predicate contains the oid, and returns
// its current o-value projection.
func (s *FactSet) HasOID(pred string, oid value.OID) (Fact, bool) {
	st := s.preds[pred]
	if st == nil {
		return Fact{}, false
	}
	f, ok := st.byOID[oid]
	return f, ok
}

// Size reports the number of facts for a predicate.
func (s *FactSet) Size(pred string) int { return len(s.keyed(pred)) }

// TotalSize reports the total number of facts.
func (s *FactSet) TotalSize() int {
	n := 0
	for _, st := range s.preds {
		n += len(st.facts)
	}
	return n
}

// Preds returns the predicates with at least one fact, sorted.
func (s *FactSet) Preds() []string {
	var out []string
	for p, st := range s.preds {
		if len(st.facts) > 0 {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// MaxOID returns the largest oid mentioned by any class fact.
func (s *FactSet) MaxOID() value.OID {
	var max value.OID
	for _, st := range s.preds {
		for o := range st.byOID {
			if o > max {
				max = o
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

// addKeyed is Add for a caller that already holds k == f.Key(). The view
// of f's predicate, when built, is maintained in place. A store shared
// with a clone is copied only when the add changes it.
func (s *FactSet) addKeyed(f Fact, k string) bool {
	if s.frozen {
		panic("engine: Add on frozen FactSet")
	}
	st := s.preds[f.Pred]
	if st == nil {
		st = &predStore{facts: map[string]Fact{}}
		s.preds[f.Pred] = st
	}
	var prev Fact
	var pk string
	replaced := false
	if f.IsClass {
		if prev, replaced = st.byOID[f.OID]; replaced {
			if pk = prev.Key(); pk == k {
				return false
			}
		}
	} else if _, ok := st.facts[k]; ok {
		return false
	}
	st = s.ownStore(f.Pred, st)
	if f.IsClass {
		if st.byOID == nil {
			st.byOID = map[value.OID]Fact{}
		}
		if replaced {
			delete(st.facts, pk)
			if c := s.mutableView(f.Pred); c != nil {
				c.cacheRemove(prev, pk)
			}
		}
		st.byOID[f.OID] = f
	}
	st.facts[k] = f
	if c := s.mutableView(f.Pred); c != nil {
		c.cacheAdd(f, k)
	}
	return true
}

// ownStore returns pred's store st ready to write, storing the private
// copy in its place when st is shared.
func (s *FactSet) ownStore(pred string, st *predStore) *predStore {
	if cp := st.cow(); cp != st {
		s.preds[pred] = cp
		return cp
	}
	return st
}

// Remove deletes a fact by exact identity; it reports whether it was
// present. Remove panics on a frozen set.
func (s *FactSet) Remove(f Fact) bool {
	if s.frozen {
		panic("engine: Remove on frozen FactSet")
	}
	k := f.Key()
	if _, ok := s.keyed(f.Pred)[k]; !ok {
		return false
	}
	st := s.ownStore(f.Pred, s.preds[f.Pred])
	delete(st.facts, k)
	if c := s.mutableView(f.Pred); c != nil {
		c.cacheRemove(f, k)
	}
	if f.IsClass {
		if cur, ok := st.byOID[f.OID]; ok && cur.Key() == k {
			delete(st.byOID, f.OID)
		}
	}
	return true
}

// --- set operations -------------------------------------------------------

// Clone returns an unfrozen copy in O(#predicates): every predicate's
// store and view is shared copy-on-write, so a write to the copy or the
// original copies only the predicate it touches. Views are compacted
// before sharing, so reads after Compose/Minus keep the incremental caches
// instead of paying a from-scratch O(n log n) rebuild per predicate.
func (s *FactSet) Clone() *FactSet {
	n := &FactSet{
		preds: make(map[string]*predStore, len(s.preds)),
		views: make(map[string]*predCache, len(s.views)),
	}
	for p, st := range s.preds {
		st.share()
		n.preds[p] = st
	}
	for p, c := range s.views {
		c.compact()
		c.share()
		n.views[p] = c
	}
	return n
}

// Equal reports whether two sets contain exactly the same facts. A
// predicate whose store both sets share is equal without a look.
func (s *FactSet) Equal(o *FactSet) bool {
	if s.TotalSize() != o.TotalSize() {
		return false
	}
	for p, st := range s.preds {
		if o.preds[p] == st {
			continue
		}
		om := o.keyed(p)
		for k := range st.facts {
			if _, ok := om[k]; !ok {
				return false
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

// DiffPred returns the facts of pred in s but not in old (adds) and in
// old but not in s (removes), each in key order. Membership is tested by
// the stored keys, so no fact's key is derived again; a store both sets
// share differs in nothing and is not iterated.
func (s *FactSet) DiffPred(old *FactSet, pred string) (adds, removes []Fact) {
	if s.preds[pred] == old.preds[pred] {
		return nil, nil
	}
	cur, prev := s.keyed(pred), old.keyed(pred)
	return missingFrom(cur, prev), missingFrom(prev, cur)
}

// missingFrom returns the facts of a whose keys b lacks, in key order.
func missingFrom(a, b map[string]Fact) []Fact {
	var out factsByKey
	for k, f := range a {
		if _, ok := b[k]; !ok {
			out.facts = append(out.facts, f)
			out.keys = append(out.keys, k)
		}
	}
	sort.Sort(&out)
	return out.facts
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
