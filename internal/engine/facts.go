// Package engine implements the LOGRES rule engine: compile-time analysis
// (typing, safety, oid-unification legality, stratification), the
// inflationary deterministic semantics of Appendix B (valuation domains,
// invented oids, Δ+/Δ−, the non-commutative composition ⊕ and the one-step
// inflationary operator), a semi-naive optimization for positive strata,
// the built-in predicates of §3.1, and the integrity constraints generated
// from type equations.
package engine

import (
	"bytes"
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"logres/internal/colset"
	"logres/internal/instance"
	"logres/internal/pmap"
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
	return string(f.appendKey(buf[:0]))
}

// appendKey appends the fact's Key to b.
func (f Fact) appendKey(b []byte) []byte {
	b = append(append(b, f.Pred...), '/')
	if f.IsClass {
		if f.OID.IsNil() {
			b = append(b, "nil"...)
		} else {
			b = strconv.AppendInt(append(b, '&'), int64(f.OID), 10)
		}
		b = append(b, '/')
	}
	return f.Tuple.AppendKey(b)
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
//
// Freeze seals a cache whose index lacks some occurring label: its list is
// flushed, holds no tombstones and never changes again, and each missing
// label waits in pending until its first probe builds it (see lazyBucket).
// A sole owner that writes a sealed cache unseals it first (unseal).
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

	// pending is non-nil on a sealed cache only: label → its buckets,
	// built once from the sealed list by the first probe of any owner.
	// Neither pending nor index is written while the cache is sealed, so
	// every owner reads both without a lock.
	pending map[string]*lazyBucket

	// builds counts the bucket indexes built on this cache, one per
	// label built; the tests pin how many a freeze, a probe and an unseal
	// cost.
	builds atomic.Int64

	// refs counts the owners beyond the first. Counts only grow: a clone
	// dropped without writing never gives its share back, so a view that
	// is never written gains one per query and commit for the life of the
	// process, and the count has 64 bits so that it cannot wrap negative
	// and let a clone write into the published set. It can reach -1, when
	// every owner copies at once, so cow tests for <= 0.
	refs atomic.Int64
}

// lazyBucket is one label's buckets on a sealed cache, built by the first
// probe. Concurrent probes, through the frozen set or any clone sharing
// the cache, wait for that one build and share its result.
type lazyBucket struct {
	once sync.Once
	idx  map[string][]Fact
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
// owner, otherwise a private, unsealed copy (the bucket index, built and
// pending alike, is dropped and rebuilt lazily — an O(n) build per queried
// label, never a re-sort). The caller must store the returned cache back
// in place of the receiver, and unseal the receiver before writing it. A
// shared cache never holds tombstones (Clone compacts before sharing), so
// the copy and every read of a shared cache leave it untouched. The owner
// count drops only once the copy is taken, so the last owner cannot start
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

// predStore holds one predicate's facts by canonical key and, for a
// class, by oid (so the right-biased composition ⊕ can resolve o-value
// conflicts, and MaxOID reads the largest oid off the last key). Both are
// persistent ordered maps: a FactSet writes them with its owner tag, a
// clone shares them as they are, and a write copies the O(log n) nodes
// on its path that the writer does not own.
type predStore struct {
	facts pmap.Map[string, Fact]
	byOID pmap.Map[value.OID, Fact] // class facts only
}

// codedPred is the part of an association predicate still in code space:
// the rows a columnar stratum derived, handed over at its fixpoint
// instead of being decoded into the predicate's store. batch is the
// predicate's whole extension as that stratum saw it: rows [0, base)
// encode the facts the store already held, rows [base, Len) are the
// derived ones, in emit order, each distinct from every stored fact and
// from each other (the emit filter saw them all). A codedPred is never
// written after the hand-off, so the owners of a cloned set share it,
// and the run that made it interns into dict no more once it returns.
type codedPred struct {
	dict   *colset.Dict
	labels []string // the effective labels, in declaration order
	batch  *colset.Batch
	base   int
}

// pending reports the rows not yet in the store.
func (cp *codedPred) pending() int { return cp.batch.Len() - cp.base }

// FactSet is a set of ground facts indexed by predicate: one predStore per
// predicate holds the facts, and reads go through one view per predicate
// (a predCache), maintained incrementally by Add/Remove once built. Clone
// shares both, so it costs O(#predicates). A write to a store copies the
// O(log n) nodes on its path that the set's owner tag does not own; a
// write to a shared view copies the view.
//
// The stores need no share counts: a set writes every store with one
// owner tag, and Clone retires it, so a node built before a clone is
// never written in place again by either side. Telling whether
// two sets share a predicate's store is one pointer comparison, and
// DiffPred and Equal walk only the subtrees two stores do not share.
//
// An association predicate a columnar stratum derived may also hold rows
// in code space (a codedPred) on top of its store. They are decoded into
// the store once, by the first read of that predicate (Facts,
// FactsByComponent, Has, DiffPred, Equal) or write to it (Add, Remove);
// Size, TotalSize and Preds count them without decoding, and HasOID and
// MaxOID, which read class facts only, never need them. Clone shares
// them; Freeze decodes every one, so a frozen set holds none.
//
// A FactSet can be frozen (Freeze): every per-predicate view is built and
// its list sealed, and each component bucket is built once, on the first
// probe of its label, by whichever owner of the view probes first. Reads
// never mutate shared state otherwise (safe for concurrent readers), and
// Add/Remove panic. Thaw re-enables mutation.
type FactSet struct {
	preds  map[string]predStore  // pred → its facts (kept once created, even empty)
	views  map[string]*predCache // pred → read view (absent = not built)
	coded  map[string]*codedPred // pred → its rows still in code space (nil when none)
	frozen bool

	// owner tags the store nodes this set may write in place; nil until
	// the first write after NewFactSet or Clone. It is atomic because
	// concurrent readers of a frozen set may clone it: the first clone
	// retires the tag, so a set that was never cloned while frozen
	// writes its own nodes in place again after Thaw.
	owner atomic.Pointer[pmap.Owner]

	// rebuilds counts from-scratch (sorting) constructions of views; the
	// incremental-maintenance regression test asserts it stays flat
	// across mutations and clones.
	rebuilds int
	// decodes counts the code-space predicates decoded into this set and
	// the sets it was cloned from; the tests pin which reads decode.
	decodes int
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{
		preds: map[string]predStore{},
		views: map[string]*predCache{},
	}
}

// keyed returns pred's facts by key (empty when pred was never added to),
// decoding its code-space rows first.
func (s *FactSet) keyed(pred string) pmap.Map[string, Fact] {
	s.decode(pred)
	return s.preds[pred].facts
}

// tag returns the owner the set writes its stores with, taking a fresh
// one when a Clone retired the last.
func (s *FactSet) tag() *pmap.Owner {
	o := s.owner.Load()
	if o == nil {
		o = pmap.NewOwner()
		s.owner.Store(o)
	}
	return o
}

// --- code space -----------------------------------------------------------

// setCoded hands pred's rows past cp.base over in code space, in place of
// decoding them now. pred must hold exactly the first cp.base rows of
// cp.batch in its store, and no code-space rows. A hand-off with nothing
// derived records nothing.
func (s *FactSet) setCoded(pred string, cp *codedPred) {
	if s.frozen {
		panic("engine: setCoded on frozen FactSet")
	}
	if cp.pending() == 0 {
		return
	}
	if _, ok := s.preds[pred]; !ok {
		s.preds[pred] = predStore{}
	}
	if s.coded == nil {
		s.coded = map[string]*codedPred{}
	}
	s.coded[pred] = cp
}

// codedBatch returns pred's whole extension as a batch encoded in dict —
// its stored facts first, then its code-space rows — when it is still
// pending in code space from a run interning into dict, or nil.
func (s *FactSet) codedBatch(pred string, dict *colset.Dict) *colset.Batch {
	if cp := s.coded[pred]; cp != nil && cp.dict == dict {
		return cp.batch
	}
	return nil
}

// decode moves pred's code-space rows, if any, into its store and into
// its view, in key order. When the store held nothing else and no view
// was built, the decode builds the view: it is already flushed.
func (s *FactSet) decode(pred string) {
	if cp := s.coded[pred]; cp != nil {
		s.decodeCoded(pred, cp)
	}
}

func (s *FactSet) decodeCoded(pred string, cp *codedPred) {
	delete(s.coded, pred)
	s.decodes++
	n := cp.pending()
	st := s.preds[pred]
	fresh := st.facts.Len() == 0
	c := s.mutableView(pred)
	built := c == nil && fresh
	if built {
		c = &predCache{
			list:      make([]Fact, 0, n),
			keys:      make([]string, 0, n),
			sortedLen: n,
			index:     map[string]map[string][]Fact{},
			labels:    make(map[string]bool, len(cp.labels)),
		}
		for _, lab := range cp.labels {
			c.labels[lab] = true
		}
		s.views[pred] = c
	}
	// The rows are decoded in fact key order, so a view built here is
	// flushed, and a store that held nothing is built in one pass. The
	// tuples share one allocation, and so do the keys: one string the
	// keys are cut from.
	order := cp.keyOrder()
	tuples := value.NewTuples(cp.labels, n, func(i, li int) value.Value {
		if order != nil {
			i = int(order[i])
		}
		return cp.dict.Value(cp.batch.Col(li)[cp.base+i])
	})
	var buf []byte
	ends := make([]int, n)
	for i, t := range tuples {
		buf = Fact{Pred: pred, Tuple: t}.appendKey(buf)
		if i == 0 {
			buf = slices.Grow(buf, len(buf)*(n-1)*9/8) // keys of one shape are about as long
		}
		ends[i] = len(buf)
	}
	keys, start := string(buf), 0
	at := func(i int) (string, Fact) {
		f, k := Fact{Pred: pred, Tuple: tuples[i]}, keys[start:ends[i]]
		start = ends[i]
		switch {
		case built:
			c.list, c.keys = append(c.list, f), append(c.keys, k)
		case c != nil:
			c.cacheAdd(f, k)
		}
		return k, f
	}
	if fresh {
		st.facts = pmap.Build(s.tag(), n, at)
	} else {
		o := s.tag()
		for i := range tuples {
			k, f := at(i)
			st.facts.Insert(o, k, f)
		}
	}
	s.preds[pred] = st
}

// keyOrder returns the pending rows, as offsets from base, in the key
// order of the facts they decode to; nil stands for a single row. Every
// pending row decodes to a tuple with the same labels in the same order,
// so two rows' keys compare as their values' field parts do, column by
// column (value.AppendFieldKey). The rows are therefore ordered by the
// rank of each column's value among the distinct values: a counting sort
// per column, last column first, with no key built.
func (cp *codedPred) keyOrder() []int32 {
	lo, hi := cp.base, cp.batch.Len()
	if hi-lo < 2 {
		return nil
	}
	rank := map[uint32]int32{}
	var codes []uint32
	for li := range cp.labels {
		for _, c := range cp.batch.Col(li)[lo:hi] {
			if _, ok := rank[c]; !ok {
				rank[c] = 0
				codes = append(codes, c)
			}
		}
	}
	slices.SortFunc(codes, func(a, b uint32) int {
		var x, y [value.KeyBufSize]byte
		return bytes.Compare(value.AppendFieldKey(x[:0], cp.dict.Value(a)), value.AppendFieldKey(y[:0], cp.dict.Value(b)))
	})
	for i, c := range codes {
		rank[c] = int32(i)
	}
	n := hi - lo
	scratch := make([]int32, 3*n+len(codes)+1)
	order, next, col, count := scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:]
	for i := range order {
		order[i] = int32(i)
	}
	for li := len(cp.labels) - 1; li >= 0; li-- {
		for r, c := range cp.batch.Col(li)[lo:hi] {
			col[r] = rank[c]
		}
		clear(count)
		for _, k := range col {
			count[k+1]++
		}
		for k := 1; k < len(count); k++ {
			count[k] += count[k-1]
		}
		for _, r := range order { // stable: ties keep the later columns' order
			next[count[col[r]]] = r
			count[col[r]]++
		}
		order, next = next, order
	}
	return order
}

// decodeAll decodes every code-space predicate.
func (s *FactSet) decodeAll() {
	for pred, cp := range s.coded {
		s.decodeCoded(pred, cp)
	}
}

// --- views ----------------------------------------------------------------

// buildView assembles the read view of one predicate from scratch, in
// strict key order (the store's own), without storing it.
func (s *FactSet) buildView(pred string) *predCache {
	m := s.keyed(pred)
	facts := make([]Fact, 0, m.Len())
	keys := make([]string, 0, m.Len())
	m.Ascend(func(k string, f Fact) bool {
		keys = append(keys, k)
		facts = append(facts, f)
		return true
	})
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
// maintenance (copy-on-write when shared, unsealed when sealed), or nil
// when no view is stored.
func (s *FactSet) mutableView(pred string) *predCache {
	c := s.views[pred]
	if c == nil {
		return nil
	}
	if cc := c.cow(); cc != c {
		s.views[pred] = cc
		return cc
	}
	c.unseal()
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

// buildBucket constructs and stores the component buckets of one label
// from the current list order (the cache must be compacted and unsealed).
func (c *predCache) buildBucket(label string) map[string][]Fact {
	idx := c.bucketsOf(label)
	c.index[label] = idx
	return idx
}

// bucketsOf builds the component buckets of one label from the current
// list order without storing them.
func (c *predCache) bucketsOf(label string) map[string][]Fact {
	c.builds.Add(1)
	idx := map[string][]Fact{}
	for _, f := range c.list {
		bk := componentKey(f, label)
		idx[bk] = append(idx[bk], f)
	}
	return idx
}

// lazy returns label's buckets on a sealed cache, building them from the
// sealed list on the first call for lb by any owner.
func (c *predCache) lazy(lb *lazyBucket, label string) map[string][]Fact {
	lb.once.Do(func() { lb.idx = c.bucketsOf(label) })
	return lb.idx
}

// seal marks a flushed cache read-only: every occurring label without a
// bucket becomes pending, to be built on its first probe. A cache with
// every bucket already built stays unsealed; nothing about it is pending.
func (c *predCache) seal() {
	for label := range c.labels {
		if _, ok := c.index[label]; !ok {
			if c.pending == nil {
				c.pending = map[string]*lazyBucket{}
			}
			c.pending[label] = &lazyBucket{}
		}
	}
}

// unseal readies a sealed cache for its sole owner's in-place writes:
// every pending label is built, from the sealed list, before any write
// lands, so the buckets then maintained in place start in the order
// Freeze would have built them in.
func (c *predCache) unseal() {
	for label, lb := range c.pending {
		c.index[label] = c.lazy(lb, label)
	}
	c.pending = nil
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

// Freeze decodes every code-space predicate, builds, compacts and
// flushes every predicate's view, seals the views that lack some bucket,
// and marks the set read-only: a frozen set holds no code-space rows,
// Facts never mutates, FactsByComponent builds a missing label's buckets
// once per sealed view (see lazyBucket), so the set is safe for
// concurrent readers;
// Add and Remove panic until Thaw. A view still shared with an owner that
// may write it is copied before sealing, so that owner's buckets are never
// sealed under it. Freezing an already frozen set is a no-op.
func (s *FactSet) Freeze() {
	if s.frozen {
		return
	}
	s.decodeAll()
	for pred := range s.preds {
		c := s.view(pred)
		if c.pending != nil {
			continue // sealed by an earlier Freeze: nothing can have changed
		}
		if c.sortedLen != len(c.list) || len(c.dead) > 0 {
			c = c.cow()
			c.flushCache()
		}
		for label := range c.labels {
			if _, ok := c.index[label]; !ok {
				c = c.cow()
				c.seal()
				break
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
// be mutated. A missing index is built on the first lookup of its label,
// so bucket order follows fact key order. On a sealed view that build is
// shared by every owner, at most once per label, and otherwise the lookup
// is read-only. Pending removals are compacted first, but the list is not
// re-sorted for a lookup on an existing index.
func (s *FactSet) FactsByComponent(pred, label string, v value.Value) []Fact {
	s.decode(pred)
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
		if lb := c.pending[label]; lb != nil {
			idx = c.lazy(lb, label)
		} else if s.frozen {
			// The label occurs in no fact of pred (Freeze seals every
			// occurring label), so every fact holds null for it.
			if _, isNull := v.(value.Null); isNull {
				return c.list
			}
			return nil
		} else {
			s.flushedView(pred, c) // keep bucket order = key order
			idx = s.mutableView(pred).buildBucket(label)
		}
	}
	var buf [value.KeyBufSize]byte
	return idx[string(value.AppendKey(buf[:0], v))]
}

// Facts returns the facts of a predicate in strict key order, decoding
// its code-space rows on the first read. On a frozen set the view was
// compacted and flushed by Freeze and the read never mutates. The
// returned slice must not be mutated.
func (s *FactSet) Facts(pred string) []Fact {
	s.decode(pred)
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
	_, ok := s.keyed(f.Pred).Get(f.Key())
	return ok
}

// HasOID reports whether the class predicate contains the oid, and returns
// its current o-value projection. Code-space rows are association facts,
// so it never decodes them.
func (s *FactSet) HasOID(pred string, oid value.OID) (Fact, bool) {
	return s.preds[pred].byOID.Get(oid)
}

// Size reports the number of facts for a predicate, code-space rows
// included, without decoding them.
func (s *FactSet) Size(pred string) int {
	n := s.preds[pred].facts.Len()
	if cp := s.coded[pred]; cp != nil {
		n += cp.pending()
	}
	return n
}

// TotalSize reports the total number of facts, code-space rows included,
// without decoding them.
func (s *FactSet) TotalSize() int {
	n := 0
	for _, st := range s.preds {
		n += st.facts.Len()
	}
	for _, cp := range s.coded {
		n += cp.pending()
	}
	return n
}

// Preds returns the predicates with at least one fact, sorted, without
// decoding code-space rows.
func (s *FactSet) Preds() []string {
	var out []string
	for p, st := range s.preds {
		if st.facts.Len() > 0 || s.coded[p] != nil {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// MaxOID returns the largest oid mentioned by any class fact (code-space
// rows hold none): the last oid of each class predicate.
func (s *FactSet) MaxOID() value.OID {
	var max value.OID
	for _, st := range s.preds {
		if o, _, ok := st.byOID.Max(); ok && o > max {
			max = o
		}
	}
	return max
}

// --- mutation -------------------------------------------------------------

// Add inserts a fact. For class facts an existing fact with the same oid is
// replaced (the newer o-value wins — the ⊕ bias); the method reports
// whether the set changed. The view of f's predicate, when built, is
// maintained in place, and the store is written only when the add
// changes it. Add panics on a frozen set.
func (s *FactSet) Add(f Fact) bool {
	if s.frozen {
		panic("engine: Add on frozen FactSet")
	}
	s.decode(f.Pred)
	k := f.Key()
	st := s.preds[f.Pred]
	var prev Fact
	var pk string
	replaced := false
	if f.IsClass {
		if prev, replaced = st.byOID.Get(f.OID); replaced {
			if pk = prev.Key(); pk == k {
				return false
			}
		}
	}
	o := s.tag()
	if !st.facts.Insert(o, k, f) {
		return false
	}
	if f.IsClass {
		if replaced {
			st.facts.Delete(o, pk)
			if c := s.mutableView(f.Pred); c != nil {
				c.cacheRemove(prev, pk)
			}
		}
		st.byOID.Set(o, f.OID, f)
	}
	s.preds[f.Pred] = st
	if c := s.mutableView(f.Pred); c != nil {
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
	s.decode(f.Pred)
	k := f.Key()
	st := s.preds[f.Pred]
	o := s.tag()
	if _, ok := st.facts.Delete(o, k); !ok {
		return false
	}
	if f.IsClass {
		if cur, ok := st.byOID.Get(f.OID); ok && cur.Key() == k {
			st.byOID.Delete(o, f.OID)
		}
	}
	s.preds[f.Pred] = st
	if c := s.mutableView(f.Pred); c != nil {
		c.cacheRemove(f, k)
	}
	return true
}

// --- set operations -------------------------------------------------------

// Clone returns an unfrozen copy in O(#predicates). Every predicate's
// store is shared as it is, and the receiver's owner tag is retired, so
// a write to either side path-copies the store nodes it touches. Every
// view is shared copy-on-write, so a write copies only the view of the
// predicate it touches, and code-space rows, never written, are shared
// as they are: each owner decodes its own on its first read. Views are
// compacted before sharing, so reads after Compose/Minus keep the
// incremental caches instead of paying a from-scratch O(n log n) rebuild
// per predicate.
func (s *FactSet) Clone() *FactSet {
	if s.owner.Load() != nil {
		s.owner.Store(nil)
	}
	n := &FactSet{
		preds:   maps.Clone(s.preds),
		views:   make(map[string]*predCache, len(s.views)),
		decodes: s.decodes,
	}
	if len(s.coded) > 0 {
		n.coded = maps.Clone(s.coded)
	}
	for p, c := range s.views {
		c.compact()
		c.share()
		n.views[p] = c
	}
	return n
}

// Equal reports whether two sets contain exactly the same facts. A
// predicate whose store and code-space rows both sets share is equal
// without a look, any other predicate with code-space rows is decoded on
// both sides, and two stores are compared over the subtrees they do not
// share.
func (s *FactSet) Equal(o *FactSet) bool {
	if s.TotalSize() != o.TotalSize() {
		return false
	}
	for _, a := range [2]*FactSet{s, o} {
		for p := range a.coded {
			if s.coded[p] != o.coded[p] || !s.preds[p].facts.Same(o.preds[p].facts) {
				s.decode(p)
				o.decode(p)
			}
		}
	}
	differs := func(string, Fact, bool) bool { return false }
	for p, st := range s.preds {
		if !pmap.Diff(st.facts, o.preds[p].facts, differs) {
			return false
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
// old but not in s (removes), each in key order. A store and code-space
// rows both sets share differ in nothing and are not looked at; two
// stores are compared by their stored keys over the subtrees they do not
// share, so diffing a set against the one it was cloned from costs
// O(|Δ| log n). Other code-space rows of pred are decoded on both sides.
func (s *FactSet) DiffPred(old *FactSet, pred string) (adds, removes []Fact) {
	if s.preds[pred].facts.Same(old.preds[pred].facts) && s.coded[pred] == old.coded[pred] {
		return nil, nil
	}
	pmap.Diff(s.keyed(pred), old.keyed(pred), func(_ string, f Fact, inS bool) bool {
		if inS {
			adds = append(adds, f)
		} else {
			removes = append(removes, f)
		}
		return true
	})
	return adds, removes
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
