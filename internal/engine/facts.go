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

// componentKey is the bucket key of f under label (null when f lacks it).
func componentKey(f Fact, label string) string {
	cv, found := f.Tuple.Get(label)
	if !found {
		return nullKey
	}
	return cv.Key()
}

// predStore is one predicate: its facts by canonical key and, for a
// class, by oid (so the right-biased composition ⊕ can resolve o-value
// conflicts, and MaxOID reads the largest oid off the last key), and one
// index per component label ever probed, from value key to bucket. All
// are persistent ordered maps: a FactSet writes them with its owner tag,
// a clone shares them as they are, and a write copies the O(log n) nodes
// on its path that the writer does not own. An index, once built, is
// kept up to date by every write, so a clone starts with it built.
type predStore struct {
	facts pmap.Map[string, Fact]
	byOID pmap.Map[value.OID, Fact] // class facts only

	// index is shared with clones like the maps; indexOwner is the tag
	// of the set that may write the slice in place.
	index      []labelIndex
	indexOwner *pmap.Owner
}

// labelIndex maps the value key of one component label to the bucket of
// facts holding that value (a missing component is null).
type labelIndex struct {
	label   string
	buckets pmap.Map[string, bucket]
}

// bucket is the facts of one label value, in the order they were
// indexed. Versions of a bucket may share one backing array (arr): a
// version appends in place only when it claims the array's next free
// slot, and a version removes in place only from an array its writer
// made and no read has been handed, so a slice a read returned never
// changes. Any other write copies the bucket.
type bucket struct {
	facts []Fact
	arr   *bucketArr // nil when facts' array has no room and is not the writer's
}

// bucketArr is the state of one bucket array.
type bucketArr struct {
	owner *pmap.Owner  // the writer that made the array
	used  atomic.Int32 // the claimed length
	lent  atomic.Bool  // a read returned a slice of it
}

// newBucket returns a bucket of facts in an array o made, with room for
// facts up to cap.
func newBucket(o *pmap.Owner, facts []Fact) bucket {
	arr := &bucketArr{owner: o}
	arr.used.Store(int32(len(facts)))
	return bucket{facts, arr}
}

// with returns the bucket with f appended: in place, amortised O(1),
// when this version holds the end of its array, else into a fresh array
// o makes.
func (b bucket) with(o *pmap.Owner, f Fact) bucket {
	n := len(b.facts)
	if n < cap(b.facts) && b.arr.used.CompareAndSwap(int32(n), int32(n+1)) {
		return bucket{append(b.facts, f), b.arr}
	}
	return newBucket(o, append(b.facts[:n:n], f))
}

// without returns the bucket without f, which it holds as stored (the
// same tuple, not an equal one), in the same order: in place when o made
// the array, no read was handed it and this version holds its end, else
// in a copy o makes, with room for one more fact.
func (b bucket) without(o *pmap.Owner, f Fact) bucket {
	i := slices.IndexFunc(b.facts, func(g Fact) bool { return g.OID == f.OID && g.Tuple.Same(f.Tuple) })
	if i < 0 {
		return b
	}
	n := len(b.facts)
	if a := b.arr; a != nil && a.owner == o && !a.lent.Load() && a.used.Load() == int32(n) {
		copy(b.facts[i:], b.facts[i+1:])
		b.facts[n-1] = Fact{}
		b.facts = b.facts[:n-1]
		a.used.Store(int32(n - 1))
		return b
	}
	out := make([]Fact, n-1, n)
	copy(out, b.facts[:i])
	copy(out[i:], b.facts[i+1:])
	return newBucket(o, out)
}

// indexOf returns the index of label, if one is built.
func (st predStore) indexOf(label string) (pmap.Map[string, bucket], bool) {
	for _, ix := range st.index {
		if ix.label == label {
			return ix.buckets, true
		}
	}
	return pmap.Map[string, bucket]{}, false
}

// ownIndex readies the index slice for o's writes, copying it when
// another set may hold it.
func (st *predStore) ownIndex(o *pmap.Owner) {
	if st.indexOwner != o {
		st.index = slices.Clone(st.index)
		st.indexOwner = o
	}
}

// indexAdd files the stored fact f in every built index.
func (st *predStore) indexAdd(o *pmap.Owner, f Fact) {
	if len(st.index) == 0 {
		return
	}
	st.ownIndex(o)
	for i := range st.index {
		ix := &st.index[i]
		bk := componentKey(f, ix.label)
		b, _ := ix.buckets.Get(bk)
		ix.buckets.Set(o, bk, b.with(o, f))
	}
}

// indexRemove takes the stored fact f out of every built index; a bucket
// left empty leaves its index.
func (st *predStore) indexRemove(o *pmap.Owner, f Fact) {
	if len(st.index) == 0 {
		return
	}
	st.ownIndex(o)
	for i := range st.index {
		ix := &st.index[i]
		bk := componentKey(f, ix.label)
		if b, _ := ix.buckets.Get(bk); len(b.facts) > 1 {
			ix.buckets.Set(o, bk, b.without(o, f))
		} else {
			ix.buckets.Delete(o, bk)
		}
	}
}

// buildIndex returns the index of label over facts, written with o: one
// walk files every fact under its value key in key order, into one array
// the buckets are cut from.
func buildIndex(o *pmap.Owner, facts pmap.Map[string, Fact], label string) pmap.Map[string, bucket] {
	keys := make([]string, 0, facts.Len())
	at := map[string]int{} // a bucket's size, then its next free slot
	facts.Ascend(func(_ string, f Fact) bool {
		k := componentKey(f, label)
		keys = append(keys, k)
		at[k]++
		return true
	})
	distinct := make([]string, 0, len(at))
	for k := range at {
		distinct = append(distinct, k)
	}
	sort.Strings(distinct)
	next := 0
	for _, k := range distinct {
		at[k], next = next, next+at[k]
	}
	all, i := make([]Fact, len(keys)), 0
	facts.Ascend(func(_ string, f Fact) bool {
		all[at[keys[i]]] = f
		at[keys[i]]++
		i++
		return true
	})
	lo := 0
	return pmap.Build(o, len(distinct), func(j int) (string, bucket) {
		hi := at[distinct[j]]
		b := bucket{facts: all[lo:hi:hi]}
		lo = hi
		return distinct[j], b
	})
}

// codedPred is the part of an association predicate still in code space:
// the rows a columnar stratum derived, handed over at its fixpoint
// instead of being decoded into the predicate's store. batch is the
// predicate's whole extension as that stratum saw it: rows [0, base)
// encode the facts the store already held, rows [base, Len) are the
// derived ones, in emit order, each distinct from every stored fact and
// from each other (the emit filter saw them all). A codedPred's rows are
// never written after the hand-off, so the owners of a cloned set share
// it, and the run that made it interns into dict no more once it returns.
//
// A lookup that fixes an argument reads the pending rows in code space
// (lookupRows) through index, which the owners share too: mu orders its
// builds, and readers load it without a lock.
type codedPred struct {
	dict   *colset.Dict
	labels []string // the effective labels, in declaration order
	batch  *colset.Batch
	base   int

	mu    sync.Mutex
	index atomic.Pointer[codedIndex]
}

// pending reports the rows not yet in the store.
func (cp *codedPred) pending() int { return cp.batch.Len() - cp.base }

// codedIndex is what the lookups of one codedPred built: for each label
// position a probe fixed, the pending rows by code, and each pending row's
// tuple, decoded by the first lookup that matched the row. A build
// publishes a new version with one more column; every version shares
// one rows slice.
type codedIndex struct {
	cols []*codeColumn                 // by label position; nil until probed
	rows []atomic.Pointer[value.Tuple] // by pending row; nil until decoded
}

// codeColumn is one column's pending rows (offsets from base) by code:
// the rows of the code with dense id i are rows[start[i]:start[i+1]], in
// row order.
type codeColumn struct {
	id    map[uint32]int32
	start []int32
	rows  []int32
}

// of returns the pending rows holding code c.
func (cc *codeColumn) of(c uint32) []int32 {
	i, ok := cc.id[c]
	if !ok {
		return nil
	}
	return cc.rows[cc.start[i]:cc.start[i+1]]
}

// indexed returns cp's index with label position li's column built (li
// < 0 builds none), building it on the first probe of li by any owner.
func (cp *codedPred) indexed(li int) *codedIndex {
	if ix := cp.index.Load(); ix != nil && (li < 0 || ix.cols[li] != nil) {
		return ix
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	old := cp.index.Load()
	if old != nil && (li < 0 || old.cols[li] != nil) {
		return old // another owner built it while this one waited
	}
	ix := &codedIndex{cols: make([]*codeColumn, len(cp.labels))}
	if old != nil {
		copy(ix.cols, old.cols)
		ix.rows = old.rows
	} else {
		ix.rows = make([]atomic.Pointer[value.Tuple], cp.pending())
	}
	if li >= 0 {
		ix.cols[li] = buildCodeColumn(cp.batch.Col(li)[cp.base:cp.batch.Len()])
	}
	cp.index.Store(ix)
	return ix
}

// buildCodeColumn files the rows of col by code: one pass numbers the
// distinct codes and counts them, one cuts their rows from one array.
func buildCodeColumn(col []uint32) *codeColumn {
	cc := &codeColumn{id: map[uint32]int32{}}
	ids := make([]int32, len(col))
	var count []int32
	for r, c := range col {
		i, ok := cc.id[c]
		if !ok {
			i = int32(len(count))
			cc.id[c] = i
			count = append(count, 0)
		}
		count[i]++
		ids[r] = i
	}
	cc.start = make([]int32, len(count)+1)
	for i, n := range count {
		cc.start[i+1] = cc.start[i] + n
	}
	next := count // reused: the next free slot of each code
	copy(next, cc.start)
	cc.rows = make([]int32, len(col))
	for r, i := range ids {
		cc.rows[next[i]] = int32(r)
		next[i]++
	}
	return cc
}

// lookupRows returns the pending rows that agree with every fixed
// argument, exactly, and the index to decode them through. Each fixed
// value is encoded with the run's dictionary: a value it lacks matches no
// row, and a label outside the effective labels matches every row when
// fixed to null (rows decode to tuples without it) and none otherwise.
// The rows come from the smallest bucket among the fixed labels' built
// columns, or else from the first fixed label's column, built now, and
// are filtered by the other codes.
func (cp *codedPred) lookupRows(fixed []fixedArg) (*codedIndex, []int32) {
	type colCode struct {
		li int
		c  uint32
	}
	var buf [8]colCode
	want := buf[:0]
	for _, a := range fixed {
		li := slices.Index(cp.labels, a.label)
		if li < 0 {
			if _, null := a.v.(value.Null); null {
				continue
			}
			return nil, nil
		}
		c, ok := cp.dict.Lookup(a.v)
		if !ok {
			return nil, nil
		}
		want = append(want, colCode{li, c})
	}
	if len(want) == 0 {
		rows := make([]int32, cp.pending())
		for r := range rows {
			rows[r] = int32(r)
		}
		return cp.indexed(-1), rows
	}
	ix, probe := cp.index.Load(), -1
	var rows []int32
	if ix != nil {
		for k, w := range want {
			if cc := ix.cols[w.li]; cc != nil {
				if b := cc.of(w.c); probe < 0 || len(b) < len(rows) {
					probe, rows = k, b
				}
			}
		}
	}
	if probe < 0 {
		ix, probe = cp.indexed(want[0].li), 0
		rows = ix.cols[want[0].li].of(want[0].c)
	}
	if len(want) == 1 {
		return ix, rows
	}
	var kept []int32
	for _, r := range rows {
		ok := true
		for k, w := range want {
			if k != probe && cp.batch.Col(w.li)[cp.base+int(r)] != w.c {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, r)
		}
	}
	return ix, kept
}

// lookup returns, as facts of pred, the pending rows that agree with
// every fixed argument (lookupRows), each decoded at most once per
// codedPred, whichever owner asks.
func (cp *codedPred) lookup(pred string, fixed []fixedArg) []Fact {
	ix, rows := cp.lookupRows(fixed)
	if len(rows) == 0 {
		return nil
	}
	missing := 0
	for _, r := range rows {
		if ix.rows[r].Load() == nil {
			missing++
		}
	}
	if missing > 0 {
		cp.mu.Lock()
		todo := make([]int32, 0, missing)
		for _, r := range rows {
			if ix.rows[r].Load() == nil { // another owner may have decoded it since
				todo = append(todo, r)
			}
		}
		ts := value.NewTuples(cp.labels, len(todo), func(i, li int) value.Value {
			return cp.dict.Value(cp.batch.Col(li)[cp.base+int(todo[i])])
		})
		for i, r := range todo {
			ix.rows[r].Store(&ts[i])
		}
		cp.mu.Unlock()
	}
	out := make([]Fact, len(rows))
	for i, r := range rows {
		out[i] = Fact{Pred: pred, Tuple: *ix.rows[r].Load()}
	}
	return out
}

// holds reports whether a pending row decodes to a tuple equal to t: one
// with the effective labels, in declaration order, and the row's values.
func (cp *codedPred) holds(t value.Tuple) bool {
	if t.Len() != len(cp.labels) {
		return false
	}
	var buf [8]fixedArg
	fixed := buf[:0]
	for li, label := range cp.labels {
		f := t.Field(li)
		if f.Label != label {
			return false
		}
		fixed = append(fixed, fixedArg{label: label, v: f.Value})
	}
	_, rows := cp.lookupRows(fixed)
	return len(rows) > 0
}

// FactSet is a set of ground facts indexed by predicate: one predStore
// per predicate, which is also every access path to its facts. Facts
// walks its facts map in key order, and FactsByComponent reads a bucket
// of its label index. Clone shares every store, so it costs
// O(#predicates), and a write copies the O(log n) nodes on its path that
// the set's owner tag does not own, and at most the buckets it removes
// from.
//
// The stores need no share counts: a set writes every store with one
// owner tag, and Clone retires it, so a node built before a clone is
// never written in place again by either side. Telling whether
// two sets share a predicate's store is one pointer comparison, and
// DiffPred and Equal walk only the subtrees two stores do not share.
//
// An association predicate a columnar stratum derived may also hold rows
// in code space (a codedPred) on top of its store. They are decoded into
// the store once, by the first walk of that predicate (Facts, Each),
// DiffPred, Equal or write to it (Add, Remove). A read that fixes an
// argument (lookup, FactsByComponent, Has) reads them in code space and
// decodes only the rows it matches, each once (codedPred.lookup); Size,
// TotalSize and Preds count them without decoding, and HasOID and
// MaxOID, which read class facts only, never need them. Clone shares
// them; Freeze decodes every one, so a frozen set holds none.
//
// A FactSet can be frozen (Freeze): reads then never write the set, save
// that the first probe of a label no index exists for builds it, once,
// for every reader (see lazyIndexes), so the set is safe for concurrent
// readers, and Add/Remove panic; its Clone is writable.
//
// A set can also carry a mark: the schema whose isa steps it is closed
// under, which a run that verified it sets on its result (runGuarded).
// Every Add or Remove that changes the set, and setCoded, clears it;
// Clone and Freeze keep it.
type FactSet struct {
	preds  map[string]predStore  // pred → its facts (kept once created, even empty)
	coded  map[string]*codedPred // pred → its rows still in code space (nil when none)
	frozen bool
	closed *types.Schema // the schema whose isa steps the set is closed under, by identity

	// owner tags the store nodes this set may write in place; nil until
	// the first write after NewFactSet or Clone. It is atomic because
	// concurrent readers of a frozen set may clone it: the first clone
	// retires the tag.
	owner atomic.Pointer[pmap.Owner]

	// walks counts the All iterations of an unfrozen set in progress.
	// pinned is set when one starts and cleared when a write retires the
	// owner, so a write during a walk copies the nodes the walk reads
	// instead of changing them under it.
	walks  int
	pinned bool

	// lazy holds the indexes readers of the frozen set built; Clone
	// moves them into its stores.
	lazy lazyIndexes

	// decodes counts the code-space predicates decoded into this set and
	// the sets it was cloned from; the tests pin which reads decode.
	decodes int
}

// lazyIndexes are the label indexes the readers of a frozen set built,
// by predicate and label. A probe reads them without a lock; a build
// takes mu, so each is built once, and publishes a new map.
type lazyIndexes struct {
	mu    sync.Mutex
	built atomic.Pointer[map[[2]string]pmap.Map[string, bucket]]
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{preds: map[string]predStore{}}
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

// writer returns the owner a write uses: the set's tag, retired first
// when a walk in progress may be reading the nodes it owns.
func (s *FactSet) writer() *pmap.Owner {
	if s.pinned {
		s.owner.Store(nil)
		s.pinned = false
	}
	return s.tag()
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
	s.closed = nil
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

// decode moves pred's code-space rows, if any, into its store and its
// built indexes, in key order.
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
	// The rows are decoded in fact key order, so a store that held
	// nothing is built in one pass. The tuples share one allocation, and
	// so do the keys: one string the keys are cut from. A row a lookup
	// already decoded keeps its tuple.
	order := cp.keyOrder()
	row := func(i int) int {
		if order != nil {
			return int(order[i])
		}
		return i
	}
	tuples := make([]value.Tuple, n)
	ix := cp.index.Load()
	todo := make([]int, 0, n)
	for i := range tuples {
		if ix == nil {
			todo = append(todo, i)
		} else if t := ix.rows[row(i)].Load(); t != nil {
			tuples[i] = *t
		} else {
			todo = append(todo, i)
		}
	}
	fresh := value.NewTuples(cp.labels, len(todo), func(k, li int) value.Value {
		return cp.dict.Value(cp.batch.Col(li)[cp.base+row(todo[k])])
	})
	for k, i := range todo {
		tuples[i] = fresh[k]
	}
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
		k := keys[start:ends[i]]
		start = ends[i]
		return k, Fact{Pred: pred, Tuple: tuples[i]}
	}
	o := s.writer()
	if st.facts.Len() == 0 {
		st.facts = pmap.Build(o, n, at)
	} else {
		for i := range tuples {
			k, f := at(i)
			st.facts.Insert(o, k, f)
		}
	}
	for _, t := range tuples {
		st.indexAdd(o, Fact{Pred: pred, Tuple: t})
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

// --- freeze ---------------------------------------------------------------

// Freeze decodes every code-space predicate and marks the set read-only:
// a frozen set holds no code-space rows, and its reads write nothing but
// the lazily built indexes (see lazyIndexes), so it is safe for
// concurrent readers. Add and Remove panic on it; its Clone is
// writable. Freezing an already frozen set is a no-op.
func (s *FactSet) Freeze() {
	if s.frozen {
		return
	}
	s.decodeAll()
	s.owner.Store(nil) // its readers' buckets are never written in place again
	s.frozen = true
}

// adoptLazy installs in dst, a private set that shares s's stores, the
// indexes readers of s built while it was frozen.
func (s *FactSet) adoptLazy(dst *FactSet) {
	built := s.lazy.built.Load()
	if built == nil {
		return
	}
	o := dst.writer()
	for pl, idx := range *built {
		st := dst.preds[pl[0]]
		st.ownIndex(o)
		st.index = append(st.index, labelIndex{label: pl[1], buckets: idx})
		dst.preds[pl[0]] = st
	}
}

// lazyIndex returns the index of label over pred in the frozen set s,
// building it on the first probe of any reader.
func (s *FactSet) lazyIndex(pred, label string) pmap.Map[string, bucket] {
	key := [2]string{pred, label}
	if built := s.lazy.built.Load(); built != nil {
		if idx, ok := (*built)[key]; ok {
			return idx
		}
	}
	s.lazy.mu.Lock()
	defer s.lazy.mu.Unlock()
	old := s.lazy.built.Load()
	if old != nil {
		if idx, ok := (*old)[key]; ok {
			return idx // another reader built it while this one waited
		}
	}
	// Built with no owner: nobody ever writes these nodes in place.
	idx := buildIndex(nil, s.preds[pred].facts, label)
	next := make(map[[2]string]pmap.Map[string, bucket], 1)
	if old != nil {
		maps.Copy(next, *old)
	}
	next[key] = idx
	s.lazy.built.Store(&next)
	return idx
}

// --- reads ----------------------------------------------------------------

// FactsByComponent returns the facts of pred whose labelled component
// equals v (null when they lack it): the stored ones through pred's index
// of label, built by the first probe of the label and kept by every write
// after it, and its code-space rows through their own (codedPred.lookup).
// The returned slice must not be mutated, and never changes. Bucket
// order carries no meaning.
func (s *FactSet) FactsByComponent(pred, label string, v value.Value) []Fact {
	var stored []Fact
	if s.preds[pred].facts.Len() > 0 {
		stored = s.bucket(pred, label, v)
	}
	if cp := s.coded[pred]; cp != nil {
		return joinFacts(stored, cp.lookup(pred, []fixedArg{{label: label, v: v}}))
	}
	return stored
}

// joinFacts returns a followed by b, in a new array when both hold facts.
func joinFacts(a, b []Fact) []Fact {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	return append(a[:len(a):len(a)], b...)
}

// bucket returns the stored facts of pred whose labelled component equals
// v, through pred's index of label, built now if no write or reader built
// it yet.
func (s *FactSet) bucket(pred, label string, v value.Value) []Fact {
	idx, ok := s.builtIndex(pred, label)
	if !ok {
		if s.frozen {
			idx = s.lazyIndex(pred, label)
		} else {
			st, o := s.preds[pred], s.writer()
			idx = buildIndex(o, st.facts, label)
			st.ownIndex(o)
			st.index = append(st.index, labelIndex{label: label, buckets: idx})
			s.preds[pred] = st
		}
	}
	b := bucketOf(idx, v)
	if !s.frozen && b.arr != nil && !b.arr.lent.Load() {
		b.arr.lent.Store(true) // the writer no longer removes from it in place
	}
	return b.facts
}

// builtIndex returns pred's index of label, if a write or a reader of the
// frozen set built it.
func (s *FactSet) builtIndex(pred, label string) (pmap.Map[string, bucket], bool) {
	idx, ok := s.preds[pred].indexOf(label)
	if built := s.lazy.built.Load(); !ok && s.frozen && built != nil {
		idx, ok = (*built)[[2]string{pred, label}]
	}
	return idx, ok
}

// bucketOf returns the bucket of value v in idx.
func bucketOf(idx pmap.Map[string, bucket], v value.Value) bucket {
	var buf [value.KeyBufSize]byte
	b, _ := idx.Get(string(value.AppendKey(buf[:0], v)))
	return b
}

// walkAll, set by tests, makes every lookup a walk: the reference a
// narrowed lookup must agree with.
var walkAll bool

// candidates are the facts a literal or head can match: a bucket or one
// fact, or, when src is set, the whole extension of pred in src.
type candidates struct {
	facts []Fact
	src   *FactSet
	pred  string
}

// len reports the number of candidates.
func (cs candidates) len() int {
	if cs.src != nil {
		return cs.src.Size(cs.pred)
	}
	return len(cs.facts)
}

// each calls fn on every candidate until fn returns false.
func (cs candidates) each(fn func(Fact) bool) {
	if cs.src != nil {
		cs.src.Each(cs.pred, fn)
		return
	}
	for _, f := range cs.facts {
		if !fn(f) {
			return
		}
	}
}

// lookup returns the candidates of pred, whose effective type is eff,
// for a literal or head that fixes the arguments fixed (the oid first):
// every fact that agrees with them, and maybe others, which the caller's
// filter rejects. It takes the first of: the oid's fact; the code-space
// rows that agree with fixed, exactly (codedPred.lookup), beside the
// stored facts the steps below give; for an association (a class key
// carries the oid), the fact whose key fixed gives in full; the smallest
// bucket among the fixed labels' built indexes; the first fixed label's
// index, built now. It walks pred only when nothing is fixed or pred is
// empty, so an empty predicate, or an empty store, builds no index, and
// it never decodes.
func (s *FactSet) lookup(pred string, eff types.Tuple, fixed []fixedArg) candidates {
	if len(fixed) == 0 || walkAll || s.Size(pred) == 0 {
		return candidates{src: s, pred: pred}
	}
	if a := fixed[0]; a.self {
		r, isRef := a.v.(value.Ref)
		if f, ok := s.HasOID(pred, value.OID(r)); ok && isRef {
			return candidates{facts: []Fact{f}}
		}
		return candidates{}
	}
	facts, whole := s.storeLookup(pred, eff, fixed)
	if cp := s.coded[pred]; cp != nil && !(whole && len(facts) > 0) {
		facts = joinFacts(facts, cp.lookup(pred, fixed))
	}
	return candidates{facts: facts}
}

// storeLookup is lookup's steps over pred's store alone, read as it is:
// the fact, if stored, whose key fixed gives in full, with whole set; or
// else a bucket.
func (s *FactSet) storeLookup(pred string, eff types.Tuple, fixed []fixedArg) (facts []Fact, whole bool) {
	st := s.preds[pred]
	if st.facts.Len() == 0 {
		return nil, false
	}
	if st.byOID.Len() == 0 && len(fixed) >= len(eff.Fields) {
		var fields [8]value.Field
		tuple := fields[:0]
		for _, f := range eff.Fields {
			if i := slices.IndexFunc(fixed, func(a fixedArg) bool { return a.label == f.Label }); i >= 0 {
				tuple = append(tuple, value.Field{Label: f.Label, Value: fixed[i].v})
			}
		}
		if len(tuple) == len(eff.Fields) {
			var buf [value.KeyBufSize]byte
			if f, ok := st.facts.Get(string(value.AppendTupleKey(append(append(buf[:0], pred...), '/'), tuple))); ok {
				return []Fact{f}, true
			}
			return nil, true
		}
	}
	probe, least := fixed[0], -1
	for _, a := range fixed {
		if idx, ok := s.builtIndex(pred, a.label); ok {
			if n := len(bucketOf(idx, a.v).facts); least < 0 || n < least {
				probe, least = a, n
			}
		}
	}
	return s.bucket(pred, probe.label, probe.v), false
}

// Each calls fn on the facts of pred in strict key order, walking its
// store after decoding its code-space rows, until fn returns false; it
// reports whether fn saw every fact. fn may write the set: the walk then
// still sees the facts as they were when it began.
func (s *FactSet) Each(pred string, fn func(Fact) bool) bool {
	m := s.keyed(pred)
	if m.Len() == 0 {
		return true
	}
	return s.walk(func() bool { return m.Ascend(func(_ string, f Fact) bool { return fn(f) }) })
}

// EachObject is Each over a class predicate in ascending oid order: the
// order of its objects. Class facts are never in code space, so it
// decodes nothing.
func (s *FactSet) EachObject(pred string, fn func(Fact) bool) bool {
	m := s.preds[pred].byOID
	if m.Len() == 0 {
		return true
	}
	return s.walk(func() bool { return m.Ascend(func(_ value.OID, f Fact) bool { return fn(f) }) })
}

// walk runs ascend, a walk of the set's stores. On an unfrozen set it
// counts as an All iteration in progress (walks), so a write during it
// copies the nodes the walk reads instead of changing them under it.
func (s *FactSet) walk(ascend func() bool) bool {
	if !s.frozen {
		s.walks++
		s.pinned = true
		defer func() {
			if s.walks--; s.walks == 0 {
				s.pinned = false
			}
		}()
	}
	return ascend()
}

// Facts returns the facts of pred in strict key order, in a slice of its
// own (nil when there are none).
func (s *FactSet) Facts(pred string) []Fact {
	m := s.keyed(pred)
	if m.Len() == 0 {
		return nil
	}
	out := make([]Fact, 0, m.Len())
	m.Ascend(func(_ string, f Fact) bool {
		out = append(out, f)
		return true
	})
	return out
}

// AppendAll appends every fact of s to out, predicate by predicate in
// name order, each in key order.
func (s *FactSet) AppendAll(out []Fact) []Fact {
	for _, p := range s.Preds() {
		s.Each(p, func(f Fact) bool {
			out = append(out, f)
			return true
		})
	}
	return out
}

// Has reports exact membership: in pred's store, or among its code-space
// rows, read in code space.
func (s *FactSet) Has(f Fact) bool {
	if _, ok := s.preds[f.Pred].facts.Get(f.Key()); ok {
		return true
	}
	cp := s.coded[f.Pred]
	return cp != nil && !f.IsClass && cp.holds(f.Tuple)
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
// whether the set changed. The store and its built indexes are written
// only when the add changes them. Add panics on a frozen set.
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
	o := s.writer()
	if !st.facts.Insert(o, k, f) {
		return false
	}
	if f.IsClass {
		if replaced {
			st.facts.Delete(o, pk)
			st.indexRemove(o, prev)
		}
		st.byOID.Set(o, f.OID, f)
	}
	st.indexAdd(o, f)
	s.preds[f.Pred] = st
	s.closed = nil
	return true
}

// Remove deletes a fact by exact identity; it reports whether it was
// present. Remove panics on a frozen set.
func (s *FactSet) Remove(f Fact) bool {
	if s.frozen {
		panic("engine: Remove on frozen FactSet")
	}
	s.decode(f.Pred)
	st := s.preds[f.Pred]
	o := s.writer()
	stored, ok := st.facts.Delete(o, f.Key())
	if !ok {
		return false
	}
	if f.IsClass {
		if cur, ok := st.byOID.Get(f.OID); ok && cur.Tuple.Same(stored.Tuple) {
			st.byOID.Delete(o, f.OID)
		}
	}
	st.indexRemove(o, stored)
	s.preds[f.Pred] = st
	s.closed = nil
	return true
}

// --- set operations -------------------------------------------------------

// Clone returns an unfrozen copy in O(#predicates). Every predicate's
// store, indexes included, is shared as it is, and the receiver's owner
// tag is retired, so a write to either side path-copies the nodes it
// touches. Code-space rows, never written, are shared as they are, with
// the code index and the rows their lookups decoded; each owner decodes
// the whole predicate into its own store on its first walk.
func (s *FactSet) Clone() *FactSet {
	if s.owner.Load() != nil {
		s.owner.Store(nil)
	}
	n := &FactSet{
		preds:   maps.Clone(s.preds),
		closed:  s.closed,
		decodes: s.decodes,
	}
	if len(s.coded) > 0 {
		n.coded = maps.Clone(s.coded)
	}
	s.adoptLazy(n)
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
		d.Each(p, func(f Fact) bool {
			if s.Add(f) {
				changed = true
			}
			return true
		})
	}
	return changed
}

// Minus returns s − d (exact-identity removal).
func (s *FactSet) Minus(d *FactSet) *FactSet {
	out := s.Clone()
	out.Drop(d)
	return out
}

// Drop is the in-place s − d: it removes every fact of d from s.
func (s *FactSet) Drop(d *FactSet) {
	for _, p := range d.Preds() {
		d.Each(p, func(f Fact) bool {
			s.Remove(f)
			return true
		})
	}
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
		s.Each(p, func(f Fact) bool {
			if d.Has(f) {
				out.Add(f)
			}
			return true
		})
	}
	return out
}

// functionStore names the hidden association backing a data function.
func functionStore(fn string) string { return "$fn$" + fn }

// ToInstance converts a fact set into an instance over the schema,
// reconciling class facts across a generalization hierarchy (an oid's
// o-value is the ⊕ of its projections; later components win, but since all
// class facts of one oid stem from one o-value they agree). The third
// argument, once the oid counter of the run that derived fs, is ignored:
// an instance keeps no counter.
func ToInstance(fs *FactSet, schema *types.Schema, _ int64) *instance.Instance {
	in := instance.New(schema)
	for _, p := range fs.Preds() {
		add := func(f Fact) bool {
			in.InsertTuple(p, f.Tuple)
			return true
		}
		switch {
		case schema.IsClass(p):
			add = func(f Fact) bool {
				in.AddToClass(p, f.OID, f.Tuple)
				return true
			}
		case schema.IsFunction(p):
			store := functionStore(p)
			add = func(f Fact) bool {
				in.InsertTuple(store, f.Tuple)
				return true
			}
		}
		fs.Each(p, add)
	}
	return in
}
