package engine

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"logres/internal/value"
)

// Tests of the FactSet's incrementally maintained per-predicate caches:
// ordering, copy-on-write sharing, and tombstone-and-compact removal.

func edgeFact(a, b int) Fact {
	return Fact{Pred: "edge", Tuple: value.NewTuple(
		value.Field{Label: "src", Value: value.Int(int64(a))},
		value.Field{Label: "dst", Value: value.Int(int64(b))},
	)}
}

func classTagFact(oid int64, tag int64) Fact {
	return Fact{Pred: "node", IsClass: true, OID: value.OID(oid), Tuple: value.NewTuple(
		value.Field{Label: "tag", Value: value.Int(tag)},
	)}
}

// chainEdgeFacts builds the EDB of a linear chain 0 → 1 → … → n.
func chainEdgeFacts(n int) *FactSet {
	fs := NewFactSet()
	for i := 0; i < n; i++ {
		fs.Add(edgeFact(i, i+1))
	}
	return fs
}

// Incremental cache maintenance: once a predicate's cache exists, interleaved
// Add/lookup rounds must never trigger a from-scratch rebuild (the pre-PR
// behaviour invalidated the whole cache on every Add).
func TestFactSetIncrementalCache(t *testing.T) {
	fs := NewFactSet()
	for i := 0; i < 8; i++ {
		fs.Add(edgeFact(i, i+1))
	}
	fs.Facts("edge") // build the cache
	fs.FactsByComponent("edge", "src", value.Int(0))
	base := fs.rebuilds
	for i := 8; i < 200; i++ {
		fs.Add(edgeFact(i, i+1))
		if got := fs.FactsByComponent("edge", "src", value.Int(int64(i))); len(got) != 1 {
			t.Fatalf("after add %d: bucket size %d, want 1", i, len(got))
		}
		if len(fs.Facts("edge")) != i+1 {
			t.Fatalf("after add %d: list size %d, want %d", i, len(fs.Facts("edge")), i+1)
		}
	}
	if fs.rebuilds != base {
		t.Fatalf("interleaved Add/lookup rebuilt the cache %d times, want 0", fs.rebuilds-base)
	}
	// Removals must also maintain incrementally.
	for i := 8; i < 50; i++ {
		fs.Remove(edgeFact(i, i+1))
		if got := fs.FactsByComponent("edge", "src", value.Int(int64(i))); len(got) != 0 {
			t.Fatalf("after remove %d: bucket size %d, want 0", i, len(got))
		}
	}
	if fs.rebuilds != base {
		t.Fatalf("interleaved Remove/lookup rebuilt the cache %d times, want 0", fs.rebuilds-base)
	}
	if fs.Size("edge") != 158 {
		t.Fatalf("size = %d, want 158", fs.Size("edge"))
	}

	// Clone must carry the caches copy-on-write: reads and incremental
	// writes on the clone stay rebuild-free, and the source is untouched.
	cl := fs.Clone()
	if len(cl.Facts("edge")) != fs.Size("edge") {
		t.Fatal("clone lost facts")
	}
	cl.Add(edgeFact(500, 501))
	if got := cl.FactsByComponent("edge", "src", value.Int(500)); len(got) != 1 {
		t.Fatalf("clone bucket size %d after add, want 1", len(got))
	}
	if cl.rebuilds != 0 {
		t.Fatalf("reads on a clone rebuilt the cache %d times, want 0", cl.rebuilds)
	}
	if fs.Has(edgeFact(500, 501)) {
		t.Fatal("clone mutation leaked into the source")
	}
	if got := fs.FactsByComponent("edge", "src", value.Int(500)); len(got) != 0 {
		t.Fatalf("source bucket sees clone's fact: %v", got)
	}
	if fs.rebuilds != base {
		t.Fatalf("cloning rebuilt the source cache %d times, want 0", fs.rebuilds-base)
	}

	// Compose and Minus clone internally; their results must keep the
	// caches too (the pre-PR Clone dropped all predCache state, costing an
	// O(n log n) rebuild per predicate on first read).
	small := NewFactSet()
	small.Add(edgeFact(600, 601))
	comp := fs.Compose(small)
	if got := comp.FactsByComponent("edge", "src", value.Int(600)); len(got) != 1 {
		t.Fatalf("compose bucket size %d, want 1", len(got))
	}
	if comp.rebuilds != 0 {
		t.Fatalf("Compose result rebuilt the cache %d times, want 0", comp.rebuilds)
	}
	min := fs.Minus(small)
	_ = min.Facts("edge")
	if min.rebuilds != 0 {
		t.Fatalf("Minus result rebuilt the cache %d times, want 0", min.rebuilds)
	}
}

// Facts() must stay in strict key order on an unfrozen set even after
// incremental appends.
func TestFactSetKeyOrderAfterAdds(t *testing.T) {
	fs := NewFactSet()
	for i := 0; i < 5; i++ {
		fs.Add(edgeFact(9-i, i))
	}
	fs.Facts("edge")
	for i := 5; i < 10; i++ {
		fs.Add(edgeFact(9-i, i))
	}
	facts := fs.Facts("edge")
	for i := 1; i < len(facts); i++ {
		if facts[i-1].Key() >= facts[i].Key() {
			t.Fatalf("facts out of key order at %d: %q >= %q", i, facts[i-1].Key(), facts[i].Key())
		}
	}
}

// Class-fact replacement (⊕ right bias) must keep the cache consistent.
func TestFactSetCacheClassReplace(t *testing.T) {
	fs := NewFactSet()
	mk := func(oid int64, tag int64) Fact {
		return Fact{Pred: "node", IsClass: true, OID: value.OID(oid), Tuple: value.NewTuple(
			value.Field{Label: "tag", Value: value.Int(tag)},
		)}
	}
	fs.Add(mk(1, 10))
	fs.Add(mk(2, 20))
	fs.Facts("node")
	fs.FactsByComponent("node", "tag", value.Int(10))
	fs.Add(mk(1, 11)) // same oid, new o-value: replace
	if n := len(fs.Facts("node")); n != 2 {
		t.Fatalf("list size %d after replace, want 2", n)
	}
	if got := fs.FactsByComponent("node", "tag", value.Int(10)); len(got) != 0 {
		t.Fatalf("stale bucket for replaced o-value: %v", got)
	}
	if got := fs.FactsByComponent("node", "tag", value.Int(11)); len(got) != 1 {
		t.Fatalf("missing bucket for new o-value: %v", got)
	}
}

// A frozen FactSet must be safe for unsynchronized concurrent readers and
// cloners (validated under -race), must reject mutation, and must not see
// a clone's writes. Every goroutine starts behind one barrier, so the first
// probes of the unbuilt labels race: half probe the frozen set, half a
// clone sharing its sealed view, and all get the same buckets, built once
// per label.
func TestFrozenConcurrentReaders(t *testing.T) {
	fs := randomEdgeFacts(20, 200, 5)
	fs.Freeze()
	if !fs.Frozen() {
		t.Fatal("Frozen() = false after Freeze")
	}
	const readers, cloners = 8, 8
	probe := fs.Facts("edge")[0].Tuple
	src, _ := probe.Get("src")
	dst, _ := probe.Get("dst")
	first := make([][2][]Fact, readers+cloners) // each goroutine's first src and dst bucket
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers+cloners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			set := fs
			if g >= readers {
				set = fs.Clone()
			}
			<-start
			first[g] = [2][]Fact{set.FactsByComponent("edge", "src", src), set.FactsByComponent("edge", "dst", dst)}
			for i := 0; i < 200; i++ {
				v := value.Int(int64((g*31 + i) % 20))
				_ = set.Facts("edge")
				_ = set.FactsByComponent("edge", "src", v)
				_ = set.FactsByComponent("edge", "dst", v)
				if set == fs {
					// On an unfrozen clone this probe copies the view.
					_ = fs.FactsByComponent("edge", "missing", value.Null{})
				}
				_ = set.Has(edgeFact(i%20, (i+1)%20))
				_ = set.Size("edge")
			}
			cl := set.Clone()
			cl.Add(edgeFact(100+g, 0))
			if got := cl.FactsByComponent("edge", "src", value.Int(int64(100+g))); len(got) != 1 {
				t.Errorf("clone %d: bucket size %d after add, want 1", g, len(got))
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g, b := range first {
		for i, label := range []string{"src", "dst"} {
			if len(b[i]) == 0 || &b[i][0] != &first[0][i][0] {
				t.Fatalf("goroutine %d got another %s bucket than goroutine 0 (%d facts)", g, label, len(b[i]))
			}
		}
	}
	if n := fs.views["edge"].builds.Load(); n != 2 {
		t.Fatalf("%d bucket builds on the shared view, want 1 per label (2)", n)
	}
	for g := 0; g < readers+cloners; g++ {
		if fs.Has(edgeFact(100+g, 0)) {
			t.Fatalf("clone %d's add leaked into the frozen source", g)
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Add on frozen set did not panic")
			}
		}()
		fs.Add(edgeFact(99, 99))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Remove on frozen set did not panic")
			}
		}()
		fs.Remove(edgeFact(0, 1))
	}()

	fs.Thaw()
	if !fs.Add(edgeFact(99, 99)) {
		t.Fatal("Add after Thaw failed")
	}
}

// Freeze on a frozen set is a no-op; a missing label on a frozen set routes
// null lookups to the whole extension.
func TestFrozenNullComponent(t *testing.T) {
	fs := chainEdgeFacts(5)
	fs.Freeze()
	fs.Freeze()
	all := fs.FactsByComponent("edge", "nolabel", value.Null{})
	if len(all) != 5 {
		t.Fatalf("null lookup on absent label returned %d facts, want 5", len(all))
	}
	if got := fs.FactsByComponent("edge", "nolabel", value.Int(1)); got != nil {
		t.Fatalf("non-null lookup on absent label returned %v, want nil", got)
	}
	if got := fs.Facts("ghost"); got != nil {
		t.Fatalf("Facts on absent pred of frozen set returned %v, want nil", got)
	}
}

// bucketBuilds sums the bucket builds counted on s's views of preds.
func bucketBuilds(s *FactSet, preds ...string) int64 {
	var n int64
	for _, p := range preds {
		if c := s.views[p]; c != nil {
			n += c.builds.Load()
		}
	}
	return n
}

// Freeze builds no bucket. The first probe of a label builds it once, on
// the sealed view, for the frozen set and every clone sharing that view; a
// sole owner's first write after Thaw builds the labels still missing,
// once, and maintains them in place from then on.
func TestFactSetBucketsBuiltOnFirstProbe(t *testing.T) {
	mk := func() *FactSet {
		fs := chainEdgeFacts(20)
		for o := 1; o <= 5; o++ {
			fs.Add(classTagFact(int64(o), int64(o%2)))
		}
		fs.Freeze()
		return fs
	}
	fs := mk()
	expect := func(what string, want int64) {
		t.Helper()
		if got := bucketBuilds(fs, "edge", "node"); got != want {
			t.Fatalf("%s: %d bucket builds, want %d", what, got, want)
		}
	}
	lookup := func(s *FactSet, label string, v int64, want int) {
		t.Helper()
		if got := s.FactsByComponent("edge", label, value.Int(v)); len(got) != want {
			t.Fatalf("edge.%s = %d: %d facts, want %d", label, v, len(got), want)
		}
	}
	expect("Freeze", 0)
	lookup(fs, "src", 3, 1)
	expect("first probe of edge.src", 1)
	lookup(fs, "src", 4, 1)
	expect("second probe of edge.src", 1)
	cl := fs.Clone()
	lookup(cl, "src", 5, 1)
	expect("probe of edge.src through a clone", 1)
	cl.Add(classTagFact(9, 1))
	lookup(cl, "src", 6, 1)
	expect("probe after the clone wrote node", 1)
	if cl.views["edge"] != fs.views["edge"] {
		t.Fatal("the clone no longer shares the edge view it never wrote")
	}

	fs = mk()
	lookup(fs, "src", 3, 1)
	fs.Thaw()
	lookup(fs, "src", 4, 1)
	expect("probe after Thaw", 1)
	fs.Add(edgeFact(50, 51))
	expect("first write after Thaw (builds edge.dst)", 2)
	fs.Add(edgeFact(60, 61))
	lookup(fs, "dst", 51, 1)
	lookup(fs, "src", 60, 1)
	expect("second write and probes", 2)
	if c := fs.views["edge"]; c.pending != nil || len(c.index) != 2 {
		t.Fatalf("after the write: %d pending and %d built labels, want 0 and 2", len(c.pending), len(c.index))
	}
}

// modelPair runs a FactSet beside the eager reference model of
// TestFactSetTombstoneDifferential, which builds every bucket at freeze. A
// pair whose model is nil is checked against explicit orders only.
type modelPair struct {
	fs *FactSet
	m  *eagerModel
}

func newModelPair(facts ...Fact) *modelPair {
	p := &modelPair{NewFactSet(), newEagerModel()}
	p.add(facts...)
	return p
}

func (p *modelPair) add(facts ...Fact) {
	for _, f := range facts {
		p.fs.Add(f)
		p.m.add(f)
	}
}

func (p *modelPair) clone() *modelPair { return &modelPair{p.fs.Clone(), p.m.clone()} }

func (p *modelPair) freeze() { p.fs.Freeze(); p.m.freeze() }

func (p *modelPair) thaw() { p.fs.Thaw(); p.m.frozen = false }

// bucket probes edge's label for v and checks the bucket, order included,
// against the model and against want, given as "src-dst" pairs.
func (p *modelPair) bucket(t *testing.T, label string, v value.Value, want ...string) {
	t.Helper()
	got := factKeys(p.fs.FactsByComponent("edge", label, v))
	if p.m != nil {
		if model := p.m.bucket("edge", label, v); !slices.Equal(got, model) {
			t.Fatalf("edge.%s = %v: got %v, model %v", label, v, got, model)
		}
	}
	var wantKeys []string
	for _, w := range want {
		var a, b int
		fmt.Sscanf(w, "%d-%d", &a, &b)
		wantKeys = append(wantKeys, edgeFact(a, b).Key())
	}
	if !slices.Equal(got, wantKeys) {
		t.Fatalf("edge.%s = %v: got %v, want %v", label, v, got, wantKeys)
	}
}

// Bucket order across seal and unseal: the three transitions where a
// lazily built bucket could come out in another order than the one Freeze
// used to build eagerly, each checked against the eager model.
func TestFactSetSealTransitions(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{{
		// The frozen "every fact holds null" answer would leave the view
		// shared; the clone's write would then copy it and rebuild its
		// buckets in key order instead of appending to them.
		name: "null probe of an absent label through an unfrozen clone copies",
		run: func(t *testing.T) {
			a := newModelPair(edgeFact(1, 2), edgeFact(3, 4), edgeFact(5, 6))
			a.freeze()
			b := a.clone()
			b.bucket(t, "nolabel", value.Null{}, "1-2", "3-4", "5-6")
			if b.fs.views["edge"] == a.fs.views["edge"] {
				t.Fatal("the unfrozen clone still shares the sealed view after building a bucket")
			}
			b.bucket(t, "src", value.Int(1), "1-2")
			b.add(edgeFact(0, 9))
			b.bucket(t, "nolabel", value.Null{}, "1-2", "3-4", "5-6", "0-9")
			a.bucket(t, "nolabel", value.Null{}, "1-2", "3-4", "5-6")
		},
	}, {
		// Sealing the shared view in place would leave the other owner
		// sharing it; its next write would copy the view and lose the src
		// bucket it maintains in place.
		name: "Freeze copies a shared view that lacks a bucket",
		run: func(t *testing.T) {
			a := newModelPair(edgeFact(1, 5), edgeFact(3, 4))
			a.bucket(t, "src", value.Int(1), "1-5")
			b := a.clone()
			shared := a.fs.views["edge"]
			a.freeze()
			if a.fs.views["edge"] == shared {
				t.Fatal("Freeze sealed a view shared with an unfrozen owner")
			}
			b.add(edgeFact(1, 2))
			if b.fs.views["edge"] != shared {
				t.Fatal("the remaining owner copied the view it now owns alone")
			}
			b.bucket(t, "src", value.Int(1), "1-5", "1-2")
			a.bucket(t, "src", value.Int(1), "1-5")
			a.bucket(t, "dst", value.Int(5), "1-5")
		},
	}, {
		// The labels nobody probed while sealed are built from the sealed
		// list before the write lands, so the write appends to them.
		name: "Thaw then write after only some labels were probed",
		run: func(t *testing.T) {
			a := newModelPair(edgeFact(1, 5), edgeFact(3, 4), edgeFact(2, 5))
			a.freeze()
			a.bucket(t, "src", value.Int(1), "1-5")
			a.thaw()
			a.add(edgeFact(0, 5), edgeFact(1, 0))
			a.bucket(t, "dst", value.Int(5), "1-5", "2-5", "0-5")
			a.bucket(t, "src", value.Int(1), "1-5", "1-0")
		},
	}}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// A fact key is appended into one buffer: one allocation, with the bytes
// of pred + "/" + oid + "/" + tuple key.
func TestFactKeyOneAllocation(t *testing.T) {
	tuple := value.NewTuple(
		value.Field{Label: "a", Value: value.Int(1 << 40)},
		value.Field{Label: "b", Value: value.Int(-7)},
		value.Field{Label: "c", Value: value.Int(0)},
	)
	cases := []struct {
		f    Fact
		want string
	}{
		{Fact{Pred: "edge3", Tuple: tuple}, "edge3/" + tuple.Key()},
		{Fact{Pred: "node", IsClass: true, OID: 42, Tuple: tuple}, "node/&42/" + tuple.Key()},
		{Fact{Pred: "node", IsClass: true, Tuple: tuple}, "node/nil/" + tuple.Key()},
	}
	for _, c := range cases {
		var k string
		if n := testing.AllocsPerRun(100, func() { k = c.f.Key() }); n != 1 {
			t.Errorf("%v.Key(): %v allocations, want 1", c.f, n)
		}
		if k != c.want {
			t.Errorf("%v.Key() = %q, want %q", c.f, k, c.want)
		}
	}
}

// A lookup on a built bucket allocates nothing, frozen or not.
func TestFactsByComponentAllocatesNothing(t *testing.T) {
	fs := chainEdgeFacts(50)
	var probe value.Value = value.Int(7)
	var got []Fact
	lookup := func() { got = fs.FactsByComponent("edge", "src", probe) }
	lookup() // builds the bucket
	if n := testing.AllocsPerRun(100, lookup); n != 0 || len(got) != 1 {
		t.Errorf("FactsByComponent: %v allocations and %d facts, want 0 and 1", n, len(got))
	}
	fs.Freeze()
	if n := testing.AllocsPerRun(100, lookup); n != 0 || len(got) != 1 {
		t.Errorf("frozen FactsByComponent: %v allocations and %d facts, want 0 and 1", n, len(got))
	}
}

// A window sliding over the values of a label must not grow that label's
// index: compaction deletes the bucket of every retired value instead of
// leaving an empty one behind.
func TestFactSetSlidingWindowIndexBounded(t *testing.T) {
	const window = 96
	fs := NewFactSet()
	fs.FactsByComponent("edge", "src", value.Int(0))
	for v := 0; v < 2000; v++ {
		fs.Add(edgeFact(v, v+1))
		if v >= window {
			fs.Remove(edgeFact(v-window, v-window+1))
		}
		if got := fs.FactsByComponent("edge", "src", value.Int(int64(v))); len(got) != 1 {
			t.Fatalf("value %d: bucket size %d, want 1", v, len(got))
		}
		if n := len(fs.views["edge"].index["src"]); n > window {
			t.Fatalf("value %d: src index holds %d buckets for a %d-wide window", v, n, window)
		}
	}
}

// The bytes a Remove allocates must not depend on the predicate's size
// (eager removal copied the list, the keys and the touched buckets for
// every fact removed).
func TestFactSetRemoveAllocsFlat(t *testing.T) {
	const removes = 200
	perRemove := func(n int) (allocs, bytes float64) {
		fs := chainEdgeFacts(n)
		fs.FactsByComponent("edge", "src", value.Int(0))
		fs.FactsByComponent("edge", "dst", value.Int(0))
		victims := make([]Fact, removes+1) // AllocsPerRun makes one warm-up call
		for i := range victims {
			victims[i] = edgeFact(i, i+1)
		}
		next := 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(removes, func() {
			fs.Remove(victims[next])
			next++
		})
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(len(victims))
	}
	smallAllocs, smallBytes := perRemove(1000)
	largeAllocs, largeBytes := perRemove(16000)
	if largeBytes > 2*smallBytes {
		t.Fatalf("Remove allocates %.0f B/op (%.1f allocs) at 16k facts vs %.0f B/op (%.1f allocs) at 1k: removal cost grows with the predicate",
			largeBytes, largeAllocs, smallBytes, smallAllocs)
	}
}

// eagerView models one predicate's view as eager removal maintains
// it: the component buckets built so far (fact keys in bucket order), the
// labels seen, the keys appended since the last flush, and the number of
// owners sharing the view beyond the first.
type eagerView struct {
	buckets map[string]map[string][]string
	labels  map[string]bool
	tail    map[string]bool
	refs    int
}

// eagerModel is the reference the tombstoned FactSet is checked against:
// the facts in plain maps, enumerated in key order, and the bucket policy
// of eager removal — an index is built in key order on its first lookup
// (or by Freeze), Add appends to it, Remove drops the entry in place, and
// it is lost when a view shared with a clone is copied on write (by a
// mutation, or by a read that has to restore key order).
type eagerModel struct {
	facts  map[string]Fact
	oids   map[value.OID]string // class oid → key of its current fact (node is the only class)
	stored map[string]bool      // predicates ever added to (Freeze builds their views)
	views  map[string]*eagerView
	frozen bool
}

func newEagerModel() *eagerModel {
	return &eagerModel{
		facts:  map[string]Fact{},
		oids:   map[value.OID]string{},
		stored: map[string]bool{},
		views:  map[string]*eagerView{},
	}
}

func copySet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func (m *eagerModel) clone() *eagerModel {
	n := newEagerModel()
	for k, f := range m.facts {
		n.facts[k] = f
	}
	for o, k := range m.oids {
		n.oids[o] = k
	}
	n.stored = copySet(m.stored)
	for p, v := range m.views {
		v.refs++
		n.views[p] = v
	}
	return n
}

// own replaces a shared view by a private copy without buckets.
func (m *eagerModel) own(p string) *eagerView {
	v := m.views[p]
	if v == nil || v.refs == 0 {
		return v
	}
	v.refs--
	nv := &eagerView{buckets: map[string]map[string][]string{}, labels: copySet(v.labels), tail: copySet(v.tail)}
	m.views[p] = nv
	return nv
}

// view returns p's view, building a missing one flushed and bucket-free.
func (m *eagerModel) view(p string) *eagerView {
	if v := m.views[p]; v != nil {
		return v
	}
	v := &eagerView{buckets: map[string]map[string][]string{}, labels: map[string]bool{}, tail: map[string]bool{}}
	for _, f := range m.facts {
		if f.Pred == p {
			for i := 0; i < f.Tuple.Len(); i++ {
				v.labels[f.Tuple.Field(i).Label] = true
			}
		}
	}
	m.views[p] = v
	return v
}

// flush restores key order on p's view (copying it first when shared).
func (m *eagerModel) flush(p string) {
	if len(m.views[p].tail) > 0 {
		m.own(p).tail = map[string]bool{}
	}
}

func (m *eagerModel) sortedKeys(p string) []string {
	var keys []string
	for k, f := range m.facts {
		if f.Pred == p {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func (m *eagerModel) buildBucket(v *eagerView, p, label string) {
	idx := map[string][]string{}
	for _, k := range m.sortedKeys(p) {
		bk := componentKey(m.facts[k], label)
		idx[bk] = append(idx[bk], k)
	}
	v.buckets[label] = idx
}

func (m *eagerModel) add(f Fact) {
	k := f.Key()
	m.stored[f.Pred] = true
	if f.IsClass {
		pk, ok := m.oids[f.OID]
		if ok && pk == k {
			return
		}
		if ok {
			m.drop(pk)
		}
		m.oids[f.OID] = k
	} else if _, ok := m.facts[k]; ok {
		return
	}
	m.facts[k] = f
	if v := m.own(f.Pred); v != nil {
		v.tail[k] = true
		for label, idx := range v.buckets {
			bk := componentKey(f, label)
			idx[bk] = append(idx[bk], k)
		}
		for i := 0; i < f.Tuple.Len(); i++ {
			v.labels[f.Tuple.Field(i).Label] = true
		}
	}
}

func (m *eagerModel) remove(f Fact) {
	if _, ok := m.facts[f.Key()]; ok {
		m.drop(f.Key())
	}
}

func (m *eagerModel) drop(k string) {
	f := m.facts[k]
	delete(m.facts, k)
	if f.IsClass && m.oids[f.OID] == k {
		delete(m.oids, f.OID)
	}
	if v := m.own(f.Pred); v != nil {
		delete(v.tail, k)
		for label, idx := range v.buckets {
			bk := componentKey(f, label)
			var kept []string
			for _, e := range idx[bk] {
				if e != k {
					kept = append(kept, e)
				}
			}
			idx[bk] = kept
		}
	}
}

func (m *eagerModel) factsOf(p string) []string {
	if m.frozen {
		if m.views[p] == nil {
			return nil
		}
		return m.sortedKeys(p)
	}
	m.view(p)
	m.flush(p)
	return m.sortedKeys(p)
}

func (m *eagerModel) bucket(p, label string, val value.Value) []string {
	vk := val.Key()
	if m.frozen {
		v := m.views[p]
		if v == nil {
			return nil
		}
		if idx, ok := v.buckets[label]; ok {
			return idx[vk]
		}
		if vk == nullKey {
			return m.sortedKeys(p)
		}
		return nil
	}
	v := m.view(p)
	if _, ok := v.buckets[label]; !ok {
		m.flush(p)
		v = m.own(p)
		m.buildBucket(v, p, label)
	}
	return v.buckets[label][vk]
}

// freeze builds every missing bucket. A view that lacks one is taken
// over once, before any is built: copying a shared view drops its
// buckets, so taking it over inside the label loop would lose the
// buckets the loop had already passed.
func (m *eagerModel) freeze() {
	for p := range m.stored {
		m.view(p)
		m.flush(p)
		v := m.views[p]
		for label := range v.labels {
			if _, ok := v.buckets[label]; !ok {
				v = m.own(p)
				break
			}
		}
		for label := range v.labels {
			if _, ok := v.buckets[label]; !ok {
				m.buildBucket(v, p, label)
			}
		}
	}
	m.frozen = true
}

func factKeys(fs []Fact) []string {
	keys := make([]string, len(fs))
	for i, f := range fs {
		keys[i] = f.Key()
	}
	return keys
}

// assertCacheInvariants checks what the lazy removal relies on: a shared
// cache never holds tombstones, and a compacted cache has no empty bucket
// and carries exactly its buckets' keys.
func assertCacheInvariants(t *testing.T, step int, fs *FactSet) {
	t.Helper()
	for p, c := range fs.views {
		if c.refs.Load() > 0 && len(c.dead) > 0 {
			t.Fatalf("step %d: view %s: shared cache holds %d tombstones", step, p, len(c.dead))
		}
		if len(c.dead) > 0 {
			continue
		}
		for label, idx := range c.index {
			for bk, b := range idx {
				if len(b) == 0 {
					t.Fatalf("step %d: view %s: empty bucket %s=%s", step, p, label, bk)
				}
			}
		}
		for label, carried := range c.bucketKeys {
			for bk, keys := range carried {
				if got := factKeys(c.index[label][bk]); !slices.Equal(got, keys) {
					t.Fatalf("step %d: view %s: bucket %s=%s carries keys %v for %v", step, p, label, bk, keys, got)
				}
			}
		}
	}
}

// Property: tombstone-and-compact removal is invisible. Random sequences of
// Add, Remove (single and batched), re-Add of a removed key, class ⊕
// replacement, Clone then mutation of either side, Freeze/Thaw, Facts and
// FactsByComponent give the same facts, in strict key order, and the same
// bucket order as the eager reference model — on both sides of every
// clone, so a clone's mutations never reach its source or vice versa.
func TestFactSetTombstoneDifferential(t *testing.T) {
	const vals = 10
	labels := map[string][]string{"edge": {"src", "dst", "nolabel"}, "node": {"tag"}}
	nodeFact := func(r *rand.Rand) Fact { return classTagFact(int64(r.Intn(8)+1), int64(r.Intn(5))) }
	// One layout: a single map per predicate, the layout the sharded
	// FactSet had at one shard, run from that case's seed.
	t.Run("shards=1", func(t *testing.T) {
		r := rand.New(rand.NewSource(22))
		type side struct {
			fs *FactSet
			m  *eagerModel
		}
		sides := []*side{{NewFactSet(), newEagerModel()}}
		var removed []Fact
		readFacts := func(step int, s *side, p string) {
			if got, want := factKeys(s.fs.Facts(p)), s.m.factsOf(p); !slices.Equal(got, want) {
				t.Fatalf("step %d: Facts(%s)\n got %v\nwant %v", step, p, got, want)
			}
		}
		readBucket := func(step int, s *side, p, label string, v value.Value) {
			if got, want := factKeys(s.fs.FactsByComponent(p, label, v)), s.m.bucket(p, label, v); !slices.Equal(got, want) {
				t.Fatalf("step %d: FactsByComponent(%s, %s, %v)\n got %v\nwant %v", step, p, label, v, got, want)
			}
		}
		randomRead := func(step int, s *side) {
			p := []string{"edge", "node"}[r.Intn(2)]
			if r.Intn(3) == 0 {
				readFacts(step, s, p)
				return
			}
			ls := labels[p]
			label := ls[r.Intn(len(ls))]
			var v value.Value = value.Int(int64(r.Intn(vals)))
			if label == "nolabel" {
				v = value.Null{}
			}
			readBucket(step, s, p, label, v)
		}
		existing := func(s *side) (Fact, bool) {
			if len(s.m.facts) == 0 {
				return Fact{}, false
			}
			keys := s.m.sortedKeys("edge")
			keys = append(keys, s.m.sortedKeys("node")...)
			return s.m.facts[keys[r.Intn(len(keys))]], true
		}
		for step := 0; step < 4000; step++ {
			i := r.Intn(len(sides))
			s := sides[i]
			op := r.Intn(20)
			if s.m.frozen && op < 12 {
				op = 14 + 5*r.Intn(2) // a frozen set only thaws or reads
			}
			mutated := true
			switch {
			case op < 4: // add
				f := edgeFact(r.Intn(vals), r.Intn(vals))
				if r.Intn(3) == 0 {
					f = nodeFact(r)
				}
				s.fs.Add(f)
				s.m.add(f)
			case op < 7: // remove one present fact
				if f, ok := existing(s); ok {
					s.fs.Remove(f)
					s.m.remove(f)
					removed = append(removed, f)
				}
			case op == 7: // batch of removals, DRed-style, with no read between
				for j := r.Intn(8); j >= 0; j-- {
					if f, ok := existing(s); ok {
						s.fs.Remove(f)
						s.m.remove(f)
						removed = append(removed, f)
					}
				}
			case op < 10: // re-add a removed key
				if len(removed) > 0 {
					f := removed[r.Intn(len(removed))]
					s.fs.Add(f)
					s.m.add(f)
				}
			case op < 12: // class ⊕ replacement of a present oid
				if len(s.m.oids) > 0 {
					oids := make([]int, 0, len(s.m.oids))
					for o := range s.m.oids {
						oids = append(oids, int(o))
					}
					sort.Ints(oids)
					f := classTagFact(int64(oids[r.Intn(len(oids))]), int64(r.Intn(5)))
					s.fs.Add(f)
					s.m.add(f)
				}
			case op == 12: // clone; either side mutates from here on
				c := &side{s.fs.Clone(), s.m.clone()}
				if len(sides) == 1 {
					sides = append(sides, c)
				} else {
					sides[1-i] = c
				}
				mutated = false
			case op == 13 || op == 14: // freeze / thaw
				if s.m.frozen {
					s.fs.Thaw()
					s.m.frozen = false
				} else {
					s.fs.Freeze()
					s.m.freeze()
				}
				mutated = false
			default:
				randomRead(step, s)
				mutated = false
			}
			// The other side of a clone must not see the mutation.
			if mutated && len(sides) == 2 && r.Intn(4) == 0 {
				randomRead(step, sides[1-i])
			}
			assertCacheInvariants(t, step, s.fs)
		}
		for _, s := range sides {
			for _, p := range []string{"edge", "node", "ghost"} {
				readFacts(4000, s, p)
				for _, label := range labels[p] {
					for v := 0; v < vals; v++ {
						readBucket(4000, s, p, label, value.Int(int64(v)))
					}
					readBucket(4000, s, p, label, value.Null{})
				}
			}
			assertCacheInvariants(t, 4000, s.fs)
		}
	})
}

// refSet is the deep-copy reference of the sharing differential: a plain
// key → fact map per set, copied whole on every clone.
type refSet map[string]Fact

func (r refSet) add(f Fact) {
	k := f.Key()
	if f.IsClass {
		for pk, g := range r {
			if g.IsClass && g.Pred == f.Pred && g.OID == f.OID {
				delete(r, pk)
			}
		}
	}
	r[k] = f
}

func (r refSet) sameKeys(o refSet) bool {
	if len(r) != len(o) {
		return false
	}
	for k := range r {
		if _, ok := o[k]; !ok {
			return false
		}
	}
	return true
}

// keysOf returns the sorted keys of pred's facts accepted by keep.
func (r refSet) keysOf(pred string, keep func(Fact) bool) []string {
	var out []string
	for k, f := range r {
		if f.Pred == pred && keep(f) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func sortedFactKeys(fs []Fact) []string {
	keys := factKeys(fs)
	sort.Strings(keys)
	return keys
}

// Property: per-predicate copy-on-write sharing is invisible. Random
// interleavings of Add, Remove, class-oid replacement, Clone, Freeze and
// Thaw over a set and its clones agree with deep copies after every step,
// on every live set: Facts, FactsByComponent, HasOID, Size, and Equal and
// DiffPred between every pair.
func TestFactSetCloneSharingDifferential(t *testing.T) {
	const vals, oids, maxSets = 6, 6, 5
	preds := []string{"edge", "node", "ghost"}
	labels := map[string][]string{"edge": {"src", "dst", "nolabel"}, "node": {"tag"}}
	r := rand.New(rand.NewSource(27))
	sets := []*FactSet{NewFactSet()}
	refs := []refSet{{}}
	randomFact := func() Fact {
		if r.Intn(3) == 0 {
			return classTagFact(int64(r.Intn(oids)+1), int64(r.Intn(vals)))
		}
		return edgeFact(r.Intn(vals), r.Intn(vals))
	}
	check := func(step int) {
		t.Helper()
		for i, s := range sets {
			ref := refs[i]
			all := func(Fact) bool { return true }
			for _, p := range preds {
				want := ref.keysOf(p, all)
				if got := factKeys(s.Facts(p)); !slices.Equal(got, want) {
					t.Fatalf("step %d set %d: Facts(%s)\n got %v\nwant %v", step, i, p, got, want)
				}
				if s.Size(p) != len(want) {
					t.Fatalf("step %d set %d: Size(%s) = %d, want %d", step, i, p, s.Size(p), len(want))
				}
				for _, label := range labels[p] {
					v := value.Value(value.Int(int64(r.Intn(vals))))
					if label == "nolabel" {
						v = value.Null{}
					}
					want := ref.keysOf(p, func(f Fact) bool { return componentKey(f, label) == v.Key() })
					if got := sortedFactKeys(s.FactsByComponent(p, label, v)); !slices.Equal(got, want) {
						t.Fatalf("step %d set %d: FactsByComponent(%s, %s, %v)\n got %v\nwant %v", step, i, p, label, v, got, want)
					}
				}
			}
			for o := 1; o <= oids; o++ {
				want := ref.keysOf("node", func(f Fact) bool { return f.OID == value.OID(o) })
				f, ok := s.HasOID("node", value.OID(o))
				if ok != (len(want) == 1) || ok && f.Key() != want[0] {
					t.Fatalf("step %d set %d: HasOID(node, %d) = %v, %v; want %v", step, i, o, f, ok, want)
				}
			}
			for j, o := range sets {
				if got, want := s.Equal(o), ref.sameKeys(refs[j]); got != want {
					t.Fatalf("step %d: set %d Equal set %d = %v, want %v", step, i, j, got, want)
				}
				for _, p := range preds {
					adds, removes := s.DiffPred(o, p)
					wantAdds := ref.keysOf(p, func(f Fact) bool { _, in := refs[j][f.Key()]; return !in })
					wantRemoves := refs[j].keysOf(p, func(f Fact) bool { _, in := ref[f.Key()]; return !in })
					if !slices.Equal(factKeys(adds), wantAdds) || !slices.Equal(factKeys(removes), wantRemoves) {
						t.Fatalf("step %d: set %d DiffPred(set %d, %s) = +%v -%v, want +%v -%v",
							step, i, j, p, factKeys(adds), factKeys(removes), wantAdds, wantRemoves)
					}
				}
			}
		}
	}
	for step := 0; step < 2500; step++ {
		i := r.Intn(len(sets))
		s, ref := sets[i], refs[i]
		op := r.Intn(12)
		if s.Frozen() && op < 7 {
			op = 9 // a frozen set only clones, thaws or is read
		}
		switch {
		case op < 3: // add, including a class fact replacing its oid's o-value
			f := randomFact()
			_, present := ref[f.Key()]
			if got := s.Add(f); got == present {
				t.Fatalf("step %d set %d: Add(%v) = %v, want %v", step, i, f, got, !present)
			}
			ref.add(f)
		case op < 5: // remove a present fact
			if len(ref) > 0 {
				keys := ref.keysOf("edge", func(Fact) bool { return true })
				keys = append(keys, ref.keysOf("node", func(Fact) bool { return true })...)
				f := ref[keys[r.Intn(len(keys))]]
				if !s.Remove(f) {
					t.Fatalf("step %d set %d: Remove(%v) of a present fact = false", step, i, f)
				}
				delete(ref, f.Key())
			}
		case op < 7: // remove an absent fact: a no-op
			f := randomFact()
			if _, in := ref[f.Key()]; !in && s.Remove(f) {
				t.Fatalf("step %d set %d: Remove(%v) of an absent fact = true", step, i, f)
			}
		case op < 9: // clone; replace a random set once the pool is full
			c, cref := s.Clone(), maps.Clone(ref)
			if len(sets) < maxSets {
				sets, refs = append(sets, c), append(refs, cref)
			} else {
				j := r.Intn(len(sets))
				sets[j], refs[j] = c, cref
			}
		case op < 11: // freeze / thaw
			if s.Frozen() {
				s.Thaw()
			} else {
				s.Freeze()
			}
		}
		check(step)
	}
}

// Eight goroutines clone one frozen set and write the same predicate of
// their clones, under -race: every write copies the shared store nodes it
// touches, never writes through them, and the frozen set is unchanged.
func TestFactSetConcurrentCloneWrites(t *testing.T) {
	fs := randomEdgeFacts(20, 200, 5)
	for o := 1; o <= 8; o++ {
		fs.Add(classTagFact(int64(o), 0))
	}
	fs.Freeze()
	snapshot := func() []string {
		return append(factKeys(fs.Facts("edge")), factKeys(fs.Facts("node"))...)
	}
	before := snapshot()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := fs.Clone()
			cl.Add(edgeFact(100+g, 0))
			cl.Remove(fs.Facts("edge")[g])
			cl.Add(classTagFact(int64(g+1), int64(g+1))) // replaces oid g+1's o-value
			if cl.Size("edge") != fs.Size("edge") || cl.Equal(fs) {
				t.Errorf("clone %d: size %d (source %d), equal to source %v", g, cl.Size("edge"), fs.Size("edge"), cl.Equal(fs))
			}
		}(g)
	}
	wg.Wait()
	if after := snapshot(); !slices.Equal(after, before) {
		t.Fatalf("clones' writes reached the frozen source:\nbefore %v\nafter  %v", before, after)
	}
	for o := 1; o <= 8; o++ {
		if f, ok := fs.HasOID("node", value.OID(o)); !ok || f.Key() != classTagFact(int64(o), 0).Key() {
			t.Fatalf("source oid %d now %v, %v", o, f, ok)
		}
	}
}

// View owner counts only grow, so a long-lived view passes the 32-bit
// limit. Past it, a write to a clone must still copy the view, and leave
// the source untouched. (Stores keep no counts: they are persistent maps
// written under one owner tag per set.)
func TestFactSetShareCountPastInt32(t *testing.T) {
	fs := randomEdgeFacts(21, 50, 5)
	fs.Add(classTagFact(1, 0))
	fs.Freeze()
	for _, c := range fs.views {
		c.refs.Store(math.MaxInt32)
	}
	before := append(factKeys(fs.Facts("edge")), factKeys(fs.Facts("node"))...)
	cl := fs.Clone() // every count now exceeds math.MaxInt32
	cl.Add(edgeFact(100, 0))
	cl.Add(classTagFact(1, 1))
	for _, p := range []string{"edge", "node"} {
		if cl.views[p] == fs.views[p] {
			t.Fatalf("write to %s past the 32-bit count went through the shared view", p)
		}
	}
	if after := append(factKeys(fs.Facts("edge")), factKeys(fs.Facts("node"))...); !slices.Equal(after, before) {
		t.Fatalf("clone's writes reached the source:\nbefore %v\nafter  %v", before, after)
	}
	if f, _ := fs.HasOID("node", 1); f.Key() != classTagFact(1, 0).Key() {
		t.Fatalf("source oid 1 now %v", f)
	}
}

// Clone costs O(#predicates): its allocations do not grow with the
// number of facts.
func TestFactSetCloneAllocsPerPredicate(t *testing.T) {
	const preds = 20
	build := func(facts int) *FactSet {
		fs := NewFactSet()
		for i := 0; i < facts; i++ {
			fs.Add(Fact{Pred: fmt.Sprintf("p%02d", i%preds), Tuple: value.NewTuple(
				value.Field{Label: "x", Value: value.Int(int64(i))})})
		}
		fs.Freeze()
		return fs
	}
	for _, facts := range []int{1000, 10000} {
		fs := build(facts)
		if allocs := testing.AllocsPerRun(20, func() { fs.Clone() }); allocs > 2*preds {
			t.Fatalf("Clone of %d predicates, %d facts: %.0f allocs, want ≤ %d", preds, facts, allocs, 2*preds)
		}
	}
}

var benchBucket []Fact

// BenchmarkFactSetIncremental measures interleaved Add + indexed lookup —
// the access pattern of a semi-naive round: O(1) amortized per fact once
// the view exists.
func BenchmarkFactSetIncremental(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fs := NewFactSet()
				fs.Facts("edge")
				for j := 0; j < n; j++ {
					fs.Add(edgeFact(j, j+1))
					_ = fs.FactsByComponent("edge", "src", value.Int(int64(j)))
				}
			}
		})
	}
}

// BenchmarkFactSetSlidingWindow measures the monitor_ivm shape: a closure
// over a 97-node window (4 656 facts, both labels indexed) slides by one
// node per iteration — 96 removals of the retired node's out-edges and 96
// insertions of the new node's in-edges — followed by a bucket lookup.
// Eager removal paid an O(n) copy per removed fact; tombstones pay one
// compaction per batch.
func BenchmarkFactSetSlidingWindow(b *testing.B) {
	const w = 97
	fs := NewFactSet()
	for a := 0; a < w; a++ {
		for c := a + 1; c < w; c++ {
			fs.Add(edgeFact(a, c))
		}
	}
	fs.FactsByComponent("edge", "src", value.Int(0))
	fs.FactsByComponent("edge", "dst", value.Int(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, hi := i, i+w
		for c := lo + 1; c < hi; c++ {
			fs.Remove(edgeFact(lo, c))
		}
		for a := lo + 1; a < hi; a++ {
			fs.Add(edgeFact(a, hi))
		}
		benchBucket = fs.FactsByComponent("edge", "src", value.Int(int64(lo+1)))
	}
}
