package engine

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"logres/internal/colset"
	"logres/internal/pmap"
	"logres/internal/types"
	"logres/internal/value"
)

// Tests of the FactSet's per-predicate stores: key order, label indexes
// kept by every write, and copy-on-write sharing between clones.

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

// Index maintenance: once a label's index exists, interleaved
// Add/Remove and lookups see every write, a clone sees the source's facts
// and indexes without the source seeing the clone's writes, and so do the
// results of Compose and Minus.
func TestFactSetIncrementalCache(t *testing.T) {
	fs := NewFactSet()
	for i := 0; i < 8; i++ {
		fs.Add(edgeFact(i, i+1))
	}
	fs.FactsByComponent("edge", "src", value.Int(0))
	for i := 8; i < 200; i++ {
		fs.Add(edgeFact(i, i+1))
		if got := fs.FactsByComponent("edge", "src", value.Int(int64(i))); len(got) != 1 {
			t.Fatalf("after add %d: bucket size %d, want 1", i, len(got))
		}
		if len(fs.Facts("edge")) != i+1 {
			t.Fatalf("after add %d: list size %d, want %d", i, len(fs.Facts("edge")), i+1)
		}
	}
	for i := 8; i < 50; i++ {
		fs.Remove(edgeFact(i, i+1))
		if got := fs.FactsByComponent("edge", "src", value.Int(int64(i))); len(got) != 0 {
			t.Fatalf("after remove %d: bucket size %d, want 0", i, len(got))
		}
	}
	if fs.Size("edge") != 158 {
		t.Fatalf("size = %d, want 158", fs.Size("edge"))
	}

	cl := fs.Clone()
	if _, ok := cl.preds["edge"].indexOf("src"); !ok {
		t.Fatal("the clone does not start with the source's src index")
	}
	if len(cl.Facts("edge")) != fs.Size("edge") {
		t.Fatal("clone lost facts")
	}
	cl.Add(edgeFact(500, 501))
	if got := cl.FactsByComponent("edge", "src", value.Int(500)); len(got) != 1 {
		t.Fatalf("clone bucket size %d after add, want 1", len(got))
	}
	if fs.Has(edgeFact(500, 501)) {
		t.Fatal("clone mutation leaked into the source")
	}
	if got := fs.FactsByComponent("edge", "src", value.Int(500)); len(got) != 0 {
		t.Fatalf("source bucket sees clone's fact: %v", got)
	}

	small := NewFactSet()
	small.Add(edgeFact(600, 601))
	comp := fs.Compose(small)
	if got := comp.FactsByComponent("edge", "src", value.Int(600)); len(got) != 1 {
		t.Fatalf("compose bucket size %d, want 1", len(got))
	}
	min := fs.Minus(cl)
	if min.Size("edge") != 0 {
		t.Fatalf("Minus of a superset left %d facts", min.Size("edge"))
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
// a clone's writes. Freeze builds no index, and every goroutine starts
// behind one barrier, so the first probes of the never-built labels race:
// the frozen set's readers build each label once and share its buckets,
// and each clone builds its own.
func TestFrozenConcurrentReaders(t *testing.T) {
	fs := randomEdgeFacts(20, 200, 5)
	fs.Freeze()
	if !fs.frozen {
		t.Fatal("not frozen after Freeze")
	}
	if len(fs.preds["edge"].index) != 0 {
		t.Fatal("Freeze built an index")
	}
	const readers, cloners = 8, 8
	probe := fs.Facts("edge")[0].Tuple
	src, _ := probe.Get("src")
	dst, _ := probe.Get("dst")
	labels := []string{"src", "dst", "missing"}
	probes := []value.Value{src, dst, value.Null{}}
	first := make([][][]Fact, readers+cloners) // each goroutine's first bucket per label
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
			for i := range labels {
				j := (i + g) % len(labels) // the goroutines race on different labels first
				if first[g] == nil {
					first[g] = make([][]Fact, len(labels))
				}
				first[g][j] = set.FactsByComponent("edge", labels[j], probes[j])
			}
			for i := 0; i < 200; i++ {
				v := value.Int(int64((g*31 + i) % 20))
				_ = set.Facts("edge")
				_ = set.FactsByComponent("edge", "src", v)
				_ = set.FactsByComponent("edge", "dst", v)
				_ = set.FactsByComponent("edge", "missing", v)
				_ = set.FactsByComponent("ghost", "src", v)
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
		for i, label := range labels {
			if len(b[i]) == 0 || !slices.Equal(sortedFactKeys(b[i]), sortedFactKeys(first[0][i])) {
				t.Fatalf("goroutine %d got another %s bucket than goroutine 0 (%d facts)", g, label, len(b[i]))
			}
			if g < readers && &b[i][0] != &first[0][i][0] {
				t.Fatalf("reader %d got its own %s bucket: the label was built twice", g, label)
			}
		}
	}
	if n := len(fs.preds["edge"].index); n != 0 {
		t.Fatalf("the frozen set's readers wrote %d indexes into its store", n)
	}
	for g := 0; g < readers+cloners; g++ {
		if fs.Has(edgeFact(100+g, 0)) {
			t.Fatalf("clone %d's add leaked into the frozen source", g)
		}
	}
	if cl := fs.Clone(); len(cl.preds["edge"].index) != len(labels) {
		t.Fatalf("a clone after the probes starts with %d indexes, want the %d the readers built", len(cl.preds["edge"].index), len(labels))
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
	// A label the frozen set's readers built lazily.
	lookup = func() { got = fs.FactsByComponent("edge", "dst", probe) }
	lookup()
	if n := testing.AllocsPerRun(100, lookup); n != 0 || len(got) != 1 {
		t.Errorf("frozen FactsByComponent on a lazily built label: %v allocations and %d facts, want 0 and 1", n, len(got))
	}
}

// A bucket slice a read returned never changes: not when the set that
// returned it removes from the bucket, whether the read came while the
// set was frozen or not, and not when it appends.
func TestReturnedBucketNeverChanges(t *testing.T) {
	fs := NewFactSet()
	fs.FactsByComponent("edge", "src", value.Int(1)) // index src before the writes
	for d := 0; d < 6; d++ {
		fs.Add(edgeFact(1, d))
	}
	fs.Remove(edgeFact(1, 5)) // the writer's own array, not yet read
	for _, frozen := range []bool{true, false} {
		if frozen {
			fs.Freeze()
		}
		b := fs.FactsByComponent("edge", "src", value.Int(1))
		want := factKeys(b)
		if frozen {
			fs = fs.Clone()
		}
		fs.Remove(edgeFact(1, 0))
		fs.Add(edgeFact(1, 9))
		if got := factKeys(b); !slices.Equal(got, want) {
			t.Fatalf("frozen=%v: a returned bucket changed from %v to %v", frozen, want, got)
		}
		if n := len(fs.FactsByComponent("edge", "src", value.Int(1))); n != len(want) {
			t.Fatalf("frozen=%v: bucket holds %d facts after one removal and one add, want %d", frozen, n, len(want))
		}
		fs.Add(edgeFact(1, 0))
		fs.Remove(edgeFact(1, 9))
	}
}

// A window sliding over the values of a label must not grow that label's
// index: the removal that empties a bucket deletes it instead of leaving
// an empty one behind.
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
		if idx, _ := fs.preds["edge"].indexOf("src"); idx.Len() > window {
			t.Fatalf("value %d: src index holds %d buckets for a %d-wide window", v, idx.Len(), window)
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

// srcDst is the effective type of the edge-shaped test associations.
var srcDst = types.Tuple{Fields: []types.Field{{Label: "src"}, {Label: "dst"}}}

// lookupKeys returns, sorted, the keys of the candidates lookup gives for
// fixed that agree with it; the reference is the same filter over a walk.
func lookupKeys(fs *FactSet, pred string, eff types.Tuple, fixed []fixedArg) []string {
	var keys []string
	fs.lookup(pred, eff, fixed).each(func(f Fact) bool {
		if admits(fixed, f) {
			keys = append(keys, f.Key())
		}
		return true
	})
	sort.Strings(keys)
	return keys
}

// Property: per-predicate copy-on-write sharing is invisible. Random
// interleavings of Add, Remove, class-oid replacement, Clone and
// Freeze (a frozen set is replaced by its clone) over a set and its clones agree with deep copies after every step,
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
		if s.frozen && op < 7 {
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
			if s.frozen {
				s = s.Clone()
				sets[i] = s
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
// the access pattern of a semi-naive round: O(log n) per fact once the
// index exists.
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
// A removal copies only its buckets.
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

func factKeys(fs []Fact) []string {
	keys := make([]string, len(fs))
	for i, f := range fs {
		keys[i] = f.Key()
	}
	return keys
}

// modelSet is the reference of the FactSet model test: a plain key →
// fact map, copied whole on every clone, read in sorted key order.
type modelSet struct {
	fs     *FactSet
	ref    refSet
	frozen bool
}

// keysOf returns the sorted keys of pred's facts in the reference.
func (m *modelSet) keysOf(pred string) []string {
	return m.ref.keysOf(pred, func(Fact) bool { return true })
}

// checkIndexes checks every label index a set holds — built by writes or
// by the readers of a frozen set — against its facts: each fact sits once
// in the bucket of its value, and no bucket is empty.
func checkIndexes(t *testing.T, step int, fs *FactSet) {
	t.Helper()
	type built struct {
		pred, label string
		idx         pmap.Map[string, bucket]
	}
	var all []built
	for p, st := range fs.preds {
		for _, ix := range st.index {
			all = append(all, built{p, ix.label, ix.buckets})
		}
	}
	if b := fs.lazy.built.Load(); b != nil {
		for pl, idx := range *b {
			all = append(all, built{pl[0], pl[1], idx})
		}
	}
	for _, b := range all {
		n := 0
		b.idx.Ascend(func(bk string, bu bucket) bool {
			if len(bu.facts) == 0 {
				t.Fatalf("step %d: %s.%s: empty bucket %q", step, b.pred, b.label, bk)
			}
			for _, f := range bu.facts {
				if componentKey(f, b.label) != bk || !fs.Has(f) {
					t.Fatalf("step %d: %s.%s: bucket %q holds %v", step, b.pred, b.label, bk, f)
				}
			}
			n += len(bu.facts)
			return true
		})
		if n != fs.preds[b.pred].facts.Len() {
			t.Fatalf("step %d: %s.%s: the buckets hold %d facts, the store %d", step, b.pred, b.label, n, fs.preds[b.pred].facts.Len())
		}
	}
}

// handOff hands a few new edge facts to s in code space, as a columnar
// stratum does at its fixpoint: a batch encoding edge's stored facts,
// then the new rows. It reports the facts handed over.
func handOff(s *FactSet, pick func(int) int) []Fact {
	labels := []string{"src", "dst"}
	dict := colset.NewDict()
	batch := colset.NewBatch(len(labels))
	row := func(f Fact) {
		r := make([]uint32, len(labels))
		for i, l := range labels {
			v, _ := f.Tuple.Get(l)
			r[i] = dict.Code(v)
		}
		batch.AppendRow(r)
	}
	s.Each("edge", func(f Fact) bool {
		row(f)
		return true
	})
	base := batch.Len()
	var added []Fact
	seen := map[string]bool{}
	for i := pick(4); i >= 0; i-- {
		f := edgeFact(pick(8), pick(8))
		if s.Has(f) || seen[f.Key()] {
			continue
		}
		seen[f.Key()] = true
		row(f)
		added = append(added, f)
	}
	s.setCoded("edge", &codedPred{dict: dict, labels: labels, batch: batch, base: base})
	return added
}

// factSetModel interprets ops as steps over up to four fact sets, each
// beside its reference map: Add (association and class ⊕ replacement),
// Remove (present, absent and batched), Clone (either side written from
// then on), Freeze, a frozen set's clone, a code-space hand-off, a walk that writes the
// set it walks, and reads. After every step the touched set is compared
// with its reference — Facts and Each in strict key order,
// FactsByComponent as a set (bucket order carries no meaning), Size,
// Has and HasOID — and its indexes are checked; a write is also checked
// not to reach the other sets.
func factSetModel(t *testing.T, ops []byte) {
	const vals = 8
	labels := map[string][]string{"edge": {"src", "dst", "nolabel"}, "node": {"tag"}}
	pos := 0
	pick := func(n int) int {
		if pos >= len(ops) {
			return 0
		}
		pos++
		return int(ops[pos-1]) % n
	}
	sets := []*modelSet{{fs: NewFactSet(), ref: refSet{}}}
	// lent holds buckets reads returned, with their keys then: a slice a
	// read returned never changes, whatever is written after it.
	type loan struct {
		facts []Fact
		keys  []string
	}
	var lent []loan
	reads := 0
	effs := map[string]types.Tuple{"edge": srcDst, "ghost": srcDst, "node": {Fields: []types.Field{{Label: "tag"}}}}
	check := func(step int, m *modelSet) {
		t.Helper()
		for _, l := range lent {
			if got := factKeys(l.facts); !slices.Equal(got, l.keys) {
				t.Fatalf("step %d: a bucket read earlier changed from %v to %v", step, l.keys, got)
			}
		}
		// lookup, before the reads below build every index: its
		// candidates, filtered, are the reference's filtered walk. A label
		// of w0…w7 no fact holds is indexed on its first probe.
		a, b := int64(step&7), int64(step>>3&7)
		noIndex := fmt.Sprintf("w%d", step>>6&7)
		for _, pb := range []struct {
			pred  string
			fixed []fixedArg
			one   bool // the probe fixes an oid or a whole key
		}{
			{"node", []fixedArg{{self: true, v: value.Ref(a + 1)}}, true},
			{"edge", []fixedArg{{label: "dst", v: value.Int(b)}, {label: "src", v: value.Int(a)}}, true},
			{"edge", []fixedArg{{label: "src", v: value.Int(a)}}, false},
			{"node", []fixedArg{{label: "tag", v: value.Int(b)}}, false},
			{"edge", []fixedArg{{label: noIndex, v: value.Null{}}, {label: "nolabel", v: value.Null{}}, {label: "dst", v: value.Int(b)}}, false},
			{"edge", []fixedArg{{label: noIndex, v: value.Null{}}}, false},
			{"edge", nil, false},
			{"ghost", []fixedArg{{label: "src", v: value.Int(a)}}, false},
		} {
			want := m.ref.keysOf(pb.pred, func(f Fact) bool { return admits(pb.fixed, f) })
			if got := lookupKeys(m.fs, pb.pred, effs[pb.pred], pb.fixed); !slices.Equal(got, want) {
				t.Fatalf("step %d: lookup(%s, %v)\n got %v\nwant %v", step, pb.pred, pb.fixed, got, want)
			}
			if n := m.fs.lookup(pb.pred, effs[pb.pred], pb.fixed).len(); pb.one && n > 1 {
				t.Fatalf("step %d: lookup(%s, %v) gave %d candidates, want at most 1", step, pb.pred, pb.fixed, n)
			}
		}
		if _, ok := m.fs.builtIndex("ghost", "src"); ok {
			t.Fatalf("step %d: a lookup on an empty predicate built an index", step)
		}
		for _, p := range []string{"edge", "node", "ghost"} {
			want := m.keysOf(p)
			if got := factKeys(m.fs.Facts(p)); !slices.Equal(got, want) {
				t.Fatalf("step %d: Facts(%s)\n got %v\nwant %v", step, p, got, want)
			}
			var walked []string
			m.fs.Each(p, func(f Fact) bool {
				walked = append(walked, f.Key())
				return true
			})
			if !slices.Equal(walked, want) {
				t.Fatalf("step %d: Each(%s)\n got %v\nwant %v", step, p, walked, want)
			}
			if m.fs.Size(p) != len(want) {
				t.Fatalf("step %d: Size(%s) = %d, want %d", step, p, m.fs.Size(p), len(want))
			}
			for _, label := range labels[p] {
				for v := -1; v < vals; v++ {
					var val value.Value = value.Int(int64(v))
					if v < 0 {
						val = value.Null{}
					}
					want := m.ref.keysOf(p, func(f Fact) bool { return componentKey(f, label) == val.Key() })
					b := m.fs.FactsByComponent(p, label, val)
					if got := sortedFactKeys(b); !slices.Equal(got, want) {
						t.Fatalf("step %d: FactsByComponent(%s, %s, %v)\n got %v\nwant %v", step, p, label, val, got, want)
					}
					if reads++; len(b) > 0 && reads%7 == 0 {
						lent = append(lent, loan{b, factKeys(b)})
						if len(lent) > 32 {
							lent = lent[1:]
						}
					}
				}
			}
		}
		for o := 1; o <= vals; o++ {
			want := m.ref.keysOf("node", func(f Fact) bool { return f.OID == value.OID(o) })
			f, ok := m.fs.HasOID("node", value.OID(o))
			if ok != (len(want) == 1) || ok && f.Key() != want[0] {
				t.Fatalf("step %d: HasOID(node, %d) = %v, %v; want %v", step, o, f, ok, want)
			}
		}
		checkIndexes(t, step, m.fs)
	}
	present := func(m *modelSet) (Fact, bool) {
		keys := append(m.keysOf("edge"), m.keysOf("node")...)
		if len(keys) == 0 {
			return Fact{}, false
		}
		return m.ref[keys[pick(len(keys))]], true
	}
	randomFact := func() Fact {
		if pick(3) == 0 {
			return classTagFact(int64(pick(vals)+1), int64(pick(vals)))
		}
		return edgeFact(pick(vals), pick(vals))
	}
	for step := 0; pos < len(ops); step++ {
		i := pick(len(sets))
		m := sets[i]
		op := pick(10)
		if m.frozen && op < 6 {
			op = 6 + pick(4) // a frozen set only clones, thaws or is read
		}
		wrote := true
		switch op {
		case 0, 1: // add, a class fact replacing its oid's o-value included
			f := randomFact()
			_, had := m.ref[f.Key()]
			if got := m.fs.Add(f); got == had {
				t.Fatalf("step %d: Add(%v) = %v, want %v", step, f, got, !had)
			}
			m.ref.add(f)
		case 2: // remove present facts, one or a batch
			for j := pick(3) * pick(4); j >= 0; j-- {
				if f, ok := present(m); ok {
					if !m.fs.Remove(f) {
						t.Fatalf("step %d: Remove(%v) of a present fact = false", step, f)
					}
					delete(m.ref, f.Key())
				}
			}
		case 3: // remove a fact that may be absent
			f := randomFact()
			_, had := m.ref[f.Key()]
			if got := m.fs.Remove(f); got != had {
				t.Fatalf("step %d: Remove(%v) = %v, want %v", step, f, got, had)
			}
			delete(m.ref, f.Key())
		case 4: // code-space hand-off, when none is pending
			if m.fs.coded["edge"] != nil {
				wrote = false
				break
			}
			for _, f := range handOff(m.fs, pick) {
				m.ref.add(f)
			}
		case 5: // a walk that writes the set it walks sees the set as it began
			want := m.keysOf("edge")
			var walked []string
			m.fs.Each("edge", func(f Fact) bool {
				walked = append(walked, f.Key())
				g := edgeFact(pick(vals), pick(vals))
				if pick(2) == 0 {
					m.fs.Add(g)
					m.ref.add(g)
				} else {
					m.fs.Remove(g)
					delete(m.ref, g.Key())
				}
				_ = m.fs.FactsByComponent("edge", "src", value.Int(int64(pick(vals))))
				return true
			})
			if !slices.Equal(walked, want) {
				t.Fatalf("step %d: a writing walk saw\n %v\nwant %v", step, walked, want)
			}
		case 6, 7: // clone; replace a random set once the pool is full
			c := &modelSet{fs: m.fs.Clone(), ref: maps.Clone(m.ref)}
			if len(sets) < 4 {
				sets = append(sets, c)
			} else {
				sets[pick(len(sets))] = c
			}
			wrote = false
		case 8: // freeze / thaw
			if m.frozen {
				m.fs = m.fs.Clone()
			} else {
				m.fs.Freeze()
			}
			m.frozen = !m.frozen
			wrote = false
		default: // a read
			wrote = false
		}
		check(step, m)
		if wrote {
			for _, o := range sets {
				if o != m && pick(2) == 0 {
					check(step, o)
				}
			}
		}
	}
	for step, m := range sets {
		check(-1-step, m)
	}
}

// randomOps returns n pseudo-random op bytes.
func randomOps(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	ops := make([]byte, n)
	r.Read(ops)
	return ops
}

// Property: a FactSet is a set of facts, whatever its stores, indexes,
// sharing and code-space rows do underneath. Checked against a plain map
// plus sort over random interleavings of every write, Clone, Freeze,
// code-space hand-offs and reads.
func TestFactSetModelDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		factSetModel(t, randomOps(seed, 6000))
	}
}

func FuzzFactSet(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomOps(seed, 64))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		factSetModel(t, ops)
	})
}
