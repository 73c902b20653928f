package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"logres/internal/value"
)

// Property-based tests of the engine's semantic invariants.

// randomEdgeFacts builds a deterministic random edge EDB.
func randomEdgeFacts(n, m int, seed int64) *FactSet {
	r := rand.New(rand.NewSource(seed))
	fs := NewFactSet()
	for i := 0; i < m; i++ {
		a, b := r.Intn(n), r.Intn(n)
		fs.Add(Fact{Pred: "edge", Tuple: value.NewTuple(
			value.Field{Label: "src", Value: value.Int(int64(a))},
			value.Field{Label: "dst", Value: value.Int(int64(b))},
		)})
	}
	return fs
}

const edgeSchema = `
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
  SAME = (a: integer, b: integer);
`

const closureRules = `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
`

// Property: semi-naive and naive evaluation agree on random graphs.
func TestSemiNaiveEqualsNaiveProperty(t *testing.T) {
	naive, err := tryBuild(edgeSchema, closureRules,
		Options{SemiNaive: false})
	if err != nil {
		t.Fatal(err)
	}
	semi, err := tryBuild(edgeSchema, closureRules,
		Options{SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, nodes, edges uint8) bool {
		n := int(nodes%8) + 2
		m := int(edges%20) + 1
		edb := randomEdgeFacts(n, m, seed)
		c1, c2 := int64(0), int64(0)
		fN, err1 := naive.Run(edb, &c1)
		fS, err2 := semi.Run(edb, &c2)
		if err1 != nil || err2 != nil {
			return false
		}
		return fN.Equal(fS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: inflationary evaluation of positive programs is monotone in
// the EDB — adding edges never removes closure facts.
func TestMonotonicityProperty(t *testing.T) {
	p, err := tryBuild(edgeSchema, closureRules, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, nodes, edges uint8) bool {
		n := int(nodes%8) + 2
		m := int(edges%15) + 1
		small := randomEdgeFacts(n, m, seed)
		big := small.Clone()
		big.Add(Fact{Pred: "edge", Tuple: value.NewTuple(
			value.Field{Label: "src", Value: value.Int(0)},
			value.Field{Label: "dst", Value: value.Int(1)},
		)})
		c1, c2 := int64(0), int64(0)
		fSmall, err1 := p.Run(small, &c1)
		fBig, err2 := p.Run(big, &c2)
		if err1 != nil || err2 != nil {
			return false
		}
		for _, fact := range fSmall.Facts("tc") {
			if !fBig.Has(fact) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: closure results agree with a reference Floyd–Warshall style
// computation.
func TestClosureAgainstReference(t *testing.T) {
	p, err := tryBuild(edgeSchema, closureRules, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, nodes, edges uint8) bool {
		n := int(nodes%7) + 2
		m := int(edges%18) + 1
		edb := randomEdgeFacts(n, m, seed)
		c := int64(0)
		out, err := p.Run(edb, &c)
		if err != nil {
			return false
		}
		// Reference closure.
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = make([]bool, n)
		}
		for _, fact := range edb.Facts("edge") {
			a, _ := fact.Tuple.Get("src")
			b, _ := fact.Tuple.Get("dst")
			reach[a.(value.Int)][b.(value.Int)] = true
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[i][k] && reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		want := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if reach[i][j] {
					want++
				}
			}
		}
		return out.Size("tc") == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Determinacy (Appendix B): programs with invention define results up to
// oid renaming. Running the same program from EDBs that differ only in a
// permutation of fact insertion order yields isomorphic instances — and
// since evaluation is deterministic over canonical fact order, actually
// identical ones.
func TestDeterminacyUnderInsertionOrder(t *testing.T) {
	schemaSrc := `
classes ITEM = (k: integer);
associations SEED = (k: integer);
`
	p, err := tryBuild(schemaSrc, `item(self: X, k: K) <- seed(k: K).`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := func(xs []int8, seed int64) bool {
		mk := func(order []int8) (*FactSet, int64) {
			fs := NewFactSet()
			for _, x := range order {
				fs.Add(Fact{Pred: "seed", Tuple: value.NewTuple(
					value.Field{Label: "k", Value: value.Int(int64(x))},
				)})
			}
			c := int64(0)
			out, err := p.Run(fs, &c)
			if err != nil {
				return nil, 0
			}
			return out, c
		}
		shuffled := append([]int8{}, xs...)
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		f1, _ := mk(xs)
		f2, _ := mk(shuffled)
		if f1 == nil || f2 == nil {
			return false
		}
		// Same object count and same multiset of o-values.
		if f1.Size("item") != f2.Size("item") {
			return false
		}
		vals := map[string]int{}
		for _, fact := range f1.Facts("item") {
			vals[fact.Tuple.Key()]++
		}
		for _, fact := range f2.Facts("item") {
			vals[fact.Tuple.Key()]--
		}
		for _, n := range vals {
			if n != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the inflationary fixpoint is idempotent — running the program
// on its own output adds nothing.
func TestFixpointIdempotent(t *testing.T) {
	p, err := tryBuild(edgeSchema, closureRules, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, nodes, edges uint8) bool {
		n := int(nodes%8) + 2
		m := int(edges%15) + 1
		edb := randomEdgeFacts(n, m, seed)
		c := int64(0)
		once, err := p.Run(edb, &c)
		if err != nil {
			return false
		}
		twice, err := p.Run(once, &c)
		if err != nil {
			return false
		}
		return once.Equal(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: ⊕ composition is associative on disjoint-oid operands and the
// right bias resolves conflicts.
func TestComposeProperties(t *testing.T) {
	mk := func(oid int64, v int64) Fact {
		return Fact{Pred: "c", IsClass: true, OID: value.OID(oid),
			Tuple: value.NewTuple(value.Field{Label: "v", Value: value.Int(v)})}
	}
	f := func(xs []uint8) bool {
		a, b := NewFactSet(), NewFactSet()
		for i, x := range xs {
			fact := mk(int64(x%16)+1, int64(i))
			if i%2 == 0 {
				a.Add(fact)
			} else {
				b.Add(fact)
			}
		}
		ab := a.Compose(b)
		// Every oid of b must carry b's o-value in the composition.
		for _, fact := range b.Facts("c") {
			got, ok := ab.HasOID("c", fact.OID)
			if !ok || got.Key() != fact.Key() {
				return false
			}
		}
		// Every oid only in a survives unchanged.
		for _, fact := range a.Facts("c") {
			if _, inB := b.HasOID("c", fact.OID); inB {
				continue
			}
			got, ok := ab.HasOID("c", fact.OID)
			if !ok || got.Key() != fact.Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: FactSet operations respect set laws on association facts.
func TestFactSetAlgebraProperties(t *testing.T) {
	mk := func(x uint8) Fact {
		return Fact{Pred: "p", Tuple: value.NewTuple(
			value.Field{Label: "v", Value: value.Int(int64(x))},
		)}
	}
	build := func(xs []uint8) *FactSet {
		fs := NewFactSet()
		for _, x := range xs {
			fs.Add(mk(x))
		}
		return fs
	}
	f := func(xs, ys []uint8) bool {
		a, b := build(xs), build(ys)
		u := a.Compose(b)
		i := a.Intersect(b)
		d := a.Minus(b)
		// |A ∪ B| = |A| + |B| − |A ∩ B|
		if u.TotalSize() != a.TotalSize()+b.TotalSize()-i.TotalSize() {
			return false
		}
		// A − B and A ∩ B partition A.
		if d.TotalSize()+i.TotalSize() != a.TotalSize() {
			return false
		}
		// (A − B) ∩ B = ∅
		if d.Intersect(b).TotalSize() != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Stats sanity: firing counts and step counts are populated.
func TestStatsPopulated(t *testing.T) {
	p := build(t, edgeSchema, fmt.Sprintf("edge(src: 1, dst: 2).\n%s", closureRules))
	_ = run(t, p)
	st := p.LastStats()
	if st == nil || st.Steps == 0 {
		t.Fatalf("stats = %+v", st)
	}
	total := 0
	for _, n := range st.Firings {
		total += n
	}
	if total == 0 {
		t.Fatal("no firings recorded")
	}
	out := p.Explain()
	if out == "" {
		t.Fatal("empty explain")
	}
}
