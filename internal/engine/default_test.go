package engine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"logres/internal/hooks"
	"logres/internal/obs"
	"logres/internal/value"
)

// rowOracle is the reference configuration every differential test
// compares against: the row engine. DefaultOptions selects the columnar
// kernels, so a reference side has to ask for the row engine by name.
func rowOracle() Options {
	o := DefaultOptions()
	o.Vectorize = false
	return o
}

// The program shape of the gated benchmark's closure_batch workload:
// linear closure, non-linear same-generation, one stratified negation
// over the closure, and a class-headed stratum that invents oids and
// propagates them up an isa edge.
const closureShapeSchema = `
classes
  VERTEX = (id: integer);
  ORIGIN = (VERTEX, rank: integer);
  ORIGIN isa VERTEX;
associations
  NODE = (n: integer);
  ROOT = (n: integer);
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
  PAR = (child: integer, parent: integer);
  SG = (a: integer, b: integer);
  UNREACH = (a: integer, b: integer);
`

const closureShapeRules = `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
sg(a: X, b: X) <- node(n: X).
sg(a: X, b: Y) <- par(child: X, parent: XP), sg(a: XP, b: YP), par(child: Y, parent: YP).
unreach(a: X, b: Y) <- root(n: X), node(n: Y), not tc(src: X, dst: Y).
origin(self: S, id: N, rank: 0) <- node(n: N), not unreach(a: 0, b: N).
`

// closureShapeEDB is a chain of n nodes with forward edges skipping 1
// to 3 nodes, a binary par tree over the nodes and a root every 16.
func closureShapeEDB(n, extra int, seed int64) *FactSet {
	r := rand.New(rand.NewSource(seed))
	fs := NewFactSet()
	unary := func(pred string, v int) {
		fs.Add(Fact{Pred: pred, Tuple: value.NewTuple(value.Field{Label: "n", Value: value.Int(int64(v))})})
	}
	for i := 0; i <= n; i++ {
		unary("node", i)
		if i%16 == 0 {
			unary("root", i)
		}
		if i > 0 {
			fs.Add(Fact{Pred: "par", Tuple: value.NewTuple(
				value.Field{Label: "child", Value: value.Int(int64(i))},
				value.Field{Label: "parent", Value: value.Int(int64((i - 1) / 2))},
			)})
		}
		if i < n {
			fs.Add(edgeFact(i, i+1))
		}
	}
	for i := 0; i < extra; i++ {
		a := r.Intn(n - 4)
		fs.Add(edgeFact(a, a+2+r.Intn(3)))
	}
	return fs
}

// Under the default options the benchmark's program runs its two
// expressible strata on the columnar kernels and reproduces the row oracle's facts, invented oids, Firings,
// Steps and DeltaCurve exactly — the counts the code-space delta loop
// keeps by hand instead of reading them off a fact set.
func TestDefaultsMatchRowOracleOnClosureShape(t *testing.T) {
	edb := closureShapeEDB(64, 24, 1)
	ref, err := tryBuild(closureShapeSchema, closureShapeRules, rowOracle())
	if err != nil {
		t.Fatal(err)
	}
	refCounter := int64(0)
	want, err := ref.Run(edb, &refCounter)
	if err != nil {
		t.Fatal(err)
	}

	ct := &collectTracer{}
	opts := DefaultOptions()
	opts.Tracer = ct
	p, err := tryBuild(closureShapeSchema, closureShapeRules, opts)
	if err != nil {
		t.Fatal(err)
	}
	counter := int64(0)
	got, err := p.Run(edb, &counter)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || counter != refCounter {
		t.Fatalf("defaults diverge from the row oracle: %d facts / counter %d, want %d / %d",
			got.TotalSize(), counter, want.TotalSize(), refCounter)
	}
	st, refSt := p.LastStats(), ref.LastStats()
	if !reflect.DeepEqual(st.Firings, refSt.Firings) {
		t.Fatalf("Firings = %v, row oracle %v", st.Firings, refSt.Firings)
	}
	if st.Steps != refSt.Steps {
		t.Fatalf("Steps = %d, row oracle %d", st.Steps, refSt.Steps)
	}
	if !reflect.DeepEqual(st.DeltaCurve, refSt.DeltaCurve) {
		t.Fatalf("DeltaCurve = %v, row oracle %v", st.DeltaCurve, refSt.DeltaCurve)
	}
	if st.Strata != 4 || st.VectorizedStrata != 2 || refSt.VectorizedStrata != 0 {
		t.Fatalf("strata %d, vectorized %d (row oracle %d); want 4, 2 (0)",
			st.Strata, st.VectorizedStrata, refSt.VectorizedStrata)
	}
	// The two strata left on the row engine say why, in Explain and on
	// their stratum.begin events (which is where a request Profile reads
	// it); the row oracle chose the row engine and explains nothing.
	// Both row strata reach their fixpoint in their first step, and say
	// so.
	out := p.Explain()
	for _, want := range []string{
		"stratum 0 (semi-naive (vectorized))",
		"stratum 1 (semi-naive (vectorized))",
		"stratum 2 (one-step inflationary, row (rule #5: oid invention)):\n  maintenance: none (rule #5: oid invention)\n  fixpoint: reached by its first step",
		"stratum 3 (one-step inflationary, row (rule #6: class head)):\n  maintenance: none (rule #6: class head)\n  fixpoint: reached by its first step",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain lacks %q:\n%s", want, out)
		}
	}
	var reasons []string
	for _, ev := range ct.events {
		if ev.Kind == obs.KindStratumBegin {
			reasons = append(reasons, ev.Reason)
		}
	}
	if want := []string{"", "", "rule #5: oid invention", "rule #6: class head"}; !reflect.DeepEqual(reasons, want) {
		t.Fatalf("stratum.begin reasons = %q, want %q", reasons, want)
	}
	if out := ref.Explain(); strings.Contains(out, "row (") {
		t.Fatalf("the row oracle explains a choice it did not make:\n%s", out)
	}
}

// closureShapeNoOriginRules is closureShapeRules without the rule that
// invents ORIGIN objects: the generated isa step vertex(X) <- origin(X)
// then sits on the first level of the dependency graph, beside tc and
// sg.
var closureShapeNoOriginRules = strings.Replace(closureShapeRules,
	"origin(self: S, id: N, rank: 0) <- node(n: N), not unreach(a: 0, b: N).\n", "", 1)

// closureShapeNoOriginEDB is closureShapeEDB(64, 24, 1) with four ORIGIN
// objects for the isa step to copy.
func closureShapeNoOriginEDB() *FactSet {
	fs := closureShapeEDB(64, 24, 1)
	for i := 0; i < 4; i++ {
		fs.Add(Fact{Pred: "origin", IsClass: true, OID: value.OID(100 + i), Tuple: value.NewTuple(
			value.Field{Label: "id", Value: value.Int(int64(i))}, value.Field{Label: "rank", Value: value.Int(1)})})
	}
	return fs
}

// compileReference compiles under hooks.PlanReference: every level one
// stratum, every one-step stratum confirming its fixpoint.
func compileReference(t testing.TB, schema, rules string, opts Options) *Program {
	t.Helper()
	hooks.PlanReference = true
	defer func() { hooks.PlanReference = false }()
	p, err := tryBuild(schema, rules, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A level's row-forcing components run as a stratum of their own, after
// its others: without the origin rule, the isa step no longer drags tc
// and sg onto the one-step operator, so they keep the columnar kernels
// and the closure rule fires as delta iteration fires it. The instance
// and the oid counter are those of the reference plan, which holds the
// level whole, on both executors.
func TestRowForcingComponentsRunAfterTheirLevel(t *testing.T) {
	edb := closureShapeNoOriginEDB()
	edb.Freeze()
	type leg struct {
		name string
		p    *Program
	}
	var legs []leg
	for _, ref := range []bool{false, true} {
		for _, opts := range []Options{DefaultOptions(), rowOracle()} {
			name := "defaults"
			if !opts.Vectorize {
				name = "row oracle"
			}
			var p *Program
			if ref {
				name += ", reference plan"
				p = compileReference(t, closureShapeSchema, closureShapeNoOriginRules, opts)
			} else {
				var err error
				if p, err = tryBuild(closureShapeSchema, closureShapeNoOriginRules, opts); err != nil {
					t.Fatal(err)
				}
			}
			legs = append(legs, leg{name, p})
		}
	}
	var want *FactSet
	var wantCounter int64
	for i, l := range legs {
		counter := int64(0)
		f, err := l.p.Run(edb, &counter)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want, wantCounter = f, counter
		} else if !f.Equal(want) || counter != wantCounter {
			t.Fatalf("%s: %d facts, counter %d; defaults %d, %d", l.name, f.TotalSize(), counter, want.TotalSize(), wantCounter)
		}
	}
	if want.Size("vertex") != 4 {
		t.Fatalf("%d vertex objects, want 4", want.Size("vertex"))
	}
	out := legs[0].p.Explain()
	for _, line := range []string{
		"stratified into 3 strata",
		"stratum 0 (semi-naive (vectorized))",
		"stratum 1 (one-step inflationary, row (rule #5: class head)):\n  maintenance: none (rule #5: class head)\n  fixpoint: reached by its first step",
		"  #5 vertex(X) <- origin(X).  [generated]\nstratum 2 (semi-naive (vectorized))",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("Explain lacks %q:\n%s", line, out)
		}
	}
	if out := legs[2].p.Explain(); !strings.Contains(out, "stratum 0 (one-step inflationary, row (rule #5: class head))") ||
		strings.Contains(out, "fixpoint: reached by its first step") {
		t.Fatalf("the reference plan does not hold the level whole, or skips a confirming step:\n%s", out)
	}
	// The closure rule (#1) as delta iteration fires it, on both
	// executors, and as the one-step operator over the whole level does.
	for i, wantFirings := range []int{2634, 2634, 70693, 70693} {
		if got := legs[i].p.LastStats().Firings[1]; got != wantFirings {
			t.Fatalf("%s: the closure rule fired %d times, want %d", legs[i].name, got, wantFirings)
		}
	}
}

// Plans that stop a one-step stratum after its first step or split a
// level agree with the reference plan, including where they must not
// apply: the stratum's firings give one oid two o-values, or an
// invention reads an object a step of its own stratum rewrites (so the
// reference keeps stepping, or never settles), or a rule enumerates an
// active domain the level's other components grow. The first three
// inputs hold objects whose class facts disagree, which no commit would
// accept, so that the condition shows in one step.
func TestPlansMatchTheReferencePlan(t *testing.T) {
	for _, c := range referencePlanCases() {
		t.Run(c.name, func(t *testing.T) {
			edb := NewFactSet()
			for _, f := range c.edb {
				edb.Add(f)
			}
			edb.Freeze()
			for _, opts := range []Options{DefaultOptions(), rowOracle()} {
				opts.Budget.MaxRounds = 60
				p, err := tryBuild(c.schema, c.rules, opts)
				if err != nil {
					t.Fatal(err)
				}
				ref := compileReference(t, c.schema, c.rules, opts)
				var results [2]*FactSet
				var counters [2]int64
				var errs [2]error
				for i, q := range []*Program{p, ref} {
					results[i], errs[i] = q.Run(edb, &counters[i])
				}
				if (errs[0] == nil) != (errs[1] == nil) {
					t.Fatalf("vectorize %v: err %v; reference plan %v", opts.Vectorize, errs[0], errs[1])
				}
				if errs[0] == nil && (!results[0].Equal(results[1]) || counters[0] != counters[1]) {
					t.Fatalf("vectorize %v: %d facts, counter %d; reference plan %d, %d", opts.Vectorize,
						results[0].TotalSize(), counters[0], results[1].TotalSize(), counters[1])
				}
				out := p.Explain()
				if settles := strings.Contains(out, "fixpoint: reached by its first step"); settles != c.settles {
					t.Fatalf("a stratum stops after its first step: %v, want %v:\n%s", settles, c.settles, out)
				}
				if splits := len(p.strata) != len(ref.strata); splits != c.splits {
					t.Fatalf("%d strata, reference %d:\n%s", len(p.strata), len(ref.strata), out)
				}
			}
		})
	}
}

// referencePlanCase is one program TestPlansMatchTheReferencePlan runs
// beside the reference plan: whether a stratum of it settles in one step
// and whether a level of it splits.
type referencePlanCase struct {
	name, schema, rules string
	edb                 []Fact
	settles, splits     bool
}

func referencePlanCases() []referencePlanCase {
	obj := func(class string, oid value.OID, fields ...value.Field) Fact {
		return Fact{Pred: class, IsClass: true, OID: oid, Tuple: value.NewTuple(fields...)}
	}
	str := func(label, v string) value.Field { return value.Field{Label: label, Value: value.Str(v)} }
	num := func(label string, v int) value.Field { return value.Field{Label: label, Value: value.Int(int64(v))} }
	return []referencePlanCase{{
		// o is an A and a B whose inherited names differ: the two isa
		// steps into P overwrite each other round after round.
		name: "two isa steps into one super",
		schema: `classes
  P = (name: string);
  A = (P, x: integer);
  B = (P, y: integer);
  A isa P;
  B isa P;`,
		edb: []Fact{obj("a", 1, str("name", "a"), num("x", 1)), obj("b", 1, str("name", "b"), num("y", 1))},
	}, {
		name: "a known oid written twice",
		schema: `classes
  P = (name: string);
associations
  TAG = (o: P, n: string);`,
		rules: `p(self: X, name: N) <- tag(o: X, n: N).`,
		edb: []Fact{obj("p", 1, str("name", "x")),
			{Pred: "tag", Tuple: value.NewTuple(value.Field{Label: "o", Value: value.Ref(1)}, str("n", "m"))},
			{Pred: "tag", Tuple: value.NewTuple(value.Field{Label: "o", Value: value.Ref(1)}, str("n", "n"))}},
	}, {
		// B sorts before S, so the invention copies o's B fact, which
		// the isa step of its stratum rewrites from o's S fact.
		name: "an invention reading an object its stratum rewrites",
		schema: `classes
  B = (name: string, tag: string);
  S = (B, x: integer);
  S isa B;
associations
  R = (o: S);`,
		rules: `b(self: Z, T, tag: "copy") <- r(o: T).`,
		edb: []Fact{obj("b", 1, str("name", "old"), str("tag", "t")), obj("s", 1, str("name", "new"), str("tag", "t"), num("x", 1)),
			{Pred: "r", Tuple: value.NewTuple(value.Field{Label: "o", Value: value.Ref(1)})}},
	}, {
		// M's values join the active domain X ranges over while the
		// objects are invented, round by round, each below the last: in
		// key order they would be numbered the other way round.
		name: "an active domain its level grows",
		schema: `classes
  C = (v: integer);
associations
  N = (n: integer);
  M = (n: integer);
  Q = (n: integer);`,
		rules: `m(n: Y) <- n(n: X), Y = X - 10.
m(n: Y) <- m(n: X), X > 15, Y = X - 10.
c(self: S, v: X) <- not q(n: X).`,
		edb: []Fact{{Pred: "n", Tuple: value.NewTuple(num("n", 50))}, {Pred: "q", Tuple: value.NewTuple(num("n", 40))}},
	}, {
		// A lower stratum renames o as an A; until the isa step into P
		// copies that name up, o's P fact satisfies the invention's
		// head, which holds only from the step after.
		name: "an invention into the super of an isa step",
		schema: `classes
  P = (name: string);
  A = (P, x: integer);
  A isa P;
associations
  R = (o: A);
  Q = (n: integer);`,
		rules: `a(self: X, name: "new", x: 1) <- r(o: X).
p(self: S, name: "old") <- q(n: 1).`,
		edb: []Fact{obj("p", 1, str("name", "old")), obj("a", 1, str("name", "old"), num("x", 1)),
			{Pred: "r", Tuple: value.NewTuple(value.Field{Label: "o", Value: value.Ref(1)})},
			{Pred: "q", Tuple: value.NewTuple(num("n", 1))}},
	}, {
		name: "an invention beside a closure",
		schema: `classes
  C = (v: integer);
associations
  E = (s: integer, d: integer);
  T = (s: integer, d: integer);`,
		rules: `t(s: X, d: Y) <- e(s: X, d: Y).
t(s: X, d: Z) <- t(s: X, d: Y), e(s: Y, d: Z).
c(self: S, v: X) <- e(s: X, d: 0).`,
		edb: []Fact{{Pred: "e", Tuple: value.NewTuple(num("s", 1), num("d", 0))}, {Pred: "e", Tuple: value.NewTuple(num("s", 0), num("d", 1))},
			{Pred: "e", Tuple: value.NewTuple(num("s", 2), num("d", 0))}},
		settles: true, splits: true,
	}}
}

var benchSink *FactSet

// BenchmarkClosureShape derives the closure_batch instance from scratch
// under the default options and on the row oracle.
func BenchmarkClosureShape(b *testing.B) {
	edb := closureShapeEDB(64, 24, 1)
	edb.Freeze()
	for _, c := range []struct {
		name string
		opts Options
	}{{"defaults", DefaultOptions()}, {"row", rowOracle()}} {
		b.Run(c.name, func(b *testing.B) {
			p, err := tryBuild(closureShapeSchema, closureShapeRules, c.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				counter := int64(0)
				if benchSink, err = p.Run(edb, &counter); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
