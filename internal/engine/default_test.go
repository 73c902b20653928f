package engine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

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
	out := p.Explain()
	for _, want := range []string{
		"stratum 0 (semi-naive (vectorized))",
		"stratum 1 (semi-naive (vectorized))",
		"stratum 2 (one-step inflationary, row (rule #5: oid invention))",
		"stratum 3 (one-step inflationary, row (rule #6: class head))",
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
