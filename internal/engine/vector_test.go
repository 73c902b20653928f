package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"logres/internal/obs"
	"logres/internal/value"
)

// Differential tests of the columnar evaluation path: for every program
// and EDB, the vectorized engine must produce the same facts, the same
// Firings, and the same convergence curve as the row engine.

const vecSchema = `
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
  SAME = (a: integer, b: integer);
  LOOP = (a: integer);
  FAR = (src: integer, dst: integer);
  HUB = (a: integer);
  PAIR = (a: integer, b: integer);
`

// vecPrograms exercises every construct the columnar plan compiler
// accepts — joins, bound negation, constants in atoms and heads,
// duplicate variables, comparisons, cross products — plus one rule
// (Y = 7 with Y unbound) the compiler must reject, so its stratum
// falls back to the row engine inside an otherwise vectorized run.
var vecPrograms = map[string]string{
	"closure": closureRules,
	"negation": closureRules + `
same(a: X, b: Y) <- edge(src: X, dst: Y), not tc(src: Y, dst: X).
`,
	"filters": closureRules + `
loop(a: X) <- tc(src: X, dst: X).
far(src: X, dst: Y) <- tc(src: X, dst: Y), X < Y, X != 2.
hub(a: X) <- edge(src: X, dst: 3).
hub(a: 99) <- loop(a: _).
pair(a: X, b: Y) <- hub(a: X), loop(a: Y).
`,
	"fallback-mix": closureRules + `
loop(a: X) <- tc(src: X, dst: X).
pair(a: X, b: Y) <- loop(a: X), Y = 7.
`,
}

func vecEDBs() map[string]*FactSet {
	return map[string]*FactSet{
		"chain":  chainEdgeFacts(40),
		"random": randomEdgeFacts(12, 40, 7),
		"dense":  randomEdgeFacts(6, 60, 11),
		"empty":  NewFactSet(),
	}
}

// TestVectorizedMatrixDifferential is the matrix: the row oracle is the
// reference, and the defaults must agree with it on the result set and
// reproduce its Firings, Steps and DeltaCurve exactly (same rounds, same
// per-rule valuation counts).
func TestVectorizedMatrixDifferential(t *testing.T) {
	for pname, rules := range vecPrograms {
		ref, err := tryBuild(vecSchema, rules, rowOracle())
		if err != nil {
			t.Fatalf("%s: %v", pname, err)
		}
		p, err := tryBuild(vecSchema, rules, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", pname, err)
		}
		for ename, edb := range vecEDBs() {
			c0 := int64(0)
			oracle, err := ref.Run(edb.Clone(), &c0)
			if err != nil {
				t.Fatalf("%s/%s oracle: %v", pname, ename, err)
			}
			oracleStats := ref.LastStats()

			c := int64(0)
			got, err := p.Run(edb.Clone(), &c)
			if err != nil {
				t.Fatalf("%s/%s: %v", pname, ename, err)
			}
			if !got.Equal(oracle) {
				t.Fatalf("%s/%s: diverged from the row oracle (%d vs %d facts)",
					pname, ename, got.TotalSize(), oracle.TotalSize())
			}
			st := p.LastStats()
			if fmt.Sprint(st.Firings) != fmt.Sprint(oracleStats.Firings) {
				t.Fatalf("%s/%s Firings = %v, row = %v", pname, ename, st.Firings, oracleStats.Firings)
			}
			if fmt.Sprint(st.DeltaCurve) != fmt.Sprint(oracleStats.DeltaCurve) {
				t.Fatalf("%s/%s DeltaCurve = %v, row = %v", pname, ename, st.DeltaCurve, oracleStats.DeltaCurve)
			}
			if st.Steps != oracleStats.Steps {
				t.Fatalf("%s/%s Steps = %d, row = %d", pname, ename, st.Steps, oracleStats.Steps)
			}
			if ename == "chain" && st.VectorizedStrata == 0 && pname != "fallback-mix" {
				t.Fatalf("%s/%s: vectorize on but VectorizedStrata = 0", pname, ename)
			}
		}
	}
}

// The stratum holding the inexpressible rule must fall back to the row
// engine while the closure stratum stays columnar.
func TestVectorizedFallbackIsPerStratum(t *testing.T) {
	p, err := tryBuild(vecSchema, vecPrograms["fallback-mix"],
		Options{SemiNaive: true, Vectorize: true})
	if err != nil {
		t.Fatal(err)
	}
	c := int64(0)
	if _, err := p.Run(chainEdgeFacts(10), &c); err != nil {
		t.Fatal(err)
	}
	st := p.LastStats()
	if st.VectorizedStrata == 0 {
		t.Fatalf("no stratum vectorized: %+v", st)
	}
	if st.VectorizedStrata >= st.SemiNaiveStrata {
		t.Fatalf("every semi-naive stratum vectorized (%d of %d); the Y = 7 stratum should have fallen back",
			st.VectorizedStrata, st.SemiNaiveStrata)
	}
	if !strings.Contains(p.Explain(), "semi-naive (vectorized)") {
		t.Fatalf("Explain does not show the vectorized mode:\n%s", p.Explain())
	}
}

// The vectorized path's deterministic trace stream must be identical
// run to run, and must contain the vec.kernel counters.
func TestVectorizedTraceDeterministic(t *testing.T) {
	stream := func() string {
		var buf bytes.Buffer
		p, err := tryBuild(vecSchema, vecPrograms["negation"],
			Options{SemiNaive: true, Vectorize: true, Tracer: obs.NewCanonicalJSONL(&buf)})
		if err != nil {
			t.Fatal(err)
		}
		c := int64(0)
		if _, err := p.Run(chainEdgeFacts(20), &c); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := stream(), stream()
	if a != b {
		t.Fatalf("vectorized canonical trace not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, string(obs.KindVecKernel)) {
		t.Fatalf("trace has no %s events:\n%s", obs.KindVecKernel, a)
	}
	for _, kernel := range []string{"join", "emit"} {
		if !strings.Contains(a, fmt.Sprintf("%q", kernel)) {
			t.Fatalf("trace has no %s kernel counter:\n%s", kernel, a)
		}
	}
}

// Empty-body fact rules compile to a unit-valuation pass: one firing in
// round 0, constants decoded straight into the head.
func TestVectorizedEmptyBodyRule(t *testing.T) {
	p, err := tryBuild(vecSchema, `
hub(a: 5).
loop(a: X) <- hub(a: X).
`, Options{SemiNaive: true, Vectorize: true})
	if err != nil {
		t.Fatal(err)
	}
	c := int64(0)
	f, err := p.Run(NewFactSet(), &c)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size("hub") != 1 || f.Size("loop") != 1 {
		t.Fatalf("hub=%d loop=%d, want 1/1", f.Size("hub"), f.Size("loop"))
	}
	if p.LastStats().VectorizedStrata == 0 {
		t.Fatal("fact rules did not take the columnar path")
	}
}

// A run copies its input once (runGuarded) and grows that copy in place:
// RunFrom never writes f0, and a frozen f0 — a published state — stays
// frozen with its stores shared, not copied or rebuilt. Checked on the
// defaults and on the row oracle, over the closure shape (two columnar
// strata, then two row strata), from the first stratum and from the
// first row stratum.
func TestVectorizedRunFromLeavesInputUntouched(t *testing.T) {
	render := func(f *FactSet) string {
		var b strings.Builder
		for _, pred := range f.Preds() {
			fmt.Fprintln(&b, f.Facts(pred))
			for _, label := range []string{"n", "src", "dst", "child", "parent"} {
				for i := 0; i < 8; i++ {
					fmt.Fprintln(&b, f.FactsByComponent(pred, label, value.Int(int64(i))))
				}
			}
		}
		return b.String()
	}
	for _, leg := range []struct {
		name string
		opts Options
	}{{"defaults", DefaultOptions()}, {"row", rowOracle()}} {
		p, err := tryBuild(closureShapeSchema, closureShapeRules, leg.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, frozen := range []bool{false, true} {
			for _, from := range []int{0, 2} {
				name := fmt.Sprintf("%s/frozen=%v/from=%d", leg.name, frozen, from)
				f0 := closureShapeEDB(32, 12, 1)
				if frozen {
					f0.Freeze()
				}
				want := render(f0)
				stores := map[string]predStore{}
				for _, pred := range f0.Preds() {
					stores[pred] = f0.preds[pred]
				}
				counter := int64(0)
				got, err := p.RunFrom(context.Background(), from, f0, &counter)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got == f0 || got.TotalSize() <= f0.TotalSize() {
					t.Fatalf("%s: the run returned its input or derived nothing", name)
				}
				if render(f0) != want {
					t.Fatalf("%s: the run changed its input", name)
				}
				if f0.Frozen() != frozen {
					t.Fatalf("%s: input frozen = %v after the run, want %v", name, f0.Frozen(), frozen)
				}
				if !frozen {
					continue
				}
				for pred, st := range stores {
					if !f0.preds[pred].facts.Same(st.facts) {
						t.Fatalf("%s: the run replaced the frozen input's store of %s", name, pred)
					}
				}
				// No stratum writes EDGE: the run reads the input's store of
				// it, never a copy.
				if !got.preds["edge"].facts.Same(stores["edge"].facts) {
					t.Fatalf("%s: the run copied the frozen input's store of edge", name)
				}
			}
		}
	}
}

// cancelAt cancels a run's context when the first round of a stratum
// ends, and forwards every event to next.
type cancelAt struct {
	stratum int
	cancel  context.CancelFunc
	next    obs.Tracer
}

func (c *cancelAt) Event(ev obs.Event) {
	if ev.Kind == obs.KindRoundEnd && ev.Stratum == c.stratum {
		c.cancel()
	}
	c.next.Event(ev)
}

// One compiled program lowers its columnar strata once and binds them
// afresh on every run. Reused over several EDBs, after a fact-budget
// abort inside a columnar stratum and after a run canceled inside one,
// it must give the facts, Firings and canonical trace (vec.kernel
// counters included) of a freshly compiled program. The program pins no
// run's batches: a result left in code space reads the same after later
// runs, aborted ones included, as it would have at once.
func TestProgramReuseAcrossRuns(t *testing.T) {
	opts := DefaultOptions()
	opts.Budget = Budget{MaxFacts: 600}
	compile := func() *Program {
		p, err := tryBuild(closureShapeSchema, closureShapeRules, opts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	reused := compile()
	if strata, _ := reused.plan(); strata[0].exec != execColumnar {
		t.Fatalf("stratum 0 runs %s, want the columnar kernels", strata[0].exec)
	}
	type result struct {
		facts   string
		firings string
		trace   string
		err     error
	}
	runOn := func(p *Program, ctx context.Context, edb *FactSet, wrap func(obs.Tracer) obs.Tracer) result {
		var buf bytes.Buffer
		var tr obs.Tracer = obs.NewCanonicalJSONL(&buf)
		if wrap != nil {
			tr = wrap(tr)
		}
		p.SetTracer(tr)
		counter := int64(0)
		f, err := p.RunContext(ctx, edb, &counter)
		r := result{firings: fmt.Sprint(p.LastStats().Firings), trace: buf.String(), err: err}
		if f != nil {
			r.facts = renderBuckets(f)
		}
		return r
	}
	same := func(step string, edb *FactSet) {
		t.Helper()
		got := runOn(reused, context.Background(), edb, nil)
		want := runOn(compile(), context.Background(), edb, nil)
		if got.err != nil || want.err != nil {
			t.Fatalf("%s: %v / fresh %v", step, got.err, want.err)
		}
		if got.facts != want.facts {
			t.Fatalf("%s: facts differ from a fresh program's", step)
		}
		if got.firings != want.firings {
			t.Fatalf("%s: Firings = %s, fresh %s", step, got.firings, want.firings)
		}
		if got.trace != want.trace {
			t.Fatalf("%s: canonical trace differs from a fresh program's:\n%s\nfresh:\n%s", step, got.trace, want.trace)
		}
		if !strings.Contains(got.trace, string(obs.KindVecKernel)) {
			t.Fatalf("%s: no vec.kernel counters", step)
		}
	}
	small, other := closureShapeEDB(12, 4, 1), closureShapeEDB(16, 6, 3)
	// kept runs the reused program and returns its result unread, so its
	// columnar heads are still in code space.
	kept := func(edb *FactSet) *FactSet {
		reused.SetTracer(nil)
		counter := int64(0)
		f, err := reused.Run(edb, &counter)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.coded) == 0 {
			t.Fatal("the run left no head in code space")
		}
		return f
	}
	keptSmall := kept(small)
	same("first run", small)
	same("second EDB", other)
	if renderBuckets(keptSmall) != runOn(compile(), context.Background(), small, nil).facts {
		t.Fatal("a result read after two later runs differs from a fresh program's")
	}
	keptOther := kept(other)

	r := runOn(reused, context.Background(), closureShapeEDB(48, 20, 1), nil)
	var be *BudgetError
	if !errors.As(r.err, &be) || be.Axis != AxisFacts || be.Stratum != 0 {
		t.Fatalf("big EDB: %v, want a fact-budget abort in stratum 0", r.err)
	}
	same("after a budget abort", small)
	if renderBuckets(keptOther) != runOn(compile(), context.Background(), other, nil).facts {
		t.Fatal("a result read after an aborted run differs from a fresh program's")
	}
	keptOther = kept(other)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r = runOn(reused, ctx, other, func(next obs.Tracer) obs.Tracer {
		return &cancelAt{stratum: 0, cancel: cancel, next: next}
	})
	var ce *CanceledError
	if !errors.As(r.err, &ce) || ce.Stratum != 0 {
		t.Fatalf("canceled run: %v, want a cancellation in stratum 0", r.err)
	}
	if renderBuckets(keptOther) != runOn(compile(), context.Background(), other, nil).facts {
		t.Fatal("a result read after a canceled run differs from a fresh program's")
	}
	same("after a canceled run", other)
	same("after a canceled run, first EDB", small)
}
