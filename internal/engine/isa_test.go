package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"logres/internal/guard"
	"logres/internal/instance"
	"logres/internal/obs"
	"logres/internal/value"
)

// Schemas with more isa structure than STUDENT isa PERSON: a three-level
// chain and a diamond (D inherits A twice, through B and through C).
const isaChainSchema = `
classes
  A = (v: string);
  B = (A, w: string);
  C = (B, u: string);
  B isa A;
  C isa B;
`

const isaDiamondSchema = `
classes
  A = (v: string);
  B = (A, w: string);
  C = (A, u: string);
  D = (B, C, x: string);
  B isa A;
  C isa A;
  D isa B;
  D isa C;
`

// isaObj builds the class fact of object oid in pred, its o-value
// projected onto pred's effective type (missing labels are null).
func isaObj(t *testing.T, p *Program, pred string, oid value.OID, kv ...string) Fact {
	t.Helper()
	eff, err := p.schema.EffectiveTuple(pred)
	if err != nil {
		t.Fatal(err)
	}
	var fields []value.Field
	for i := 0; i+1 < len(kv); i += 2 {
		fields = append(fields, value.Field{Label: kv[i], Value: value.Str(kv[i+1])})
	}
	return Fact{Pred: pred, IsClass: true, OID: oid, Tuple: instance.Project(value.NewTuple(fields...), eff)}
}

// isaRun is what one evaluation of the generated rules left behind.
type isaRun struct {
	dplus    *FactSet
	firings  map[int]int
	invented int
	steps    int
	emitted  int
	counter  int64
	events   []obs.Event
	err      string
}

// evalGenerated evaluates p's generated rules in program order over f,
// as oneStep does, either through the compiled isa step or through the
// general matcher over each rule's own compiled body and head.
func evalGenerated(p *Program, f *FactSet, reemit, viaStep bool, g *guard.Guard) isaRun {
	ct := &collectTracer{}
	p.SetTracer(ct)
	defer p.SetTracer(nil)
	counter := int64(f.MaxOID())
	stats := newStats()
	c := &evalCtx{p: p, f: f, counter: &counter, stats: stats, reemit: reemit, g: g}
	dplus := NewFactSet()
	var err error
	for _, r := range p.rules {
		if r.isa == nil {
			continue
		}
		if viaStep {
			err = c.isaPass(r, dplus)
		} else {
			err = c.matchBody(r.body, 0, newEnv(), func(e *env) error {
				return c.instantiateHead(r, e, dplus, NewFactSet())
			})
		}
		if err == nil {
			err = c.numberInventions(r, dplus)
		}
		if err != nil {
			break
		}
	}
	out := isaRun{dplus: dplus, firings: stats.Firings, invented: stats.Invented, steps: c.steps, emitted: c.emitted,
		counter: counter, events: ct.events}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// assertIsaEquivalent evaluates the generated rules both ways and
// requires the same Δ+, the same firing, step, emission and invention
// counts, the same trace events and the same error.
func assertIsaEquivalent(t *testing.T, p *Program, f *FactSet, reemit bool, g func() *guard.Guard) isaRun {
	t.Helper()
	var gs, gm *guard.Guard
	if g != nil {
		gs, gm = g(), g()
	}
	step := evalGenerated(p, f, reemit, true, gs)
	match := evalGenerated(p, f, reemit, false, gm)
	if !step.dplus.Equal(match.dplus) {
		t.Fatalf("Δ+ differs:\nstep:    %v\nmatcher: %v", dump(step.dplus), dump(match.dplus))
	}
	if !reflect.DeepEqual(step.firings, match.firings) {
		t.Fatalf("Stats.Firings: step %v, matcher %v", step.firings, match.firings)
	}
	if step.steps != match.steps || step.emitted != match.emitted {
		t.Fatalf("steps/emitted: step %d/%d, matcher %d/%d", step.steps, step.emitted, match.steps, match.emitted)
	}
	if step.invented != match.invented || step.counter != match.counter {
		t.Fatalf("invention: step %d (counter %d), matcher %d (counter %d)",
			step.invented, step.counter, match.invented, match.counter)
	}
	if !reflect.DeepEqual(step.events, match.events) {
		t.Fatalf("trace events differ:\nstep:    %+v\nmatcher: %+v", step.events, match.events)
	}
	if step.err != match.err {
		t.Fatalf("error: step %q, matcher %q", step.err, match.err)
	}
	return step
}

func dump(f *FactSet) string {
	var parts []string
	for _, p := range f.Preds() {
		for _, fact := range f.Facts(p) {
			parts = append(parts, fact.String())
		}
	}
	return strings.Join(parts, " ")
}

func TestIsaStepMatchesMatcher(t *testing.T) {
	chain := build(t, isaChainSchema, "")
	diamond := build(t, isaDiamondSchema, "")
	cases := []struct {
		name  string
		p     *Program
		facts func(p *Program) []Fact
		// want is the size of the inflationary Δ+ (a sanity check that
		// the state exercises what its name says).
		want int
		// indexed, when positive, is how many facts are added before
		// every class's v index is built: the rest join their buckets
		// after them, whatever their key order.
		indexed int
	}{
		{"chain/consistent", chain, func(p *Program) []Fact {
			return []Fact{
				isaObj(t, p, "c", 1, "v", "x", "w", "y", "u", "z"),
				isaObj(t, p, "b", 1, "v", "x", "w", "y"),
				isaObj(t, p, "a", 1, "v", "x"),
				isaObj(t, p, "a", 2, "v", "only-a"),
			}
		}, 0, 0},
		{"chain/missing-supers", chain, func(p *Program) []Fact {
			return []Fact{
				isaObj(t, p, "c", 3, "v", "p", "w", "q", "u", "r"),
				isaObj(t, p, "c", 1, "v", "x", "w", "y", "u", "z"),
				isaObj(t, p, "b", 1, "v", "x", "w", "y"),
				isaObj(t, p, "b", 2, "v", "s", "w", "t"),
			}
		}, 3, 0}, // b(3); a(1), a(2)
		{"chain/overwrite", chain, func(p *Program) []Fact {
			return []Fact{
				// c(1) changed its inherited v: b(1) is overwritten
				// through ⊕ (a(1) still agrees with the old b(1); it
				// follows one round later).
				isaObj(t, p, "c", 1, "v", "new", "w", "y", "u", "z"),
				isaObj(t, p, "b", 1, "v", "old", "w", "y"),
				isaObj(t, p, "a", 1, "v", "old"),
				// a super whose component the sub has is null.
				isaObj(t, p, "c", 2, "v", "x", "w", "y", "u", "z"),
				isaObj(t, p, "b", 2, "v", "x"),
				isaObj(t, p, "a", 2, "v", "x"),
			}
		}, 2, 0},
		{"chain/nil-oid", chain, func(p *Program) []Fact {
			return []Fact{
				// A sub object without identity: the matcher treats the
				// head as an invention, suppressed by an agreeing super.
				isaObj(t, p, "c", value.NilOID, "v", "x", "w", "y", "u", "z"),
				isaObj(t, p, "b", value.NilOID, "v", "k", "w", "l"),
				isaObj(t, p, "a", 5, "v", "k"),
			}
		}, 1, 0}, // b(6) invented; a: b(nil) agrees with a(5)
		{"chain/nil-oid-agreeing-twice", chain, func(p *Program) []Fact {
			return []Fact{
				// Both supers agree with the nil-oid sub; a(12) comes
				// first in key order ("&12" < "&5") and last in its bucket.
				isaObj(t, p, "b", value.NilOID, "v", "k", "w", "l"),
				isaObj(t, p, "a", 5, "v", "k"),
				isaObj(t, p, "a", 12, "v", "k"),
			}
		}, 0, 2},
		{"diamond/consistent", diamond, func(p *Program) []Fact {
			return []Fact{
				isaObj(t, p, "d", 1, "v", "x", "w", "y", "u", "z", "x", "q"),
				isaObj(t, p, "b", 1, "v", "x", "w", "y"),
				isaObj(t, p, "c", 1, "v", "x", "u", "z"),
				isaObj(t, p, "a", 1, "v", "x"),
			}
		}, 0, 0},
		{"diamond/missing-and-overwrite", diamond, func(p *Program) []Fact {
			return []Fact{
				isaObj(t, p, "d", 1, "v", "x", "w", "y", "u", "z", "x", "q"),
				isaObj(t, p, "d", 2, "v", "new", "w", "y", "u", "z", "x", "q"),
				isaObj(t, p, "b", 2, "v", "old", "w", "y"),
				isaObj(t, p, "c", 2, "v", "other", "u", "z"),
				isaObj(t, p, "a", 2, "v", "old"),
				// b and c disagree on the inherited v: both propagate
				// into a, and the later rule's fact wins inside Δ+.
				isaObj(t, p, "b", 3, "v", "from-b", "w", "y"),
				isaObj(t, p, "c", 3, "v", "from-c", "u", "z"),
			}
		}, 6, 0}, // a(2), a(3); b(1), b(2); c(1), c(2)
	}
	for _, tc := range cases {
		for _, reemit := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/reemit=%v", tc.name, reemit), func(t *testing.T) {
				f := NewFactSet()
				for i, fact := range tc.facts(tc.p) {
					if i == tc.indexed && i > 0 {
						for _, c := range []string{"a", "b", "c", "d"} {
							f.FactsByComponent(c, "v", value.Str("k"))
						}
					}
					f.Add(fact)
				}
				f.Freeze()
				got := assertIsaEquivalent(t, tc.p, f, reemit, nil)
				if !reemit && got.dplus.TotalSize() != tc.want {
					t.Fatalf("Δ+ = %d facts, want %d: %s", got.dplus.TotalSize(), tc.want, dump(got.dplus))
				}
				// The same Δ+ when every lookup walks its predicate.
				walkAll = true
				walked := evalGenerated(tc.p, f, reemit, true, nil)
				walkAll = false
				if !walked.dplus.Equal(got.dplus) {
					t.Fatalf("Δ+ through the lookup: %s\nwalking: %s", dump(got.dplus), dump(walked.dplus))
				}
			})
		}
	}
}

// A fact budget the base set already exceeds trips at the first in-round
// check; the step polls at the same candidate counts as the matcher, so
// both abort with the same error after the same firings and Δ+.
func TestIsaStepInRoundBudgetAbort(t *testing.T) {
	saved := inRoundCheckInterval
	inRoundCheckInterval = 3
	defer func() { inRoundCheckInterval = saved }()

	p := build(t, isaChainSchema, "")
	f := NewFactSet()
	for i := 1; i <= 10; i++ {
		v := fmt.Sprint(i)
		f.Add(isaObj(t, p, "c", value.OID(i), "v", v, "w", v, "u", v))
	}
	f.Freeze()
	arm := func() *guard.Guard { return guard.New(context.Background(), Budget{MaxFacts: 4}, 0) }
	for _, reemit := range []bool{false, true} {
		got := assertIsaEquivalent(t, p, f, reemit, arm)
		if !strings.Contains(got.err, string(AxisFacts)) || got.steps != inRoundCheckInterval {
			t.Fatalf("reemit=%v: err %q after %d steps, want a facts budget abort at step %d",
				reemit, got.err, got.steps, inRoundCheckInterval)
		}
	}
}

// The agreement check behind the isa step and every user class head with
// a tuple-variable or copy source allocates nothing.
func TestHeadAgreementAllocatesNothing(t *testing.T) {
	p := build(t, isaChainSchema, "")
	sub := isaObj(t, p, "c", 1, "v", "x", "w", "y", "u", "z")
	sup := isaObj(t, p, "b", 1, "v", "x", "w", "y")
	var r *crule // b(X) <- c(X)
	for _, cr := range p.rules {
		if cr.isa != nil && cr.isa.super == "b" {
			r = cr
		}
	}
	source := &objBinding{class: "c", oid: 1, tuple: sub.Tuple}
	comps := []fixedArg{{label: "w", v: value.Str("y")}}
	allocs := testing.AllocsPerRun(100, func() {
		if !agreesOn(r.isa.eff, sub.Tuple, sup.Tuple, nil) || !headSatisfiedBy(r.head, comps, source, sup.Tuple) {
			t.Fatal("the super object does not agree with its sub")
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per check, want 0", allocs)
	}
}
