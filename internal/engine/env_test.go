package engine

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"logres/internal/value"
)

// renderEnv renders e's bindings oldest first, an object binding as
// obj(oid), so a shadowing entry shows beside the one it shadows.
func renderEnv(e *env) string {
	var parts []string
	for _, nb := range e.b {
		if nb.obj != nil {
			parts = append(parts, nb.name+"=obj("+value.Ref(nb.obj.oid).String()+")")
		} else {
			parts = append(parts, nb.name+"="+nb.val.String())
		}
	}
	return strings.Join(parts, " ")
}

// TestMatcherUndoesBindings drives each site of the matcher that binds
// variables (a candidate fact, a candidate that fails part-way through
// its match, negation's active-domain enumeration, = with a pattern
// side, member, the built-ins that unify an output, and the object
// upgrade of a plain oid binding) from a prepared env. Each yield must
// see exactly the env's bindings extended by the match, and the env
// must be as it was when the call returns, whether the enumeration ran
// to its end or a yield stopped it.
func TestMatcherUndoesBindings(t *testing.T) {
	p := build(t, `
domains N = integer;
classes
  PERSON = (name: string);
associations
  D = (n: N);
  Q = (a: N, b: N);
  S = (s: {N});
  OWNS = (p: PERSON);
  CAND = (a: N, b: N);
  PART = (a: N);
  NEG = (n: N);
  EQ = (a: N, b: N);
  MEM = (n: N);
  UNI = (s: {N});
  CNT = (n: N);
  UPG = (p: PERSON);
`, `
cand(a: X, b: Y) <- d(n: X), q(a: X, b: Y).
part(a: X) <- q(a: X, b: X).
neg(n: X) <- not d(n: X).
eq(a: X, b: Y) <- d(n: X), Y = X + 1.
mem(n: X) <- s(s: S), member(X, S).
uni(s: U) <- s(s: S), union(S, {9}, U).
cnt(n: N) <- s(s: S), count(S, N).
upg(p: P) <- owns(p: P), person(P).
`)
	f := NewFactSet()
	tuple := func(fields ...value.Field) value.Tuple { return value.NewTuple(fields...) }
	n := func(label string, v int64) value.Field { return value.Field{Label: label, Value: value.Int(v)} }
	for _, fact := range []Fact{
		{Pred: "d", Tuple: tuple(n("n", 1))},
		{Pred: "d", Tuple: tuple(n("n", 2))},
		{Pred: "q", Tuple: tuple(n("a", 1), n("b", 2))},
		{Pred: "q", Tuple: tuple(n("a", 1), n("b", 3))},
		{Pred: "q", Tuple: tuple(n("a", 3), n("b", 3))},
		{Pred: "person", IsClass: true, OID: 1, Tuple: tuple(value.Field{Label: "name", Value: value.Str("ann")})},
		{Pred: "person", IsClass: true, OID: 2, Tuple: tuple(value.Field{Label: "name", Value: value.Str("bob")})},
	} {
		f.Add(fact)
	}
	set := value.NewSet(value.Int(1), value.Int(2))
	for _, tc := range []struct {
		name      string
		head, lit string // the rule, by its head, and the literal's predicate
		pre       []named
		want      []string // each yield's env
	}{
		{name: "candidate", head: "cand", lit: "q",
			pre:  []named{{"X", binding{val: value.Int(1)}}},
			want: []string{"X=1 Y=2", "X=1 Y=3"}},
		{name: "failed-partial-match", head: "part", lit: "q",
			want: []string{"X=3"}},
		{name: "negation-active-domain", head: "neg", lit: "d",
			want: []string{"X=3"}},
		{name: "equals-pattern", head: "eq", lit: "=",
			pre:  []named{{"X", binding{val: value.Int(1)}}},
			want: []string{"X=1 Y=2"}},
		{name: "member", head: "mem", lit: "member",
			pre:  []named{{"S", binding{val: set}}},
			want: []string{"S={1, 2} X=1", "S={1, 2} X=2"}},
		{name: "ternary-output", head: "uni", lit: "union",
			pre:  []named{{"S", binding{val: set}}},
			want: []string{"S={1, 2} U={1, 2, 9}"}},
		{name: "aggregate-output", head: "cnt", lit: "count",
			pre:  []named{{"S", binding{val: set}}},
			want: []string{"S={1, 2} N=2"}},
		{name: "object-upgrade", head: "upg", lit: "person",
			pre:  []named{{"P", binding{val: value.Ref(2)}}},
			want: []string{"P=" + value.Ref(2).String() + " P=obj(" + value.Ref(2).String() + ")"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := litOf(t, p, tc.head, tc.lit)
			for _, stop := range []bool{false, true} {
				c := &evalCtx{p: p, f: f, counter: new(int64)}
				e := &env{b: slices.Clone(tc.pre)}
				before := renderEnv(e)
				var got []string
				err := c.matchLit(l, e, func(e *env) error {
					got = append(got, renderEnv(e))
					if stop {
						return errStopEnum
					}
					return nil
				})
				want := tc.want
				if stop {
					want = want[:1]
				}
				if stop && !errors.Is(err, errStopEnum) || !stop && err != nil {
					t.Fatalf("stop=%v: %v", stop, err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("stop=%v: yields saw %q, want %q", stop, got, want)
				}
				if after := renderEnv(e); after != before || len(e.b) != len(tc.pre) {
					t.Errorf("stop=%v: env after the call %q, before it %q", stop, after, before)
				}
				for _, nb := range e.b[len(e.b):cap(e.b)] {
					if nb.name != "" || nb.val != nil || nb.obj != nil {
						t.Errorf("stop=%v: binding %s=%v left past the env's end", stop, nb.name, nb.coerce())
					}
				}
			}
		})
	}
}

// litOf returns the body literal of the rule with head pred head whose
// predicate is lit.
func litOf(t *testing.T, p *Program, head, lit string) resolvedLit {
	t.Helper()
	for _, r := range p.rules {
		if r.head == nil || r.head.pred != head {
			continue
		}
		for _, l := range r.body {
			if l.pred == lit {
				return l
			}
		}
	}
	t.Fatalf("no literal %s in a rule for %s", lit, head)
	return resolvedLit{}
}
