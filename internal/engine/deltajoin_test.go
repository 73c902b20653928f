package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"logres/internal/guard"
	"logres/internal/obs"
	"logres/internal/value"
)

// The semi-naive row loop and the incremental maintainer share one delta
// join, deltaPass, which instantiates heads straight into the round's
// Δ+.
// This file keeps the earlier join as the reference: matchBodyDelta,
// which walks the body in order with one literal over the delta, and the
// loop that instantiated each valuation into its own fact set. The
// differential test runs both, round by round and end to end.

// refMatchBodyDelta is matchBody with the literal at deltaPos restricted
// to the delta fact set.
func (c *evalCtx) refMatchBodyDelta(body []resolvedLit, i, deltaPos int, delta *FactSet, e *env, yield func(*env) error) error {
	if i >= len(body) {
		return yield(e)
	}
	next := func(e2 *env) error {
		return c.refMatchBodyDelta(body, i+1, deltaPos, delta, e2, yield)
	}
	l := body[i]
	if i == deltaPos && (l.kind == pkClass || l.kind == pkAssoc) && !l.negated {
		return c.matchPositive(l, delta, e, next)
	}
	return c.matchLit(l, e, next)
}

// refRoundCheck observes one reference round: cur after the merge of
// delta, the round's Δ+ next, and the round's firings per rule.
type refRoundCheck func(round int, stratum []*crule, cur, delta, next *FactSet, firings map[int]int) error

// refSemiNaive is the reference delta iteration over one stratum.
func refSemiNaive(p *Program, stratum []*crule, cur *FactSet, counter *int64, check refRoundCheck) (*FactSet, error) {
	p.traceRoundBegin(0)
	start := p.traceNow()
	delta := NewFactSet()
	c := &evalCtx{p: p, f: cur, counter: counter, stats: p.stats, g: p.armedGuard()}
	dminus := NewFactSet()
	for _, r := range stratum {
		err := c.matchBody(r.body, 0, newEnv(), func(e *env) error {
			return c.instantiateHead(r, e, delta, dminus)
		})
		if err != nil {
			return nil, fmt.Errorf("%w (in rule %s)", err, r)
		}
	}
	p.traceRoundEnd(0, delta.TotalSize(), cur.TotalSize(), start)
	for round := 0; delta.TotalSize() > 0; round++ {
		if err := p.checkRound(round, cur.TotalSize, "semi-naive delta iteration"); err != nil {
			return nil, err
		}
		if p.stats != nil {
			p.stats.Steps++
		}
		p.traceRoundBegin(round + 1)
		start := p.traceNow()
		cur.Merge(delta)
		next := NewFactSet()
		c := &evalCtx{p: p, f: cur, counter: counter, stats: p.stats,
			g: p.armedGuard(), round: round + 1}
		before := map[int]int{}
		for id, n := range p.stats.Firings {
			before[id] = n
		}
		for _, r := range stratum {
			for pos, l := range r.body {
				if l.kind != pkClass && l.kind != pkAssoc {
					continue
				}
				if l.negated {
					continue
				}
				if delta.Size(l.pred) == 0 {
					continue
				}
				err := c.refMatchBodyDelta(r.body, 0, pos, delta, newEnv(), func(e *env) error {
					dplus := NewFactSet()
					if err := c.instantiateHead(r, e, dplus, NewFactSet()); err != nil {
						return err
					}
					for _, pred := range dplus.Preds() {
						for _, fact := range dplus.Facts(pred) {
							if !cur.Has(fact) {
								next.Add(fact)
							}
						}
					}
					return nil
				})
				if err != nil {
					return nil, fmt.Errorf("%w (in rule %s)", err, r)
				}
			}
		}
		if check != nil {
			firings := map[int]int{}
			for id, n := range p.stats.Firings {
				if n > before[id] {
					firings[id] = n - before[id]
				}
			}
			if err := check(round+1, stratum, cur, delta, next, firings); err != nil {
				return nil, err
			}
		}
		p.traceRoundEnd(round+1, next.TotalSize(), cur.TotalSize(), start)
		delta = next
	}
	return cur, nil
}

// refRun is RunFrom(ctx, 0, …) with every row semi-naive stratum on
// refSemiNaive.
func refRun(p *Program, f0 *FactSet, counter *int64, check refRoundCheck) (*FactSet, error) {
	p.stats = newStats()
	p.stats.Strata = len(p.strata)
	p.lastFirings = nil
	p.guard = guard.New(context.Background(), p.opts.Budget, f0.TotalSize())
	p.traceEvalBegin(f0)
	start := p.traceNow()
	if m := int64(f0.MaxOID()); m > *counter {
		*counter = m
	}
	f := f0.Clone()
	strata, _ := p.plan()
	for i := range strata {
		sp := &strata[i]
		p.guard.SetStratum(i)
		p.traceStratumBegin(i, sp.rules, sp.exec.String(), sp.row)
		var err error
		if sp.exec == execSemiNaive {
			p.stats.SemiNaiveStrata++
			f, err = refSemiNaive(p, sp.rules, f, counter, check)
		} else {
			f, err = p.fixpoint(sp.rules, f, nil, counter, sp.once)
		}
		if err != nil {
			return nil, err
		}
		p.traceStratumEnd(i, f)
	}
	p.traceEvalEnd(f, start)
	return f, nil
}

// renderBuckets lists every predicate's facts and, for every label and
// value occurring in them, its component bucket, in the set's order.
func renderBuckets(f *FactSet) string {
	var b strings.Builder
	for _, pred := range f.Preds() {
		facts := f.Facts(pred)
		fmt.Fprintln(&b, pred, facts)
		seen := map[string]bool{}
		for _, fact := range facts {
			for _, fld := range fact.Tuple.Fields() {
				k := fld.Label + "=" + fld.Value.String()
				if seen[k] {
					continue
				}
				seen[k] = true
				fmt.Fprintln(&b, " ", k, f.FactsByComponent(pred, fld.Label, fld.Value))
			}
		}
	}
	return b.String()
}

const deltaJoinSchema = `
domains D = integer;
associations
  EDGE = (src: integer, dst: integer);
  BLOCK = (a: integer);
  GROUP = (g: integer, members: {D});
  TC = (src: integer, dst: integer);
  LNK = (a: integer, b: integer);
  DIST = (a: integer, d: integer);
  REACH = (n: integer);
functions
  SUCC: integer -> {integer};
  NEXT: integer -> {integer};
`

// deltaJoinPrograms are recursive strata on the row semi-naive loop, one
// per construct whose evaluation order the delta-first join changes.
var deltaJoinPrograms = map[string]string{
	"negation": `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z), not block(a: Z).
`,
	"compare": `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), tc(src: Y, dst: Z), X != Z, Y < 12.
`,
	"arithmetic": `
dist(a: 0, d: 0).
dist(a: X, d: E) <- dist(a: Y, d: D), edge(src: Y, dst: X), E = D + 1, E < 8.
lnk(a: X, b: Y) <- edge(src: X, dst: Y).
lnk(a: X, b: Y) <- lnk(a: X, b: Z), lnk(a: Z + 1, b: Y).
`,
	"builtin": `
reach(n: 0).
reach(n: Y) <- reach(n: X), group(g: X, members: S), member(Y, S).
reach(n: Y) <- reach(n: X), group(g: X, members: S), count(S, N), Y = X + N, Y < 30.
`,
	"lower-function": `
member(Y, succ(X)) <- edge(src: X, dst: Y).
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), member(Z, succ(Y)).
`,
	"function-head": `
member(Y, next(X)) <- edge(src: X, dst: Y), X < 10.
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- edge(src: X, dst: Y), tc(src: Y, dst: Z).
`,
}

// deltaJoinEDB is a chain with random extra edges over n nodes, a block
// every fifth node and a group of up to three members per node.
func deltaJoinEDB(n int, seed int64) *FactSet {
	r := rand.New(rand.NewSource(seed))
	fs := randomEdgeFacts(n, n, seed)
	for i := 0; i < n; i++ {
		fs.Add(edgeFact(i, i+1))
		if i%5 == 3 {
			fs.Add(Fact{Pred: "block", Tuple: value.NewTuple(value.Field{Label: "a", Value: value.Int(int64(i))})})
		}
		members := value.NewSet(value.Int(int64(i+1)), value.Int(int64(r.Intn(n))), value.Int(int64(i+2)))
		fs.Add(Fact{Pred: "group", Tuple: value.NewTuple(
			value.Field{Label: "g", Value: value.Int(int64(i))},
			value.Field{Label: "members", Value: members},
		)})
	}
	return fs
}

// TestDeltaJoinDifferential runs every program twice over each EDB: on
// the reference join and on deltaPass. Per round it compares Δ+ and the
// per-rule firings; end to end, the result, Firings, Steps, DeltaCurve
// and the canonical trace. Bucket order is not compared: deltaPass
// enumerates the delta literal first, so buckets grow in another order,
// and these programs derive plain sets, no oids.
func TestDeltaJoinDifferential(t *testing.T) {
	edbs := map[string]*FactSet{
		"chain":  deltaJoinEDB(16, 1),
		"random": deltaJoinEDB(24, 7),
		"empty":  NewFactSet(),
	}
	for pname, rules := range deltaJoinPrograms {
		for ename, edb := range edbs {
			name := pname + "/" + ename
			var refTrace, newTrace bytes.Buffer
			refOpts, newOpts := rowOracle(), rowOracle()
			refOpts.Tracer = obs.NewCanonicalJSONL(&refTrace)
			newOpts.Tracer = obs.NewCanonicalJSONL(&newTrace)
			ref, err := tryBuild(deltaJoinSchema, rules, refOpts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p, err := tryBuild(deltaJoinSchema, rules, newOpts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			recursive := false
			strata, _ := p.plan()
			for _, sp := range strata {
				for _, r := range sp.rules {
					for _, l := range r.body {
						recursive = recursive || sp.exec == execSemiNaive && slices.Contains(sp.heads, l.pred)
					}
				}
			}
			if !recursive {
				t.Fatalf("%s: no recursive stratum on the row semi-naive loop", name)
			}

			rounds := 0
			check := func(round int, stratum []*crule, cur, delta, next *FactSet, firings map[int]int) error {
				rounds++
				st := newStats()
				shadow := cur.Clone()
				c := &evalCtx{p: p, f: shadow, counter: new(int64), stats: st}
				got := NewFactSet()
				if err := c.deltaPass(stratum, delta, shadow, func(r *crule, e *env) error {
					return c.instantiateHead(r, e, got, nil)
				}); err != nil {
					return err
				}
				if !got.Equal(next) {
					return fmt.Errorf("round %d: Δ+ = %v, reference %v", round, renderBuckets(got), renderBuckets(next))
				}
				if !reflect.DeepEqual(st.Firings, firings) {
					return fmt.Errorf("round %d: firings = %v, reference %v", round, st.Firings, firings)
				}
				return nil
			}
			c0, c1 := int64(0), int64(0)
			want, err := refRun(ref, edb.Clone(), &c0, nil)
			if err != nil {
				t.Fatalf("%s reference: %v", name, err)
			}
			got, err := p.Run(edb.Clone(), &c1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: result differs:\n%s\nreference:\n%s", name, renderBuckets(got), renderBuckets(want))
			}
			st, refSt := p.LastStats(), ref.LastStats()
			if !reflect.DeepEqual(st.Firings, refSt.Firings) {
				t.Fatalf("%s: Firings = %v, reference %v", name, st.Firings, refSt.Firings)
			}
			if st.Steps != refSt.Steps {
				t.Fatalf("%s: Steps = %d, reference %d", name, st.Steps, refSt.Steps)
			}
			if !reflect.DeepEqual(st.DeltaCurve, refSt.DeltaCurve) {
				t.Fatalf("%s: DeltaCurve = %v, reference %v", name, st.DeltaCurve, refSt.DeltaCurve)
			}
			if newTrace.String() != refTrace.String() {
				t.Fatalf("%s: canonical trace differs:\n%s\nreference:\n%s", name, newTrace.String(), refTrace.String())
			}

			// Per round, on a fresh reference run.
			ref.SetTracer(nil)
			c0 = 0
			if _, err := refRun(ref, edb.Clone(), &c0, check); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ename != "empty" && rounds == 0 {
				t.Fatalf("%s: no delta round ran", name)
			}
		}
	}
}
