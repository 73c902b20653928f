package engine

import (
	"errors"
	"math/rand"
	"testing"

	"logres/internal/value"
)

// compiledOrderDerives is the reference for derivable: some rule of plan
// derives target from view by enumerating its whole body in compiled
// order, with nothing bound in advance.
func compiledOrderDerives(t *testing.T, c *evalCtx, plan *maintPlan, target Fact, view *FactSet) bool {
	t.Helper()
	saved := c.f
	c.f = view
	defer func() { c.f = saved }()
	found := false
	for _, r := range plan.rules {
		if r.head.pred != target.Pred {
			continue
		}
		err := c.matchBody(r.body, 0, newEnv(), func(e *env) error {
			h, err := c.buildAssocFact(r.head, e)
			if err != nil {
				return err
			}
			if h.Key() == target.Key() {
				found = true
				return errStopEnum
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopEnum) {
			t.Fatal(err)
		}
		if found {
			return true
		}
	}
	return false
}

// The cheapest-first probe answers exactly what matching the body in
// compiled order answers, on every maintained stratum of every ivmPrograms
// rule set, for targets present in the view, absent from it, and removed
// from it (an over-deletion).
func TestDerivableProbeMatchesCompiledOrder(t *testing.T) {
	for _, tc := range ivmPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := tryBuild(ivmSchema, tc.rules, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			const n = 7
			probed, derivedSome := 0, 0
			for seed := int64(0); seed < 8; seed++ {
				r := rand.New(rand.NewSource(seed))
				base := randomEdgeFacts(n, 14, seed)
				for i := 0; i < n; i++ {
					if r.Intn(2) == 0 {
						base.Add(ivmNode(i))
					}
				}
				base.Freeze()
				m, err := NewMaintainer(prog, base, 0)
				if err != nil {
					t.Fatal(err)
				}
				c := &evalCtx{p: prog, f: m.view, counter: new(int64)}
				for i := range m.plans {
					plan := &m.plans[i]
					for _, pred := range plan.heads {
						present := m.view.Facts(pred)
						var absent []Fact
						for i := 0; i < 12; i++ {
							f := ivmEdge(r.Intn(n+2)-1, r.Intn(n+2)-1)
							if pred == "same" {
								f = Fact{Pred: "same", Tuple: value.NewTuple(
									value.Field{Label: "a", Value: f.Tuple.Field(0).Value},
									value.Field{Label: "b", Value: f.Tuple.Field(1).Value},
								)}
							} else {
								f.Pred = pred
							}
							if !m.view.Has(f) {
								absent = append(absent, f)
							}
						}
						// Over-delete a random half of the predicate.
						cut := m.view.Clone()
						var removed []Fact
						for _, f := range present {
							if r.Intn(2) == 0 {
								cut.Remove(f)
								removed = append(removed, f)
							}
						}
						for _, probe := range []struct {
							view    *FactSet
							targets []Fact
						}{{m.view, present}, {m.view, absent}, {cut, removed}} {
							for _, f := range probe.targets {
								got, err := m.derivable(c, plan, f, probe.view)
								if err != nil {
									t.Fatalf("seed %d: derivable(%s): %v", seed, f, err)
								}
								if want := compiledOrderDerives(t, c, plan, f, probe.view); got != want {
									t.Fatalf("seed %d: derivable(%s) = %v, compiled order says %v", seed, f, got, want)
								}
								probed++
								if got {
									derivedSome++
								}
							}
						}
					}
				}
			}
			if derivedSome == 0 || derivedSome == probed {
				t.Fatalf("%d of %d probes derived their target: the cases do not discriminate", derivedSome, probed)
			}
		})
	}
}

// monitorGraph is the gated monitor_ivm workload's base: a 96-node chain
// plus 48 forward shortcuts, and one more shortcut across the middle of
// the window to delete. mirror renumbers node i as 96−i, so every edge
// runs from a higher id to a lower one.
func monitorGraph(mirror bool) (edges [][2]int, planted [2]int) {
	const window = 96
	r := rand.New(rand.NewSource(1))
	num := func(i int) int {
		if mirror {
			return window - i
		}
		return i
	}
	short := map[[2]int]bool{}
	add := func(a, b int) {
		edges = append(edges, [2]int{num(a), num(b)})
	}
	for i := 0; i < window; i++ {
		add(i, i+1)
	}
	for len(short) < window/2 {
		a := r.Intn(window - 1)
		e := [2]int{a, a + 2 + r.Intn(window-a-1)}
		if !short[e] {
			short[e] = true
			add(e[0], e[1])
		}
	}
	planted = [2]int{window / 4, window - window/4}
	for short[planted] {
		planted[1]--
	}
	return edges, [2]int{num(planted[0]), num(planted[1])}
}

// Deleting a shortcut probes each over-deleted closure fact exactly once,
// whichever way the chain is numbered: the facts a probe cannot rederive
// in one step are restored by the insertion pass, not re-probed. The
// over-deletion is every tc(x, z) with x reaching the shortcut's source
// and z reached from its target.
func TestDRedProbesOncePerOverdeletedFact(t *testing.T) {
	const closure = `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
`
	prog, err := tryBuild(ivmSchema, closure, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	scratchProg, err := tryBuild(ivmSchema, closure, rowOracle())
	if err != nil {
		t.Fatal(err)
	}
	for _, mirror := range []bool{false, true} {
		name := map[bool]string{false: "ascending", true: "descending"}[mirror]
		t.Run(name, func(t *testing.T) {
			edges, planted := monitorGraph(mirror)
			base := NewFactSet()
			succ, pred := map[int][]int{}, map[int][]int{}
			for _, e := range append(edges, planted) {
				base.Add(ivmEdge(e[0], e[1]))
				succ[e[0]] = append(succ[e[0]], e[1])
				pred[e[1]] = append(pred[e[1]], e[0])
			}
			reach := func(from int, next map[int][]int) int {
				seen := map[int]bool{from: true}
				for stack := []int{from}; len(stack) > 0; {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, y := range next[x] {
						if !seen[y] {
							seen[y] = true
							stack = append(stack, y)
						}
					}
				}
				return len(seen)
			}
			overdeleted := reach(planted[0], pred) * reach(planted[1], succ)

			e0 := base.Clone()
			e0.Freeze()
			m, err := NewMaintainer(prog, e0, 0)
			if err != nil {
				t.Fatal(err)
			}
			m.probes = 0
			base.Remove(ivmEdge(planted[0], planted[1]))
			e1 := base.Clone()
			e1.Freeze()
			vd, err := m.Update(nil, []Fact{ivmEdge(planted[0], planted[1])}, e1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if m.probes != overdeleted {
				t.Fatalf("%d probes for %d over-deleted facts, want one each", m.probes, overdeleted)
			}
			var c int64
			scratch, err := scratchProg.Run(base, &c)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Full().Equal(scratch) {
				t.Fatal("maintained closure diverged from scratch")
			}
			if len(vd.Adds) != 0 || len(vd.Removes) != 1 {
				t.Fatalf("view delta +%d −%d, want only the deleted edge", len(vd.Adds), len(vd.Removes))
			}
			t.Logf("%d over-deleted facts, %d probes", overdeleted, m.probes)
		})
	}
}
