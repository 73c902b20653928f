package engine

import (
	"errors"
	"math/rand"
	"testing"
)

// compiledOrderDerives is the reference for derivable: some rule of plan
// derives target from view by enumerating its whole body in compiled
// order, with nothing bound in advance.
func compiledOrderDerives(t *testing.T, c *evalCtx, plan *stratumPlan, target Fact, view *FactSet) bool {
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
// from it (an over-deletion), and a probe that excludes the removed facts
// (DRed's first-layer check) answers what one over the cut view does.
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
				strata := m.maintained()
				for i := range strata {
					plan := &strata[i]
					for _, pred := range plan.heads {
						present := m.view.Facts(pred)
						var absent []Fact
						for i := 0; i < 12; i++ {
							f := ivmPair(pred, r.Intn(n+2)-1, r.Intn(n+2)-1)
							if !m.view.Has(f) {
								absent = append(absent, f)
							}
						}
						// Over-delete a random half of the predicate.
						cut := m.view.Clone()
						removedSet := NewFactSet()
						var removed []Fact
						for _, f := range present {
							if r.Intn(2) == 0 {
								cut.Remove(f)
								removedSet.Add(f)
								removed = append(removed, f)
							}
						}
						for _, probe := range []struct {
							view, exclude, want *FactSet
							targets             []Fact
						}{
							{m.view, nil, m.view, present},
							{m.view, nil, m.view, absent},
							{cut, nil, cut, removed},
							{m.view, removedSet, cut, removed},
						} {
							for _, f := range probe.targets {
								c.exclude = probe.exclude
								got, err := m.derivable(c, plan, f, probe.view)
								c.exclude = nil
								if err != nil {
									t.Fatalf("seed %d: derivable(%s): %v", seed, f, err)
								}
								if want := compiledOrderDerives(t, c, plan, f, probe.want); got != want {
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

// Deleting a shortcut over-deletes nothing, whichever way the chain is
// numbered: each closure fact that lost a derivation through it — every
// tc(x, target) with x reaching its source — is checked once, and each
// still has one through the chain that reads no over-estimated fact.
// Deleting the tail node's out-edges over-deletes exactly its cone, every
// tc(tail, z): none of it has another derivation, so the check keeps
// nothing and phase 2 probes each over-deleted fact once.
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
			edges = append(edges, planted)
			base := NewFactSet()
			succ, pred := map[int][]int{}, map[int][]int{}
			for _, e := range edges {
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
			tail := 0
			if mirror {
				tail = 96
			}
			var tailEdges []Fact
			for _, e := range edges {
				if e[0] == tail {
					tailEdges = append(tailEdges, ivmEdge(e[0], e[1]))
				}
			}
			e0 := base.Clone()
			e0.Freeze()
			m0, err := NewMaintainer(prog, e0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				kind                     string
				removes                  []Fact
				probes, overdeleted, tcs int
			}{
				{"unshort", []Fact{ivmEdge(planted[0], planted[1])}, reach(planted[0], pred), 0, 0},
				{"tail", tailEdges, len(tailEdges) + reach(tail, succ) - 1, reach(tail, succ) - 1, reach(tail, succ) - 1},
			} {
				after := base.Clone()
				for _, f := range c.removes {
					after.Remove(f)
				}
				e1 := after.Clone()
				e1.Freeze()
				m := *m0
				m.probes, m.overdeleted = 0, 0
				vd, err := m.Update(nil, c.removes, e1, 0)
				if err != nil {
					t.Fatal(err)
				}
				if m.probes != c.probes || m.overdeleted != c.overdeleted {
					t.Fatalf("%s: %d probes and %d over-deleted facts, want %d and %d",
						c.kind, m.probes, m.overdeleted, c.probes, c.overdeleted)
				}
				var n int64
				scratch, err := scratchProg.Run(after, &n)
				if err != nil {
					t.Fatal(err)
				}
				if !m.Full().Equal(scratch) {
					t.Fatalf("%s: maintained closure diverged from scratch", c.kind)
				}
				if len(vd.Adds) != 0 || len(vd.Removes) != len(c.removes)+c.tcs {
					t.Fatalf("%s: view delta +%d −%d, want −%d", c.kind, len(vd.Adds), len(vd.Removes), len(c.removes)+c.tcs)
				}
				t.Logf("%s: %d probes, %d over-deleted facts", c.kind, m.probes, m.overdeleted)
			}
		})
	}
}
