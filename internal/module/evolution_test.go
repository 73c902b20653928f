package module

import (
	"math/rand"
	"testing"
	"testing/quick"

	"logres/internal/ast"
)

// Evolution property (§1: "the evolution of a LOGRES database is obtained
// through sequences of applications of update modules"): applying a random
// sequence of modules — some of which are rejected — must always leave a
// state whose instance is consistent; a rejected application must leave
// the previous state byte-for-byte usable.

const evoSchema = `
domains NAME = string;
classes PERSON = (name: NAME);
associations
  LIKES = (who: PERSON, what: NAME);
  TAG = (t: NAME);
`

// evoModules is a pool of modules: inserts, object creation, rule
// addition/deletion, deletions, and one module that is always rejected
// (violated denial).
func evoModules(t *testing.T) []*ast.Module {
	t.Helper()
	sources := []string{
		`
mode ridv.
rules
  tag(t: "a"). tag(t: "b").
end.
`, `
mode ridv.
rules
  person(self: P, name: N) <- tag(t: N).
end.
`, `
mode ridv.
rules
  likes(who: P, what: "logic") <- person(self: P).
end.
`, `
mode radi.
rules
  tag(t: N) <- person(name: N).
end.
`, `
mode rddi.
rules
  tag(t: N) <- person(name: N).
end.
`, `
mode ridv.
rules
  not likes(L) <- likes(L).
end.
`, `
mode radi.
rules
  <- tag(t: "a"), tag(t: "b").
end.
`, // rejected once both tags exist
	}
	out := make([]*ast.Module, len(sources))
	for i, src := range sources {
		out[i] = parseModule(t, src)
	}
	return out
}

func TestEvolutionProperty(t *testing.T) {
	mods := evoModules(t)
	f := func(seed int64, steps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		st := newState(t, evoSchema)
		n := int(steps%10) + 3
		for i := 0; i < n; i++ {
			m := mods[r.Intn(len(mods))]
			res, err := Apply(st, m, m.Mode, opts())
			if err != nil {
				// Rejected: the old state must still yield a consistent
				// instance.
				if _, _, err2 := st.Instance(opts()); err2 != nil {
					t.Logf("state corrupted after rejection: %v (rejection was: %v)", err2, err)
					return false
				}
				continue
			}
			st = res.State
			if _, _, err := st.Instance(opts()); err != nil {
				t.Logf("accepted state inconsistent: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEvolutionDeterministic(t *testing.T) {
	// The same module sequence applied twice yields equal states.
	mods := evoModules(t)
	apply := func() *State {
		st := newState(t, evoSchema)
		for _, i := range []int{0, 1, 2, 3, 5, 1} {
			res, err := Apply(st, mods[i], mods[i].Mode, opts())
			if err != nil {
				continue
			}
			st = res.State
		}
		return st
	}
	a, b := apply(), apply()
	if !a.E.Equal(b.E) {
		t.Fatalf("states diverge:\n%v\nvs\n%v", a.E.Preds(), b.E.Preds())
	}
	if a.Counter != b.Counter {
		t.Fatalf("counters diverge: %d vs %d", a.Counter, b.Counter)
	}
}

func TestEvolutionLongChain(t *testing.T) {
	// A long deterministic chain: create objects, derive, materialize,
	// delete, re-create — exercising counter stability.
	st := newState(t, evoSchema)
	mods := evoModules(t)
	sequence := []int{0, 1, 2, 5, 1, 2, 3, 4, 0}
	for step, i := range sequence {
		res, err := Apply(st, mods[i], mods[i].Mode, opts())
		if err != nil {
			t.Fatalf("step %d (module %d): %v", step, i, err)
		}
		st = res.State
	}
	if st.E.Size("person") == 0 {
		t.Fatal("evolution lost all objects")
	}
	// Counters only grow.
	if st.Counter <= 0 {
		t.Fatalf("counter = %d", st.Counter)
	}
}
