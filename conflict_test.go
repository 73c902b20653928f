package logres

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Two firings in one step can give one existing oid different o-values.
// Appendix B's ⊕ then needs a winner inside one Δ+, and the engine takes
// the firing with the greatest valuation key, so the winner depends on
// the valuations alone, never on the order a bucket or a scan yields
// them in. The case below has such conflicts on most seeds: each C
// object is updated, in one step, to every node reachable from node 1
// and to every node that reaches it.

const conflictSchema = `
classes
  C = (n: integer, v: integer);
associations
  NODE = (n: integer);
  LINK = (s: integer, d: integer);
  REACH = (s: integer, d: integer);
`

// conflictModules builds 12 nodes and 14 random links from seed, one C
// object per node (v = 0), then the persistent rules: the right-linear
// closure reach of link, and the two rules that give each C object a v
// in one step from every node reachable from 1 and every node reaching 1.
func conflictModules(seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	var data strings.Builder
	data.WriteString("mode ridv.\nrules\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&data, "  node(n: %d).\n", i)
	}
	for i := 0; i < 14; i++ {
		fmt.Fprintf(&data, "  link(s: %d, d: %d).\n", r.Intn(12), r.Intn(12))
	}
	data.WriteString("end.\n")
	return []string{data.String(), `
mode ridv.
rules
  c(self: X, n: N, v: 0) <- node(n: N).
end.
`, `
mode radi.
rules
  reach(s: X, d: Y) <- link(s: X, d: Y).
  reach(s: X, d: Z) <- link(s: X, d: Y), reach(s: Y, d: Z).
  c(self: X, n: N, v: V) <- c(self: X, n: N, v: 0), reach(s: 1, d: V).
  c(self: X, n: N, v: V) <- c(self: X, n: N, v: 0), reach(s: V, d: 1).
end.
`}
}

// conflictCase is the 4c case for the Save-bytes matrices: a seed whose
// graph gives the C objects in-step conflicts.
func conflictCase() vecMatrixCase {
	return vecMatrixCase{
		name:    "in-step-conflict",
		schema:  conflictSchema,
		modules: conflictModules(3),
		derived: "reach",
	}
}

func TestInStepConflictOneWinnerPerOID(t *testing.T) {
	legs := []struct {
		name string
		opts []Option
	}{
		{"defaults", nil},
		{"incremental", []Option{WithIncremental(true)}},
		{"row oracle, incremental", rowOracle(WithIncremental(true))},
	}
	for seed := int64(0); seed < 40; seed++ {
		c := vecMatrixCase{schema: conflictSchema, modules: conflictModules(seed)}
		_, want := vecMatrixRun(t, c, rowOracle())
		for _, leg := range legs {
			if _, got := vecMatrixRun(t, c, leg.opts); got != want {
				t.Fatalf("seed %d, %s: InstanceString diverges from the row oracle\n got %s\nwant %s", seed, leg.name, got, want)
			}
		}
	}
}
