package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"logres/internal/datalog"
	"logres/internal/parser"
	"logres/internal/value"
)

// Differential testing against an independent oracle: random flat
// Datalog programs with stratified negation, evaluated by the engine
// (columnar defaults and the row executor) and by the flat Datalog
// reference in internal/datalog, which shares no code with the engine,
// must produce identical relations.

// genProgram returns a random program over binary relations r0..r2 and
// two IDB predicates p0, p1 with 2–5 rules. p0 rules never mention p1,
// so every program is stratifiable.
func genProgram(r *rand.Rand) string {
	edbs := []string{"r0", "r1", "r2"}
	idbs := []string{"p0", "p1"}
	nRules := 2 + r.Intn(4)
	src := ""
	for i := 0; i < nRules; i++ {
		head := idbs[r.Intn(len(idbs))]
		// IDBs a body may read: p0 rules only p0, p1 rules both.
		reads := idbs[:1]
		if head == "p1" {
			reads = idbs
		}
		// 1–3 body literals over EDBs and (for recursion) IDBs.
		nLits := 1 + r.Intn(3)
		vars := []string{"X", "Y", "Z"}
		headA := vars[r.Intn(2)]
		headB := vars[r.Intn(2)+1]
		body := ""
		bound := map[string]bool{headA: true, headB: true}
		for j := 0; j < nLits; j++ {
			var pred string
			if j == 0 || r.Intn(3) > 0 {
				pred = edbs[r.Intn(len(edbs))]
			} else {
				pred = reads[r.Intn(len(reads))]
			}
			a := vars[r.Intn(3)]
			b := vars[r.Intn(3)]
			bound[a], bound[b] = true, true
			body += fmt.Sprintf("%s(a: %s, b: %s), ", pred, a, b)
		}
		// Ensure head variables are bound: append one literal binding both.
		body += fmt.Sprintf("%s(a: %s, b: %s)", edbs[r.Intn(len(edbs))], headA, headB)
		// One optional negated literal over bound variables: an EDB, or
		// p0 inside a p1 rule.
		if r.Intn(2) == 0 {
			var bv []string
			for _, v := range vars {
				if bound[v] {
					bv = append(bv, v)
				}
			}
			negs := edbs
			if head == "p1" {
				negs = []string{"r0", "r1", "r2", "p0"}
			}
			body += fmt.Sprintf(", not %s(a: %s, b: %s)",
				negs[r.Intn(len(negs))], bv[r.Intn(len(bv))], bv[r.Intn(len(bv))])
		}
		src += fmt.Sprintf("%s(a: %s, b: %s) <- %s.\n", head, headA, headB, body)
	}
	return src
}

func genFacts(r *rand.Rand, n int) [][3]int {
	var out [][3]int // relation index, a, b
	for i := 0; i < n; i++ {
		out = append(out, [3]int{r.Intn(3), r.Intn(4), r.Intn(4)})
	}
	return out
}

func TestDifferentialDatalog(t *testing.T) {
	moduleSrc := `
associations
  R0 = (a: integer, b: integer);
  R1 = (a: integer, b: integer);
  R2 = (a: integer, b: integer);
  P0 = (a: integer, b: integer);
  P1 = (a: integer, b: integer);
`
	m, err := parser.ParseModule(moduleSrc)
	if err != nil {
		t.Fatal(err)
	}
	executors := []struct {
		name string
		opts Options
	}{{"defaults", DefaultOptions()}, {"row", rowOracle()}}

	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := genProgram(r)
		facts := genFacts(r, 6+r.Intn(10))
		rules, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}

		// The oracle: flat Datalog.
		var dlRules []datalog.Rule
		for _, ru := range rules {
			dr := datalog.Rule{Head: datalog.Atom{
				Pred: ru.Head.Pred,
				Args: []datalog.Term{datalog.V(ru.Head.Args[0].Term.String()), datalog.V(ru.Head.Args[1].Term.String())},
			}}
			for _, l := range ru.Body {
				dr.Body = append(dr.Body, datalog.Atom{
					Pred:    l.Pred,
					Negated: l.Negated,
					Args:    []datalog.Term{datalog.V(l.Args[0].Term.String()), datalog.V(l.Args[1].Term.String())},
				})
			}
			dlRules = append(dlRules, dr)
		}
		dp, err := datalog.NewProgram(dlRules)
		if err != nil {
			t.Fatalf("datalog compile: %v\n%s", err, src)
		}
		ddb := datalog.NewDB()
		for _, f := range facts {
			ddb.Add(fmt.Sprintf("r%d", f[0]), datalog.Tuple{fmt.Sprint(f[1]), fmt.Sprint(f[2])})
		}
		dOut := dp.EvalSemiNaive(ddb)

		edb := NewFactSet()
		for _, f := range facts {
			edb.Add(Fact{Pred: fmt.Sprintf("r%d", f[0]), Tuple: value.NewTuple(
				value.Field{Label: "a", Value: value.Int(int64(f[1]))},
				value.Field{Label: "b", Value: value.Int(int64(f[2]))},
			)})
		}
		for _, ex := range executors {
			eng, err := Compile(m.Schema, rules, ex.opts)
			if err != nil {
				t.Fatalf("%s: engine compile: %v\n%s", ex.name, err, src)
			}
			counter := int64(0)
			engOut, err := eng.Run(edb, &counter)
			if err != nil {
				t.Fatalf("%s: engine run: %v\n%s", ex.name, err, src)
			}
			for _, pred := range []string{"p0", "p1"} {
				engSet := map[string]bool{}
				for _, fact := range engOut.Facts(pred) {
					a, _ := fact.Tuple.Get("a")
					b, _ := fact.Tuple.Get("b")
					engSet[a.String()+","+b.String()] = true
				}
				dSet := map[string]bool{}
				for _, tup := range dOut.Tuples(pred) {
					dSet[tup[0]+","+tup[1]] = true
				}
				if len(engSet) != len(dSet) {
					t.Fatalf("%s: size mismatch on %s: engine=%d datalog=%d\nprogram:\n%s",
						ex.name, pred, len(engSet), len(dSet), src)
				}
				for k := range engSet {
					if !dSet[k] {
						t.Fatalf("%s: tuple %s of %s missing in the oracle\nprogram:\n%s", ex.name, k, pred, src)
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
