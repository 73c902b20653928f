// Package bench provides the workload generators and single-shot runners
// behind the benchmark harness (bench_test.go): the E1–E9 and E11
// experiments of EXPERIMENTS.md. Each runner performs one complete
// evaluation and returns checkable result counts, so the same code backs
// the testing.B benchmarks and the correctness tests.
package bench

import (
	"fmt"
	"math/rand"

	"logres/internal/engine"
	"logres/internal/parser"
	"logres/internal/types"
	"logres/internal/value"
)

// Edge is one directed edge of a synthetic graph.
type Edge struct{ From, To int }

// Chain returns the path graph 0 → 1 → … → n.
func Chain(n int) []Edge {
	out := make([]Edge, n)
	for i := 0; i < n; i++ {
		out[i] = Edge{i, i + 1}
	}
	return out
}

// Tree returns a complete tree with the given branching factor and depth
// (edges parent → child), nodes numbered in BFS order.
func Tree(branch, depth int) []Edge {
	var out []Edge
	next := 1
	frontier := []int{0}
	for d := 0; d < depth; d++ {
		var nf []int
		for _, p := range frontier {
			for b := 0; b < branch; b++ {
				out = append(out, Edge{p, next})
				nf = append(nf, next)
				next++
			}
		}
		frontier = nf
	}
	return out
}

// Random returns m random edges over n nodes (no self loops), with a
// deterministic seed.
func Random(n, m int, seed int64) []Edge {
	r := rand.New(rand.NewSource(seed))
	seen := map[[2]int]bool{}
	var out []Edge
	for len(out) < m {
		a, b := r.Intn(n), r.Intn(n)
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		out = append(out, Edge{a, b})
	}
	return out
}

// tcSchema is the shared schema of the closure experiments.
const tcSchema = `
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`

// tcRules is the right-linear transitive-closure program.
const tcRules = `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
`

// TCSetup holds a compiled LOGRES closure workload.
type TCSetup struct {
	Program *engine.Program
	EDB     *engine.FactSet
}

// NewLogresTC compiles the closure program and materializes the edge
// relation.
func NewLogresTC(edges []Edge, semiNaive bool) (*TCSetup, error) {
	m, err := parser.ParseModule(tcSchema)
	if err != nil {
		return nil, err
	}
	if err := m.Schema.Validate(); err != nil {
		return nil, err
	}
	rules, err := parser.ParseProgram(tcRules)
	if err != nil {
		return nil, err
	}
	opts := engine.DefaultOptions()
	opts.SemiNaive = semiNaive
	prog, err := engine.Compile(m.Schema, rules, opts)
	if err != nil {
		return nil, err
	}
	edb := engine.NewFactSet()
	for _, e := range edges {
		edb.Add(engine.Fact{Pred: "edge", Tuple: value.NewTuple(
			value.Field{Label: "src", Value: value.Int(int64(e.From))},
			value.Field{Label: "dst", Value: value.Int(int64(e.To))},
		)})
	}
	return &TCSetup{Program: prog, EDB: edb}, nil
}

// Run evaluates the closure once and returns the number of derived tc
// tuples.
func (s *TCSetup) Run() (int, error) {
	counter := int64(0)
	f, err := s.Program.Run(s.EDB, &counter)
	if err != nil {
		return 0, err
	}
	return f.Size("tc"), nil
}

// NewLogresTCSemantics builds the closure workload under either the
// inflationary or the non-inflationary semantics (E11).
func NewLogresTCSemantics(edges []Edge, nonInflationary bool) (*TCSetup, error) {
	m, err := parser.ParseModule(tcSchema)
	if err != nil {
		return nil, err
	}
	rules, err := parser.ParseProgram(tcRules)
	if err != nil {
		return nil, err
	}
	opts := engine.DefaultOptions()
	opts.NonInflationary = nonInflationary
	prog, err := engine.Compile(m.Schema, rules, opts)
	if err != nil {
		return nil, err
	}
	edb := engine.NewFactSet()
	for _, e := range edges {
		edb.Add(engine.Fact{Pred: "edge", Tuple: value.NewTuple(
			value.Field{Label: "src", Value: value.Int(int64(e.From))},
			value.Field{Label: "dst", Value: value.Int(int64(e.To))},
		)})
	}
	return &TCSetup{Program: prog, EDB: edb}, nil
}

// sgSchema/sgRules: the same-generation workload (E2, nonlinear
// recursion).
const sgSchema = `
associations
  PAR = (child: integer, parent: integer);
  PERSONREC = (p: integer);
  SG = (a: integer, b: integer);
`

const sgRules = `
sg(a: X, b: X) <- personrec(p: X).
sg(a: X, b: Y) <- par(child: X, parent: XP), sg(a: XP, b: YP), par(child: Y, parent: YP).
`

// NewLogresSG builds the same-generation workload over a tree.
func NewLogresSG(edges []Edge, semiNaive bool) (*TCSetup, error) {
	m, err := parser.ParseModule(sgSchema)
	if err != nil {
		return nil, err
	}
	rules, err := parser.ParseProgram(sgRules)
	if err != nil {
		return nil, err
	}
	opts := engine.DefaultOptions()
	opts.SemiNaive = semiNaive
	prog, err := engine.Compile(m.Schema, rules, opts)
	if err != nil {
		return nil, err
	}
	edb := engine.NewFactSet()
	nodes := map[int]bool{}
	for _, e := range edges {
		nodes[e.From] = true
		nodes[e.To] = true
		edb.Add(engine.Fact{Pred: "par", Tuple: value.NewTuple(
			value.Field{Label: "child", Value: value.Int(int64(e.To))},
			value.Field{Label: "parent", Value: value.Int(int64(e.From))},
		)})
	}
	for n := range nodes {
		edb.Add(engine.Fact{Pred: "personrec", Tuple: value.NewTuple(
			value.Field{Label: "p", Value: value.Int(int64(n))},
		)})
	}
	return &TCSetup{Program: prog, EDB: edb}, nil
}

// RunSG evaluates same-generation and returns |sg|.
func (s *TCSetup) RunSG() (int, error) {
	counter := int64(0)
	f, err := s.Program.Run(s.EDB, &counter)
	if err != nil {
		return 0, err
	}
	return f.Size("sg"), nil
}

// InventionSetup is the E3 workload: one object invented per seed fact.
type InventionSetup struct {
	Program *engine.Program
	EDB     *engine.FactSet
}

// NewInvention builds a workload inventing n objects (invent=true) or
// deriving n flat tuples (invent=false, the plain-derivation baseline).
func NewInvention(n int, invent bool) (*InventionSetup, error) {
	m, err := parser.ParseModule(`
classes ITEM = (k: integer);
associations
  SEED = (k: integer);
  FLAT = (k: integer);
`)
	if err != nil {
		return nil, err
	}
	src := `item(self: X, k: K) <- seed(k: K).`
	if !invent {
		src = `flat(k: K) <- seed(k: K).`
	}
	rules, err := parser.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	prog, err := engine.Compile(m.Schema, rules, engine.DefaultOptions())
	if err != nil {
		return nil, err
	}
	edb := engine.NewFactSet()
	for i := 0; i < n; i++ {
		edb.Add(engine.Fact{Pred: "seed", Tuple: value.NewTuple(
			value.Field{Label: "k", Value: value.Int(int64(i))},
		)})
	}
	return &InventionSetup{Program: prog, EDB: edb}, nil
}

// Run evaluates and returns the number of derived class/assoc facts.
func (s *InventionSetup) Run(pred string) (int, error) {
	counter := int64(0)
	f, err := s.Program.Run(s.EDB, &counter)
	if err != nil {
		return 0, err
	}
	return f.Size(pred), nil
}

// NewIsaChain builds the E4 workload: a k-level hierarchy (or a flat
// class when depth == 0) receiving n objects at the most specific level;
// the generated isa-propagation constraints fan each object out to every
// ancestor.
func NewIsaChain(depth, n int) (*InventionSetup, string, error) {
	src := "classes\n  C0 = (k: integer);\n"
	for d := 1; d <= depth; d++ {
		src += fmt.Sprintf("  C%d = (C%d, k%d: integer);\n", d, d-1, d)
		src += fmt.Sprintf("  C%d isa C%d;\n", d, d-1)
	}
	src += "associations SEED = (k: integer);\n"
	m, err := parser.ParseModule(src)
	if err != nil {
		return nil, "", err
	}
	if err := m.Schema.Validate(); err != nil {
		return nil, "", err
	}
	leaf := fmt.Sprintf("c%d", depth)
	ruleSrc := fmt.Sprintf("%s(self: X, k: K", leaf)
	for d := 1; d <= depth; d++ {
		ruleSrc += fmt.Sprintf(", k%d: K", d)
	}
	ruleSrc += ") <- seed(k: K).\n"
	rules, err := parser.ParseProgram(ruleSrc)
	if err != nil {
		return nil, "", err
	}
	prog, err := engine.Compile(m.Schema, rules, engine.DefaultOptions())
	if err != nil {
		return nil, "", err
	}
	edb := engine.NewFactSet()
	for i := 0; i < n; i++ {
		edb.Add(engine.Fact{Pred: "seed", Tuple: value.NewTuple(
			value.Field{Label: "k", Value: value.Int(int64(i))},
		)})
	}
	return &InventionSetup{Program: prog, EDB: edb}, leaf, nil
}

// PowersetSetup is the E5 workload (Example 3.3 at scale).
type PowersetSetup struct {
	Program *engine.Program
	EDB     *engine.FactSet
}

// NewPowerset builds the powerset program over a d-element relation.
func NewPowerset(d int) (*PowersetSetup, error) {
	m, err := parser.ParseModule(`
domains D = integer;
associations
  R = (d: D);
  POWER = (set: {D});
`)
	if err != nil {
		return nil, err
	}
	rules, err := parser.ParseProgram(`
power(set: X) <- X = {}.
power(set: X) <- r(d: Y), append({}, Y, X).
power(set: X) <- power(set: Y), power(set: Z), union(Y, Z, X).
`)
	if err != nil {
		return nil, err
	}
	prog, err := engine.Compile(m.Schema, rules, engine.DefaultOptions())
	if err != nil {
		return nil, err
	}
	edb := engine.NewFactSet()
	for i := 0; i < d; i++ {
		edb.Add(engine.Fact{Pred: "r", Tuple: value.NewTuple(
			value.Field{Label: "d", Value: value.Int(int64(i))},
		)})
	}
	return &PowersetSetup{Program: prog, EDB: edb}, nil
}

// Run evaluates and returns |power| (must be 2^d).
func (s *PowersetSetup) Run() (int, error) {
	counter := int64(0)
	f, err := s.Program.Run(s.EDB, &counter)
	if err != nil {
		return 0, err
	}
	return f.Size("power"), nil
}

// NewWinLose builds the E7 stratified-negation workload: win(X) ←
// move(X,Y), ¬win(Y) is unstratified; the two-relation version below is
// the stratified proxy (reach/unreach) used to compare stratified against
// whole-program inflationary evaluation.
func NewWinLose(edges []Edge, stratify bool) (*TCSetup, error) {
	m, err := parser.ParseModule(`
associations
  EDGE = (src: integer, dst: integer);
  NODE = (n: integer);
  REACH = (n: integer);
  UNREACH = (n: integer);
`)
	if err != nil {
		return nil, err
	}
	rules, err := parser.ParseProgram(`
reach(n: 0).
reach(n: Y) <- reach(n: X), edge(src: X, dst: Y).
unreach(n: X) <- node(n: X), not reach(n: X).
`)
	if err != nil {
		return nil, err
	}
	opts := engine.DefaultOptions()
	opts.Stratify = stratify
	prog, err := engine.Compile(m.Schema, rules, opts)
	if err != nil {
		return nil, err
	}
	edb := engine.NewFactSet()
	nodes := map[int]bool{}
	for _, e := range edges {
		nodes[e.From] = true
		nodes[e.To] = true
		edb.Add(engine.Fact{Pred: "edge", Tuple: value.NewTuple(
			value.Field{Label: "src", Value: value.Int(int64(e.From))},
			value.Field{Label: "dst", Value: value.Int(int64(e.To))},
		)})
	}
	for n := range nodes {
		edb.Add(engine.Fact{Pred: "node", Tuple: value.NewTuple(
			value.Field{Label: "n", Value: value.Int(int64(n))},
		)})
	}
	return &TCSetup{Program: prog, EDB: edb}, nil
}

// RunPred evaluates and returns the extension size of pred.
func (s *TCSetup) RunPred(pred string) (int, error) {
	counter := int64(0)
	f, err := s.Program.Run(s.EDB, &counter)
	if err != nil {
		return 0, err
	}
	return f.Size(types.Canon(pred)), nil
}

// NewDescendants builds the E8 data-function workload: descendants-per-
// person nested through a data function over a tree.
func NewDescendants(edges []Edge) (*TCSetup, error) {
	m, err := parser.ParseModule(`
associations
  PARENT = (par: integer, chil: integer);
  ANCESTOR = (anc: integer, des: {integer});
functions
  DESCN: integer -> {integer};
`)
	if err != nil {
		return nil, err
	}
	rules, err := parser.ParseProgram(`
member(X, descn(Y)) <- parent(par: Y, chil: X).
member(X, descn(Y)) <- parent(par: Y, chil: Z), member(X, T), T = descn(Z).
ancestor(anc: X, des: Y) <- parent(par: X), Y = descn(X).
`)
	if err != nil {
		return nil, err
	}
	prog, err := engine.Compile(m.Schema, rules, engine.DefaultOptions())
	if err != nil {
		return nil, err
	}
	edb := engine.NewFactSet()
	for _, e := range edges {
		edb.Add(engine.Fact{Pred: "parent", Tuple: value.NewTuple(
			value.Field{Label: "par", Value: value.Int(int64(e.From))},
			value.Field{Label: "chil", Value: value.Int(int64(e.To))},
		)})
	}
	return &TCSetup{Program: prog, EDB: edb}, nil
}
