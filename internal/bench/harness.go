package bench

import (
	"bytes"
	"fmt"

	"logres/internal/algres"
	"logres/internal/ast"
	"logres/internal/datalog"
	"logres/internal/engine"
	"logres/internal/module"
	"logres/internal/parser"
	"logres/internal/storage"
	"logres/internal/types"
	"logres/internal/value"
)

// Baseline runners: the flat Datalog engine and the ALGRES algebra
// compiler, on the same closure workloads as the LOGRES engine.

// DatalogTC builds the flat-Datalog closure workload.
type DatalogTC struct {
	Program *datalog.Program
	DB      *datalog.DB
	Semi    bool
}

// NewDatalogTC compiles the baseline closure program.
func NewDatalogTC(edges []Edge, semiNaive bool) (*DatalogTC, error) {
	rules := []datalog.Rule{
		{Head: datalog.Atom{Pred: "tc", Args: []datalog.Term{datalog.V("X"), datalog.V("Y")}},
			Body: []datalog.Atom{{Pred: "edge", Args: []datalog.Term{datalog.V("X"), datalog.V("Y")}}}},
		{Head: datalog.Atom{Pred: "tc", Args: []datalog.Term{datalog.V("X"), datalog.V("Z")}},
			Body: []datalog.Atom{
				{Pred: "tc", Args: []datalog.Term{datalog.V("X"), datalog.V("Y")}},
				{Pred: "edge", Args: []datalog.Term{datalog.V("Y"), datalog.V("Z")}},
			}},
	}
	p, err := datalog.NewProgram(rules)
	if err != nil {
		return nil, err
	}
	db := datalog.NewDB()
	for _, e := range edges {
		db.Add("edge", datalog.Tuple{fmt.Sprint(e.From), fmt.Sprint(e.To)})
	}
	return &DatalogTC{Program: p, DB: db, Semi: semiNaive}, nil
}

// Run evaluates once and returns |tc|.
func (d *DatalogTC) Run() int {
	var out *datalog.DB
	if d.Semi {
		out = d.Program.EvalSemiNaive(d.DB)
	} else {
		out = d.Program.EvalNaive(d.DB)
	}
	return out.Size("tc")
}

// AlgresTC builds the algebra-compiled closure workload.
type AlgresTC struct {
	Program *algres.RuleProgram
	DB      *algres.DB
	Semi    bool
}

// NewAlgresTC compiles the closure rules to algebra.
func NewAlgresTC(edges []Edge, semiNaive bool) (*AlgresTC, error) {
	rules, err := parser.ParseProgram(`
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
`)
	if err != nil {
		return nil, err
	}
	rp, err := algres.CompileRules(map[string][]string{
		"edge": {"src", "dst"},
		"tc":   {"src", "dst"},
	}, rules)
	if err != nil {
		return nil, err
	}
	db := algres.NewDB()
	rel := algres.NewRelation("src", "dst")
	for _, e := range edges {
		rel.InsertValues(value.Int(int64(e.From)), value.Int(int64(e.To)))
	}
	db.Set("edge", rel)
	return &AlgresTC{Program: rp, DB: db, Semi: semiNaive}, nil
}

// Run evaluates once and returns |tc|.
func (a *AlgresTC) Run() (int, error) {
	var out *algres.DB
	var err error
	if a.Semi {
		out, err = a.Program.EvalSemiNaive(a.DB.Clone(), 0)
	} else {
		out, err = a.Program.EvalNaive(a.DB.Clone(), 0)
	}
	if err != nil {
		return 0, err
	}
	tc, _ := out.Get("tc")
	return tc.Len(), nil
}

// ModeSetup is the E6 workload: the same n-fact update applied through
// each module mode.
type ModeSetup struct {
	Base *module.State
	Mod  *ast.Module
	Mode ast.Mode
}

// NewModeWorkload builds a state with n existing facts and a module
// inserting n more through a rule.
func NewModeWorkload(n int, mode ast.Mode) (*ModeSetup, error) {
	m, err := parser.ParseModule(`
associations
  OLD = (k: integer);
  NEW = (k: integer);
  COPYREL = (k: integer);
`)
	if err != nil {
		return nil, err
	}
	if err := m.Schema.Validate(); err != nil {
		return nil, err
	}
	st := module.NewState(m.Schema)
	for i := 0; i < n; i++ {
		st.E.Add(engine.Fact{Pred: "old", Tuple: value.NewTuple(
			value.Field{Label: "k", Value: value.Int(int64(i))},
		)})
	}
	rules, err := parser.ParseProgram(`copyrel(k: X) <- old(k: X).`)
	if err != nil {
		return nil, err
	}
	mod := &ast.Module{Schema: types.NewSchema(), Rules: rules}
	if mode.HasGoal() {
		goal, err := parser.ParseGoal(`?- copyrel(k: X).`)
		if err != nil {
			return nil, err
		}
		mod.Goal = goal
	}
	return &ModeSetup{Base: st, Mod: mod, Mode: mode}, nil
}

// Run applies the module once and returns the copy relation's size: the
// goal answer for data-invariant modes (RIDI leaves the state untouched),
// the resulting EDB size for data-variant modes.
func (s *ModeSetup) Run() (int, error) {
	res, err := module.Apply(s.Base, s.Mod, s.Mode, engine.DefaultOptions())
	if err != nil {
		return 0, err
	}
	if res.Answer != nil {
		return len(res.Answer.Rows), nil
	}
	return res.State.E.Size("copyrel"), nil
}

// SnapshotSetup is the E9 workload.
type SnapshotSetup struct {
	State *module.State
	Blob  []byte
}

// NewSnapshot builds a state with n objects and n association tuples and
// its encoded snapshot.
func NewSnapshot(n int) (*SnapshotSetup, error) {
	m, err := parser.ParseModule(`
classes ITEM = (k: integer, name: string);
associations LINKREL = (a: ITEM, b: ITEM);
`)
	if err != nil {
		return nil, err
	}
	st := module.NewState(m.Schema)
	for i := 1; i <= n; i++ {
		st.E.Add(engine.Fact{Pred: "item", IsClass: true, OID: value.OID(i),
			Tuple: value.NewTuple(
				value.Field{Label: "k", Value: value.Int(int64(i))},
				value.Field{Label: "name", Value: value.Str(fmt.Sprintf("item-%d", i))},
			)})
	}
	for i := 1; i < n; i++ {
		st.E.Add(engine.Fact{Pred: "linkrel", Tuple: value.NewTuple(
			value.Field{Label: "a", Value: value.Ref(value.OID(i))},
			value.Field{Label: "b", Value: value.Ref(value.OID(i + 1))},
		)})
	}
	st.Counter = int64(n)
	var buf bytes.Buffer
	if err := storage.SaveState(&buf, st); err != nil {
		return nil, err
	}
	return &SnapshotSetup{State: st, Blob: buf.Bytes()}, nil
}

// Encode writes one snapshot and returns its size.
func (s *SnapshotSetup) Encode() (int, error) {
	var buf bytes.Buffer
	if err := storage.SaveState(&buf, s.State); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

// Decode reads the snapshot back and returns the fact count.
func (s *SnapshotSetup) Decode() (int, error) {
	st, err := storage.LoadState(bytes.NewReader(s.Blob))
	if err != nil {
		return 0, err
	}
	return st.E.TotalSize(), nil
}

// AlgebraOps is the E10 microbench input: two joinable relations.
type AlgebraOps struct {
	L, R *algres.Relation
}

// NewAlgebraOps builds relations of n tuples.
func NewAlgebraOps(n int) *AlgebraOps {
	l := algres.NewRelation("a", "b")
	r := algres.NewRelation("b", "c")
	for i := 0; i < n; i++ {
		l.InsertValues(value.Int(int64(i)), value.Int(int64(i%97)))
		r.InsertValues(value.Int(int64(i%97)), value.Int(int64(i)))
	}
	return &AlgebraOps{L: l, R: r}
}

// Join runs the natural join and returns its cardinality.
func (a *AlgebraOps) Join() int { return algres.Join(a.L, a.R).Len() }

// NestUnnest nests then unnests and returns the restored cardinality.
func (a *AlgebraOps) NestUnnest() (int, error) {
	n, err := algres.Nest(a.L, []string{"a"}, "g")
	if err != nil {
		return 0, err
	}
	u, err := algres.Unnest(n, "g", "a")
	if err != nil {
		return 0, err
	}
	return u.Len(), nil
}
