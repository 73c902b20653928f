package algres

import (
	"fmt"
	"sort"
	"strings"

	"logres/internal/value"
)

// Composable algebra expressions — the query-language face of the ALGRES
// substrate. An Expr evaluates against a DB to a relation; the liberal
// closure operator is the Fix expression. The optimizer in optimize.go
// rewrites expression trees (selection pushdown, projection fusion,
// cascade merging) before evaluation.

// Expr is an algebra expression.
type Expr interface {
	// Eval computes the expression over the database.
	Eval(db *DB) (*Relation, error)
	// Attrs reports the output attributes given a catalog of base
	// relation schemas.
	Attrs(catalog map[string][]string) ([]string, error)
	String() string
}

// Cond is a selection condition.
type Cond interface {
	Holds(t value.Tuple) bool
	// CondAttrs lists the attributes the condition reads.
	CondAttrs() []string
	String() string
}

// EqConst selects attr = value.
type EqConst struct {
	Attr string
	Val  value.Value
}

// EqAttr selects a = b.
type EqAttr struct{ A, B string }

// Cmp selects attr OP value for OP ∈ {<, <=, >, >=, !=}.
type Cmp struct {
	Op   string
	Attr string
	Val  value.Value
}

// And conjoins conditions.
type And struct{ L, R Cond }

// Or disjoins conditions.
type Or struct{ L, R Cond }

// Not negates a condition.
type Not struct{ C Cond }

func (c EqConst) Holds(t value.Tuple) bool {
	v, ok := t.Get(c.Attr)
	return ok && value.Equal(v, c.Val)
}
func (c EqConst) CondAttrs() []string { return []string{c.Attr} }
func (c EqConst) String() string      { return c.Attr + " = " + c.Val.String() }

func (c EqAttr) Holds(t value.Tuple) bool {
	a, okA := t.Get(c.A)
	b, okB := t.Get(c.B)
	return okA && okB && value.Equal(a, b)
}
func (c EqAttr) CondAttrs() []string { return []string{c.A, c.B} }
func (c EqAttr) String() string      { return c.A + " = " + c.B }

func (c Cmp) Holds(t value.Tuple) bool {
	v, ok := t.Get(c.Attr)
	if !ok {
		return false
	}
	cmp := value.Compare(v, c.Val)
	switch c.Op {
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	case "!=":
		return cmp != 0
	}
	return false
}
func (c Cmp) CondAttrs() []string { return []string{c.Attr} }
func (c Cmp) String() string      { return c.Attr + " " + c.Op + " " + c.Val.String() }

func (c And) Holds(t value.Tuple) bool { return c.L.Holds(t) && c.R.Holds(t) }
func (c And) CondAttrs() []string      { return append(c.L.CondAttrs(), c.R.CondAttrs()...) }
func (c And) String() string           { return "(" + c.L.String() + " and " + c.R.String() + ")" }

func (c Or) Holds(t value.Tuple) bool { return c.L.Holds(t) || c.R.Holds(t) }
func (c Or) CondAttrs() []string      { return append(c.L.CondAttrs(), c.R.CondAttrs()...) }
func (c Or) String() string           { return "(" + c.L.String() + " or " + c.R.String() + ")" }

func (c Not) Holds(t value.Tuple) bool { return !c.C.Holds(t) }
func (c Not) CondAttrs() []string      { return c.C.CondAttrs() }
func (c Not) String() string           { return "not " + c.C.String() }

// Scan reads a base relation.
type Scan struct{ Name string }

// SelectE filters by a condition.
type SelectE struct {
	Input Expr
	Cond  Cond
}

// ProjectE projects onto attributes.
type ProjectE struct {
	Input Expr
	Cols  []string
}

// RenameE renames attributes.
type RenameE struct {
	Input   Expr
	Mapping map[string]string
}

// JoinE is the natural join.
type JoinE struct{ L, R Expr }

// UnionE, DiffE, IntersectE are the set operations.
type UnionE struct{ L, R Expr }

// DiffE is set difference.
type DiffE struct{ L, R Expr }

// IntersectE is set intersection.
type IntersectE struct{ L, R Expr }

// NestE nests attributes into a set-valued attribute.
type NestE struct {
	Input  Expr
	Nested []string
	As     string
}

// UnnestE flattens a collection-valued attribute.
type UnnestE struct {
	Input Expr
	Attr  string
	As    string
}

// GroupE groups and aggregates.
type GroupE struct {
	Input Expr
	By    []string
	Agg   AggKind
	Over  string
	As    string
}

// FixE is the liberal closure operator: the named relation starts as
// Base's value and Step is iterated (it may Scan the name) with its
// results unioned in, until fixpoint.
type FixE struct {
	Name string
	Base Expr
	Step Expr
	// MaxSteps bounds iteration; 0 means the package default.
	MaxSteps int
}

func (e Scan) Eval(db *DB) (*Relation, error) {
	r, ok := db.Get(e.Name)
	if !ok {
		return nil, fmt.Errorf("algres: unknown relation %q", e.Name)
	}
	return r, nil
}

func (e SelectE) Eval(db *DB) (*Relation, error) {
	in, err := e.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	return Select(in, e.Cond.Holds), nil
}

func (e ProjectE) Eval(db *DB) (*Relation, error) {
	in, err := e.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	return Project(in, e.Cols...)
}

func (e RenameE) Eval(db *DB) (*Relation, error) {
	in, err := e.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	return Rename(in, e.Mapping), nil
}

func (e JoinE) Eval(db *DB) (*Relation, error) {
	l, err := e.L.Eval(db)
	if err != nil {
		return nil, err
	}
	r, err := e.R.Eval(db)
	if err != nil {
		return nil, err
	}
	return Join(l, r), nil
}

func (e UnionE) Eval(db *DB) (*Relation, error) { return evalBinary(db, e.L, e.R, Union) }
func (e DiffE) Eval(db *DB) (*Relation, error)  { return evalBinary(db, e.L, e.R, Diff) }
func (e IntersectE) Eval(db *DB) (*Relation, error) {
	return evalBinary(db, e.L, e.R, Intersect)
}

func evalBinary(db *DB, le, re Expr, op func(*Relation, *Relation) (*Relation, error)) (*Relation, error) {
	l, err := le.Eval(db)
	if err != nil {
		return nil, err
	}
	r, err := re.Eval(db)
	if err != nil {
		return nil, err
	}
	return op(l, r)
}

func (e NestE) Eval(db *DB) (*Relation, error) {
	in, err := e.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	return Nest(in, e.Nested, e.As)
}

func (e UnnestE) Eval(db *DB) (*Relation, error) {
	in, err := e.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	return Unnest(in, e.Attr, e.As)
}

func (e GroupE) Eval(db *DB) (*Relation, error) {
	in, err := e.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	return GroupAggregate(in, e.By, e.Agg, e.Over, e.As)
}

func (e FixE) Eval(db *DB) (*Relation, error) {
	base, err := e.Base.Eval(db)
	if err != nil {
		return nil, err
	}
	work := db.Clone()
	work.Set(e.Name, base.Clone())
	out, err := Fixpoint(work, func(cur *DB) (map[string]*Relation, error) {
		step, err := e.Step.Eval(cur)
		if err != nil {
			return nil, err
		}
		return map[string]*Relation{e.Name: step}, nil
	}, e.MaxSteps)
	if err != nil {
		return nil, err
	}
	r, _ := out.Get(e.Name)
	return r, nil
}

// Attrs implementations.

func (e Scan) Attrs(cat map[string][]string) ([]string, error) {
	attrs, ok := cat[e.Name]
	if !ok {
		return nil, fmt.Errorf("algres: unknown relation %q", e.Name)
	}
	return attrs, nil
}

func (e SelectE) Attrs(cat map[string][]string) ([]string, error) { return e.Input.Attrs(cat) }

func (e ProjectE) Attrs(map[string][]string) ([]string, error) { return e.Cols, nil }

func (e RenameE) Attrs(cat map[string][]string) ([]string, error) {
	in, err := e.Input.Attrs(cat)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(in))
	for i, a := range in {
		if n, ok := e.Mapping[a]; ok {
			out[i] = n
		} else {
			out[i] = a
		}
	}
	return out, nil
}

func (e JoinE) Attrs(cat map[string][]string) ([]string, error) {
	l, err := e.L.Attrs(cat)
	if err != nil {
		return nil, err
	}
	r, err := e.R.Attrs(cat)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	for _, a := range append(append([]string{}, l...), r...) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out, nil
}

func (e UnionE) Attrs(cat map[string][]string) ([]string, error)     { return e.L.Attrs(cat) }
func (e DiffE) Attrs(cat map[string][]string) ([]string, error)      { return e.L.Attrs(cat) }
func (e IntersectE) Attrs(cat map[string][]string) ([]string, error) { return e.L.Attrs(cat) }

func (e NestE) Attrs(cat map[string][]string) ([]string, error) {
	in, err := e.Input.Attrs(cat)
	if err != nil {
		return nil, err
	}
	nested := map[string]bool{}
	for _, a := range e.Nested {
		nested[a] = true
	}
	var out []string
	for _, a := range in {
		if !nested[a] {
			out = append(out, a)
		}
	}
	return append(out, e.As), nil
}

func (e UnnestE) Attrs(cat map[string][]string) ([]string, error) {
	in, err := e.Input.Attrs(cat)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, a := range in {
		if a != e.Attr {
			out = append(out, a)
		}
	}
	return append(out, e.As), nil
}

func (e GroupE) Attrs(map[string][]string) ([]string, error) {
	return append(append([]string{}, e.By...), e.As), nil
}

func (e FixE) Attrs(cat map[string][]string) ([]string, error) { return e.Base.Attrs(cat) }

// String renderings.

func (e Scan) String() string { return e.Name }
func (e SelectE) String() string {
	return "select[" + e.Cond.String() + "](" + e.Input.String() + ")"
}
func (e ProjectE) String() string {
	return "project[" + strings.Join(e.Cols, ",") + "](" + e.Input.String() + ")"
}
func (e RenameE) String() string {
	pairs := make([]string, 0, len(e.Mapping))
	for k, v := range e.Mapping {
		pairs = append(pairs, k+"->"+v)
	}
	sort.Strings(pairs)
	return "rename[" + strings.Join(pairs, ",") + "](" + e.Input.String() + ")"
}
func (e JoinE) String() string      { return "(" + e.L.String() + " join " + e.R.String() + ")" }
func (e UnionE) String() string     { return "(" + e.L.String() + " union " + e.R.String() + ")" }
func (e DiffE) String() string      { return "(" + e.L.String() + " minus " + e.R.String() + ")" }
func (e IntersectE) String() string { return "(" + e.L.String() + " intersect " + e.R.String() + ")" }
func (e NestE) String() string {
	return "nest[" + strings.Join(e.Nested, ",") + " as " + e.As + "](" + e.Input.String() + ")"
}
func (e UnnestE) String() string {
	return "unnest[" + e.Attr + " as " + e.As + "](" + e.Input.String() + ")"
}
func (e GroupE) String() string {
	return fmt.Sprintf("group[%s; agg%d(%s) as %s](%s)",
		strings.Join(e.By, ","), e.Agg, e.Over, e.As, e.Input.String())
}
func (e FixE) String() string {
	return "fix[" + e.Name + " := " + e.Base.String() + "; " + e.Step.String() + "]"
}
