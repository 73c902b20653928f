// Package datalog is a compact, value-oriented flat Datalog engine kept as
// the LOGRES engine's independent test oracle: TestDifferentialDatalog
// in internal/engine evaluates random stratified programs on both and
// compares the relations. It has positional atoms over flat relations,
// stratified negation, and naive and semi-naive bottom-up evaluation, and
// none of LOGRES's object features (no oids, no constructors, no
// inheritance). It imports only the standard library and shares no code
// with the engine, which is what makes it a reference; nothing outside
// tests uses it.
package datalog

import (
	"fmt"
	"sort"
	"strings"
)

// Term is a variable (Var) or constant (Const).
type Term struct {
	Var   string // non-empty for variables
	Const string // constant symbol when Var == ""
}

// V makes a variable term.
func V(name string) Term { return Term{Var: name} }

// C makes a constant term.
func C(sym string) Term { return Term{Const: sym} }

// Atom is pred(t1, …, tn), positional.
type Atom struct {
	Pred    string
	Negated bool
	Args    []Term
}

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		if t.Var != "" {
			parts[i] = t.Var
		} else {
			parts[i] = t.Const
		}
	}
	s := a.Pred + "(" + strings.Join(parts, ",") + ")"
	if a.Negated {
		return "not " + s
	}
	return s
}

// Rule is Head ← Body.
type Rule struct {
	Head Atom
	Body []Atom
}

func (r Rule) String() string {
	parts := make([]string, len(r.Body))
	for i, a := range r.Body {
		parts[i] = a.String()
	}
	return r.Head.String() + " <- " + strings.Join(parts, ", ")
}

// Tuple is one ground fact's argument vector.
type Tuple []string

func (t Tuple) key() string { return strings.Join(t, "\x00") }

// DB maps predicate names to their extensions.
type DB struct {
	rels map[string]map[string]Tuple
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{rels: map[string]map[string]Tuple{}} }

// Add inserts a fact; it reports growth.
func (db *DB) Add(pred string, t Tuple) bool {
	m := db.rels[pred]
	if m == nil {
		m = map[string]Tuple{}
		db.rels[pred] = m
	}
	k := t.key()
	if _, ok := m[k]; ok {
		return false
	}
	m[k] = t
	return true
}

// Has reports membership.
func (db *DB) Has(pred string, t Tuple) bool {
	_, ok := db.rels[pred][t.key()]
	return ok
}

// Size reports |pred|.
func (db *DB) Size(pred string) int { return len(db.rels[pred]) }

// Tuples returns pred's extension in deterministic order.
func (db *DB) Tuples(pred string) []Tuple {
	m := db.rels[pred]
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Tuple, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// Clone copies the database.
func (db *DB) Clone() *DB {
	n := NewDB()
	for p, m := range db.rels {
		cp := make(map[string]Tuple, len(m))
		for k, t := range m {
			cp[k] = t
		}
		n.rels[p] = cp
	}
	return n
}

// Program is a checked rule set with strata.
type Program struct {
	rules  []Rule
	strata [][]Rule
}

// NewProgram validates the rules (safety: head and negated variables bound
// by positive body atoms) and computes a stratification; it errors on
// negative cycles.
func NewProgram(rules []Rule) (*Program, error) {
	for _, r := range rules {
		if r.Head.Negated {
			return nil, fmt.Errorf("datalog: negated head in %s", r)
		}
		bound := map[string]bool{}
		for _, a := range r.Body {
			if a.Negated {
				continue
			}
			for _, t := range a.Args {
				if t.Var != "" {
					bound[t.Var] = true
				}
			}
		}
		for _, t := range r.Head.Args {
			if t.Var != "" && !bound[t.Var] {
				return nil, fmt.Errorf("datalog: unsafe rule %s: head variable %s", r, t.Var)
			}
		}
		for _, a := range r.Body {
			if !a.Negated {
				continue
			}
			for _, t := range a.Args {
				if t.Var != "" && !bound[t.Var] {
					return nil, fmt.Errorf("datalog: unsafe rule %s: negated variable %s", r, t.Var)
				}
			}
		}
	}
	strata, err := stratify(rules)
	if err != nil {
		return nil, err
	}
	return &Program{rules: rules, strata: strata}, nil
}

// stratify orders rules into strata; negation must not occur in a cycle.
func stratify(rules []Rule) ([][]Rule, error) {
	level := map[string]int{}
	preds := map[string]bool{}
	for _, r := range rules {
		preds[r.Head.Pred] = true
		for _, a := range r.Body {
			preds[a.Pred] = true
		}
	}
	n := len(preds)
	// Bellman-Ford style level assignment.
	for i := 0; i <= n*n+1; i++ {
		changed := false
		for _, r := range rules {
			h := level[r.Head.Pred]
			for _, a := range r.Body {
				want := level[a.Pred]
				if a.Negated {
					want++
				}
				if want > h {
					h = want
				}
			}
			if h > level[r.Head.Pred] {
				level[r.Head.Pred] = h
				changed = true
			}
		}
		if !changed {
			break
		}
		if i == n*n+1 {
			return nil, fmt.Errorf("datalog: program is not stratified")
		}
	}
	maxLevel := 0
	for _, l := range level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	out := make([][]Rule, maxLevel+1)
	for _, r := range rules {
		l := level[r.Head.Pred]
		out[l] = append(out[l], r)
	}
	var strata [][]Rule
	for _, s := range out {
		if len(s) > 0 {
			strata = append(strata, s)
		}
	}
	return strata, nil
}

type bindings map[string]string

// matchAtom enumerates extensions of env matching a positive atom.
func matchAtom(db *DB, a Atom, env bindings, yield func(bindings)) {
	for _, t := range db.Tuples(a.Pred) {
		if len(t) != len(a.Args) {
			continue
		}
		e2 := env
		copied := false
		ok := true
		for i, arg := range a.Args {
			want := arg.Const
			if arg.Var != "" {
				if b, bound := e2[arg.Var]; bound {
					want = b
				} else {
					if !copied {
						e2 = cloneB(e2)
						copied = true
					}
					e2[arg.Var] = t[i]
					continue
				}
			}
			if want != t[i] {
				ok = false
				break
			}
		}
		if ok {
			if !copied {
				e2 = cloneB(e2)
			}
			yield(e2)
		}
	}
}

func cloneB(b bindings) bindings {
	n := make(bindings, len(b)+2)
	for k, v := range b {
		n[k] = v
	}
	return n
}

func ground(a Atom, env bindings) Tuple {
	t := make(Tuple, len(a.Args))
	for i, arg := range a.Args {
		if arg.Var != "" {
			t[i] = env[arg.Var]
		} else {
			t[i] = arg.Const
		}
	}
	return t
}

// evalRule enumerates the rule's derivations; when deltaPos ≥ 0, that body
// atom ranges over delta instead of db.
func evalRule(db *DB, r Rule, deltaPos int, delta *DB, yield func(Tuple)) {
	// Order: positives first (delta-substituted), then negatives as checks.
	var positives, negatives []Atom
	posIdx := -1
	for i, a := range r.Body {
		if a.Negated {
			negatives = append(negatives, a)
			continue
		}
		if i == deltaPos {
			posIdx = len(positives)
		}
		positives = append(positives, a)
	}
	var rec func(i int, env bindings)
	rec = func(i int, env bindings) {
		if i >= len(positives) {
			for _, neg := range negatives {
				if db.Has(neg.Pred, ground(neg, env)) {
					return
				}
			}
			yield(ground(r.Head, env))
			return
		}
		src := db
		if i == posIdx {
			src = delta
		}
		matchAtom(src, positives[i], env, func(e2 bindings) { rec(i+1, e2) })
	}
	rec(0, bindings{})
}

// EvalNaive computes the stratified least model by naive iteration.
func (p *Program) EvalNaive(db *DB) *DB {
	cur := db.Clone()
	for _, stratum := range p.strata {
		for {
			changed := false
			for _, r := range stratum {
				evalRule(cur, r, -1, nil, func(t Tuple) {
					if cur.Add(r.Head.Pred, t) {
						changed = true
					}
				})
			}
			if !changed {
				break
			}
		}
	}
	return cur
}

// EvalSemiNaive computes the same model with delta iteration.
func (p *Program) EvalSemiNaive(db *DB) *DB {
	cur := db.Clone()
	for _, stratum := range p.strata {
		delta := NewDB()
		for _, r := range stratum {
			evalRule(cur, r, -1, nil, func(t Tuple) {
				if !cur.Has(r.Head.Pred, t) {
					delta.Add(r.Head.Pred, t)
				}
			})
		}
		for {
			empty := true
			for p2 := range delta.rels {
				if delta.Size(p2) > 0 {
					empty = false
					break
				}
			}
			if empty {
				break
			}
			for p2 := range delta.rels {
				for _, t := range delta.Tuples(p2) {
					cur.Add(p2, t)
				}
			}
			next := NewDB()
			for _, r := range stratum {
				for i, a := range r.Body {
					if a.Negated || delta.Size(a.Pred) == 0 {
						continue
					}
					evalRule(cur, r, i, delta, func(t Tuple) {
						if !cur.Has(r.Head.Pred, t) {
							next.Add(r.Head.Pred, t)
						}
					})
				}
			}
			delta = next
		}
	}
	return cur
}
