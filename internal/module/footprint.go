package module

import (
	"strings"

	"logres/internal/ast"
	"logres/internal/engine"
	"logres/internal/guard"
	"logres/internal/types"
)

// Pseudo-predicates name the non-extensional parts of the database state
// in footprints, so schema evolution, rule changes, and oid invention
// participate in conflict detection like ordinary predicates.
const (
	// PredSchema is the type-equation store S. Every application reads
	// it (compilation resolves predicates against it); schema-changing
	// applications write it.
	PredSchema = "$schema$"
	// PredRules is the persistent rule store R.
	PredRules = "$rules$"
	// PredOID is the oid-invention counter. Applications that advance it
	// (or re-bind pre-existing oids into class heads) read and write it,
	// so identity-touching modules always serialize against each other.
	PredOID = "$oid$"
)

// StaticFootprint computes the conservative predicate-level access set
// of applying module m to state st with the given mode — before running
// it. The runtime delta can only narrow it (ApplySnapshot widens the
// write set with $oid$ when identity is actually touched).
//
// The analysis layers mode semantics over the engine's per-program
// RuleFootprint:
//
//   - every application reads $schema$ and $rules$ (compilation and the
//     instance check depend on both);
//   - rule- and schema-changing modes write $rules$/$schema$;
//   - inventive programs read and write $oid$;
//   - writers read the classes their written predicates reference
//     (referential integrity couples a writer to its targets);
//   - deleters read every predicate that can reference the deleted
//     classes (shrinking an extension can invalidate references held
//     elsewhere);
//   - a non-empty persistent rule set couples every writer into its
//     footprint (a concurrent write can feed a persistent rule whose
//     derived facts neither applier saw alone);
//   - non-inflationary semantics and active-domain enumeration read the
//     whole extension (Universal).
func StaticFootprint(st *State, m *ast.Module, mode ast.Mode, opts engine.Options) (*guard.Footprint, error) {
	// Mirror Apply's schema evolution so the analysis resolves against
	// the schema the module actually runs under.
	s1, err := evolveSchema(st.S, m, mode)
	if err != nil {
		return nil, err
	}
	if err := s1.Validate(); err != nil {
		return nil, err
	}
	var updateFP *engine.RuleFootprint
	if mode.DataVariant() {
		progM, err := updateProgram(st, s1, m.Rules, opts)
		if err != nil {
			return nil, err
		}
		rf := progM.Footprint()
		updateFP = &rf
	}
	return footprint(st, m, mode, opts, s1, nil, updateFP)
}

// footprint layers the mode semantics of StaticFootprint over the
// footprints of the application's programs, compiled under the schema s1
// the module runs under: the persistent program prog (compiled here when
// nil) and, for data-variant modes, the update program's rfM.
func footprint(st *State, m *ast.Module, mode ast.Mode, opts engine.Options, s1 *types.Schema, prog *engine.Program, rfM *engine.RuleFootprint) (*guard.Footprint, error) {
	reads := map[string]bool{PredSchema: true, PredRules: true}
	writes := map[string]bool{}
	fp := &guard.Footprint{}

	if !declaresNothing(m.Schema) && mode != ast.RIDI {
		writes[PredSchema] = true
	}
	switch mode {
	case ast.RADI, ast.RDDI:
		writes[PredRules] = true
	case ast.RADV:
		if len(m.Rules) > 0 {
			writes[PredRules] = true
		}
	case ast.RDDV:
		// Subtracting rules that are not in R is a no-op on the rule
		// store; only an effective removal writes $rules$.
		if subtractionChangesRules(st.R, m.Rules) {
			writes[PredRules] = true
		}
	}

	addAll := func(set map[string]bool, preds []string) {
		for _, p := range preds {
			set[p] = true
		}
	}

	// Persistent program per mode (the rule set the final instance check
	// runs). Its whole footprint counts as reads: a concurrent write into
	// any predicate a persistent rule touches can change the derived
	// instance this application validated against.
	persistent := st.R
	switch mode {
	case ast.RADI, ast.RADV, ast.RIDI:
		persistent = append(append([]*ast.Rule{}, st.R...), m.Rules...)
	case ast.RDDI, ast.RDDV:
		persistent = subtractRules(append([]*ast.Rule{}, st.R...), m.Rules)
	}
	if len(persistent) > 0 {
		if prog == nil {
			var err error
			if prog, err = engine.Compile(s1, persistent, opts); err != nil {
				return nil, err
			}
		}
		rfR := prog.Footprint()
		addAll(reads, rfR.Reads)
		addAll(reads, rfR.Writes)
		if rfR.Universal {
			fp.Universal = true
		}
	}

	if rfM != nil {
		// Data-variant modes (the others leave E untouched: the combined
		// program's reads and the $rules$/$schema$ writes cover them).
		addAll(reads, rfM.Reads)
		addAll(writes, rfM.Writes)
		if rfM.Universal {
			fp.Universal = true
		}
		if rfM.Inventive {
			reads[PredOID] = true
			writes[PredOID] = true
		}
		// Writers read their reference targets; deleters read their
		// potential referrers.
		deletes := rfM.Deletes
		if mode == ast.RDDV {
			// The whole module-derived set EM is subtracted from E.
			deletes = rfM.Writes
		}
		for _, w := range rfM.Writes {
			addAll(reads, referencedClasses(s1, w))
		}
		for _, d := range deletes {
			if s1.IsClass(d) {
				addAll(reads, predsReferencing(s1, d))
			}
		}
	}

	if m.NonInflationary || opts.NonInflationary {
		fp.Universal = true
	}

	for p := range reads {
		fp.Reads = append(fp.Reads, p)
	}
	for p := range writes {
		fp.Writes = append(fp.Writes, p)
	}
	fp.Normalize()
	return fp, nil
}

// storeDecl resolves a footprint predicate name — a declared predicate
// or a "$fn$"-prefixed function store — to its schema declaration.
func storeDecl(s *types.Schema, pred string) (*types.Decl, bool) {
	if fn, ok := strings.CutPrefix(pred, engine.FunctionStore("")); ok {
		return lookupDecl(s, fn)
	}
	return lookupDecl(s, pred)
}

func lookupDecl(s *types.Schema, name string) (*types.Decl, bool) {
	d, ok := s.Lookup(name)
	return d, ok
}

// referencedClasses returns the classes the predicate's stored values can
// reference: Named class types reachable through its type structure
// (tuples, collections, and domain expansions; class names are reference
// boundaries and are not entered).
func referencedClasses(s *types.Schema, pred string) []string {
	d, ok := storeDecl(s, pred)
	if !ok {
		return nil
	}
	refs := map[string]bool{}
	visited := map[string]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch x := t.(type) {
		case types.Named:
			dd, ok := s.Lookup(x.Name)
			if !ok {
				return
			}
			switch dd.Kind {
			case types.DeclClass:
				refs[x.Name] = true
			case types.DeclDomain:
				if !visited[x.Name] {
					visited[x.Name] = true
					walk(dd.RHS)
				}
			}
		case types.Tuple:
			for _, f := range x.Fields {
				walk(f.Type)
			}
		case types.Set:
			walk(x.Elem)
		case types.Multiset:
			walk(x.Elem)
		case types.Sequence:
			walk(x.Elem)
		}
	}
	switch d.Kind {
	case types.DeclFunction:
		if d.Arg != nil {
			walk(d.Arg)
		}
		walk(d.Result)
	default:
		walk(d.RHS)
	}
	out := make([]string, 0, len(refs))
	for c := range refs {
		out = append(out, c)
	}
	return out
}

// predsReferencing returns every predicate (class, association, or
// function store) whose values can reference class c — the read set a
// deleter of c must carry.
func predsReferencing(s *types.Schema, c string) []string {
	var out []string
	for _, name := range s.Names() {
		d, _ := s.Lookup(name)
		if d == nil || d.Kind == types.DeclDomain {
			continue
		}
		store := name
		if d.Kind == types.DeclFunction {
			store = engine.FunctionStore(name)
		}
		for _, r := range referencedClasses(s, store) {
			if r == c {
				out = append(out, store)
				break
			}
		}
	}
	return out
}
