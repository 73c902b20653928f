package engine

import (
	"slices"
	"sort"
)

// RuleFootprint is the static predicate-level access analysis of one
// compiled program: which predicates an evaluation may read and which it
// may write. The module layer widens it with mode- and schema-level
// accesses (pseudo-predicates, referential-integrity reads) to build the
// guard.Footprint that optimistic concurrent application validates.
//
// The analysis is conservative in the only direction that is sound for
// concurrency control: it may over-approximate (report an access that
// never happens at runtime — a spurious conflict costs a retry) but
// never under-approximates (miss an access — that would admit a
// non-serializable interleaving).
type RuleFootprint struct {
	// Reads are the predicates any rule or denial body may match against:
	// class and association predicates, plus the "$fn$"-prefixed store
	// names of data functions read through function-application terms.
	Reads []string
	// Writes are the predicates any rule head may derive into, closed
	// under rule chaining: if a rule's body reads a written predicate,
	// its head is written too. The closure covers the generated
	// isa-propagation rules, so writing a subclass also writes its
	// transitive superclasses.
	Writes []string
	// Deletes is the subset of Writes produced by negated (deleting)
	// heads.
	Deletes []string
	// Added, for a program Extend built, is what Writes is for the rules
	// Extend compiled alone: their heads, closed under chaining through
	// them and the isa steps. Nil for any other program.
	Added []string
	// Inventive reports whether any rule invents oids (the evaluation
	// advances the oid counter).
	Inventive bool
	// Universal reports that the evaluation may read the entire
	// extension: some negated literal enumerates unbound variables over
	// the active domain, which is built by scanning every predicate.
	Universal bool
}

// headStore names the FactSet predicate a head derives into.
func headStore(h *headSpec) string {
	if h.kind == hFunc {
		return functionStore(h.pred)
	}
	return h.pred
}

// Footprint returns the program's static read/write footprint, computed
// once per compilation. Its slices are shared by every fork: callers
// read them and never write them. User rule bodies always count as
// reads; the bodies of generated isa-propagation rules do not — a
// generated rule only re-derives facts already present in a consistent
// extension unless its body predicate is itself written, and in that
// case the propagated facts derive from this evaluation's own writes,
// which the chaining closure already covers.
func (p *Program) Footprint() RuleFootprint {
	p.fpOnce.Do(func() { p.fp = p.footprint() })
	return p.fp
}

func (p *compiled) footprint() RuleFootprint {
	reads := map[string]bool{}
	writes := map[string]bool{}
	deletes := map[string]bool{}
	var fp RuleFootprint

	scanBody := func(r *crule) {
		r.eachRead(func(pred string, _ bool) { reads[pred] = true })
		for _, fn := range r.funcs {
			reads[functionStore(fn)] = true
		}
		fp.Universal = fp.Universal || r.universal
	}

	// Seeds: every user-written rule may fire; generated rules only
	// chain.
	for _, r := range p.rules {
		if r.isa != nil {
			continue
		}
		scanBody(r)
		writes[headStore(r.head)] = true
		if r.head.negated {
			deletes[headStore(r.head)] = true
		}
		if r.inventive {
			fp.Inventive = true
		}
	}
	for _, r := range p.denials {
		scanBody(r)
	}

	// Chaining closure over all rules, generated included.
	closeWrites(p.rules, writes, deletes)
	fp.Reads = sortedKeys(reads)
	fp.Writes = sortedKeys(writes)
	fp.Deletes = sortedKeys(deletes)

	if p.addedFrom < p.addedTo {
		// A rule of the base that reads an added write sees it: the
		// caller asks the base (DeltaBlocker), so the closure leaves its
		// rules out.
		added := map[string]bool{}
		var chain []*crule
		for _, r := range p.rules {
			if p.added(r) {
				added[headStore(r.head)] = true
			}
			if p.added(r) || r.isa != nil {
				chain = append(chain, r)
			}
		}
		closeWrites(chain, added, map[string]bool{})
		fp.Added = sortedKeys(added)
	}
	return fp
}

// closeWrites closes writes, and deletes beside it, under chaining over
// rules: a rule whose body — predicate literals or function-application
// reads — touches a written predicate may derive from this evaluation's
// own writes, so its head is written too.
func closeWrites(rules []*crule, writes, deletes map[string]bool) {
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			h := headStore(r.head)
			if writes[h] && (!r.head.negated || deletes[h]) {
				continue
			}
			fires := slices.ContainsFunc(r.funcs, func(fn string) bool { return writes[functionStore(fn)] })
			r.eachRead(func(pred string, _ bool) { fires = fires || writes[pred] })
			if fires {
				if !writes[h] {
					writes[h] = true
					changed = true
				}
				if r.head.negated && !deletes[h] {
					deletes[h] = true
					changed = true
				}
			}
		}
	}
}

// DeltaBlocker reports why the derived instance of an update that changes
// exactly the given extensional predicates may differ from R(E) by more
// than the extensional delta itself: the first rule (user-written or a
// generated isa rule) that invents oids ("inventive rule"), enumerates the
// active domain ("active domain"), or reads or heads a changed predicate
// ("rule reads or heads <pred>"). "" means R(E′) − R(E) = E′ − E and
// R(E) − R(E′) = E − E′: no rule sees the change, so every derivation is
// the same on both sides.
func (p *Program) DeltaBlocker(changed map[string]bool) string {
	for _, r := range p.rules {
		switch {
		case r.inventive:
			return "inventive rule"
		case r.universal:
			return "active domain"
		case changed[r.head.pred]:
			return "rule reads or heads " + r.head.pred
		}
		if pred := r.readsAny(func(pred string) bool { return changed[pred] }); pred != "" {
			return "rule reads or heads " + pred
		}
	}
	return ""
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FunctionStore exposes the hidden store name backing a data function
// ("$fn$" + name) so the module layer can name function extensions in
// footprints and deltas.
func FunctionStore(fn string) string { return functionStore(fn) }
