package guard

import (
	"fmt"
	"sort"
	"strings"
)

// Footprint is the predicate-level access set of one module application:
// the predicates it reads and the predicates it writes. Concurrent
// commits validate against each other at this granularity — two
// applications conflict exactly when one's reads-or-writes intersect the
// other's writes (backward optimistic concurrency control).
//
// Beyond declared predicate names, a footprint can carry
// pseudo-predicates for the non-extensional parts of the database state:
// "$schema$" and "$rules$" (every application reads them; schema- or
// rule-changing applications write them) and "$oid$" (the oid counter:
// read and written by applications that invent object identities, so two
// inventive modules always serialize). Data-function extensions appear
// under their "$fn$"-prefixed store names.
//
// Universal marks an application that touches every predicate: on the
// read side (negation with active-domain enumeration scans the whole
// extension; non-inflationary evaluation re-derives from everything) and
// on the write side (whole-state replacement by rule- or schema-changing
// modes). A universal footprint conflicts with everything.
type Footprint struct {
	// Reads and Writes are sorted, deduplicated predicate names.
	Reads  []string
	Writes []string
	// Universal marks a footprint that touches every predicate.
	Universal bool
}

// Normalize sorts and deduplicates both sets in place.
func (f *Footprint) Normalize() {
	f.Reads = dedupSorted(f.Reads)
	f.Writes = dedupSorted(f.Writes)
}

func dedupSorted(s []string) []string {
	if len(s) == 0 {
		return s
	}
	sort.Strings(s)
	out := s[:1]
	for _, p := range s[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// Overlaps reports whether this footprint's reads-or-writes intersect
// the other footprint's writes, returning the first conflicting
// predicate ("*" for universal conflicts). This is the one-directional
// validation check: a committing application calls mine.Overlaps(theirs)
// against every footprint committed since its snapshot.
func (f Footprint) Overlaps(w Footprint) (string, bool) {
	if w.Universal {
		// The other application replaced (or may have touched) the whole
		// state; anything I read or wrote collides. Every real
		// application reads at least $schema$/$rules$, so this fires
		// unconditionally in practice.
		if f.Universal || len(f.Reads) > 0 || len(f.Writes) > 0 {
			return "*", true
		}
		return "", false
	}
	if f.Universal && len(w.Writes) > 0 {
		return "*", true
	}
	set := make(map[string]bool, len(w.Writes))
	for _, p := range w.Writes {
		set[p] = true
	}
	for _, p := range f.Reads {
		if set[p] {
			return p, true
		}
	}
	for _, p := range f.Writes {
		if set[p] {
			return p, true
		}
	}
	return "", false
}

// String renders the footprint compactly: "reads=[a b] writes=[c]"
// with a leading "*" for universal footprints.
func (f Footprint) String() string {
	var b strings.Builder
	if f.Universal {
		b.WriteString("* ")
	}
	b.WriteString("reads=[")
	b.WriteString(strings.Join(f.Reads, " "))
	b.WriteString("] writes=[")
	b.WriteString(strings.Join(f.Writes, " "))
	b.WriteString("]")
	return b.String()
}

// ConflictError reports that an optimistic concurrent module application
// with retries disabled lost its commit validation: its footprint
// collided with writes committed since its snapshot. (With a positive
// retry budget the last attempt holds the write lock and cannot lose.)
// It names both footprints — the aborted application's and the committed
// writes it collided with — so a conflict is attributable to specific
// predicates.
type ConflictError struct {
	// Pred is the first conflicting predicate (a declared predicate, a
	// pseudo-predicate such as "$oid$", or "*" for universal conflicts).
	Pred string
	// Retries is the number of retry attempts beyond the first
	// application. It is always 0: only an application with retries
	// disabled can end in a conflict.
	Retries int
	// Mine is the aborted application's footprint on its last attempt.
	Mine Footprint
	// Theirs is the committed write footprint the last attempt collided
	// with.
	Theirs Footprint
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("module application aborted after %d retries: conflict on %q (mine: %s; theirs: %s)",
		e.Retries, e.Pred, e.Mine, e.Theirs)
}
