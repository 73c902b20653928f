package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Stats records what an evaluation did — the paper's §5 asks for "tools
// supporting the design, debugging, and monitoring of LOGRES databases
// and programs"; this is the monitoring half. Collected on every Run.
type Stats struct {
	// Steps is the total number of one-step operator applications (or
	// semi-naive rounds) across all strata.
	Steps int
	// Strata is the number of evaluation strata used.
	Strata int
	// SemiNaiveStrata counts strata that ran under delta iteration.
	SemiNaiveStrata int
	// VectorizedStrata counts semi-naive strata that ran on the columnar
	// engine (a subset of SemiNaiveStrata).
	VectorizedStrata int
	// Firings maps rule ids to the number of head instantiations
	// (valuations that reached the head, including suppressed ones).
	Firings map[int]int
	// Invented is the number of oids invented.
	Invented int
	// DeltaCurve records, per fixpoint round, how many facts the round
	// contributed and the resulting total — the convergence curve of the
	// run, in evaluation order across strata.
	DeltaCurve []RoundDelta
	// Abort is "" when the run reached a fixpoint; otherwise the abort
	// class: an exhausted budget axis ("rounds", "facts", "oids",
	// "deadline"), "canceled", or "error".
	Abort string
	// AbortStratum/AbortRound locate the abort (stratum -1 when strata
	// do not apply). Meaningful only when Abort is non-empty.
	AbortStratum, AbortRound int
}

// recordAbort classifies the error a run returned.
func (st *Stats) recordAbort(err error) {
	var be *BudgetError
	var ce *CanceledError
	switch {
	case errors.As(err, &be):
		st.Abort = string(be.Axis)
		st.AbortStratum, st.AbortRound = be.Stratum, be.Round
	case errors.As(err, &ce):
		st.Abort = "canceled"
		st.AbortStratum, st.AbortRound = ce.Stratum, ce.Round
	default:
		st.Abort = "error"
	}
}

// RoundDelta is one point on a run's convergence curve: the fact-count
// change one fixpoint round produced.
type RoundDelta struct {
	// Stratum is the evaluation stratum the round ran in (-1 for
	// non-stratified operators that report no stratum).
	Stratum int
	// Round is the round index within its stratum (0 = the full pass).
	Round int
	// Delta is the number of facts the round contributed (for the general
	// operator: the signed change, deletions included).
	Delta int
	// Total is the fact count after the round.
	Total int
}

func newStats() *Stats { return &Stats{Firings: map[int]int{}} }

// LastStats returns the statistics of the most recent Run (nil before any
// run).
func (p *Program) LastStats() *Stats { return p.stats }

// Explain renders the compiled program structure and, when available, the
// last run's statistics.
func (p *Program) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program: %d rules", len(p.rules))
	if len(p.denials) > 0 {
		fmt.Fprintf(&b, ", %d denials", len(p.denials))
	}
	if p.stratified {
		fmt.Fprintf(&b, ", stratified into %d strata\n", len(p.strata))
	} else {
		b.WriteString(", NOT stratified (whole-program inflationary)\n")
	}
	strata, _ := p.plan()
	for i := range strata {
		sp := &strata[i]
		mode := sp.exec.String()
		if sp.row != nil {
			mode += ", row (" + sp.row.String() + ")"
		}
		fmt.Fprintf(&b, "stratum %d (%s):\n", i, mode)
		maint := "DRed"
		if sp.maintWhy != nil {
			maint = "none (" + sp.maintWhy.String() + ")"
		}
		fmt.Fprintf(&b, "  maintenance: %s\n", maint)
		if sp.once {
			b.WriteString("  fixpoint: reached by its first step (no rule deletes, enumerates the active domain or reads what the stratum defines)\n")
		}
		for _, r := range sp.rules {
			tag := ""
			if r.isa != nil {
				tag = "  [generated]"
			}
			if r.inventive {
				tag += "  [invents oids]"
			}
			fmt.Fprintf(&b, "  #%d %s%s\n", r.id, r, tag)
		}
	}
	for _, d := range p.denials {
		fmt.Fprintf(&b, "denial: %s\n", d)
	}
	if st := p.stats; st != nil {
		fmt.Fprintf(&b, "last run: %d steps, %d oids invented\n", st.Steps, st.Invented)
		if st.Abort != "" {
			fmt.Fprintf(&b, "  aborted (%s) at stratum %d, round %d\n", st.Abort, st.AbortStratum, st.AbortRound)
		}
		if len(st.DeltaCurve) > 0 {
			b.WriteString("  delta curve:")
			last := -2
			for _, rd := range st.DeltaCurve {
				if rd.Stratum != last {
					fmt.Fprintf(&b, " [s%d]", rd.Stratum)
					last = rd.Stratum
				}
				fmt.Fprintf(&b, " %+d", rd.Delta)
			}
			b.WriteString("\n")
		}
		// Rules of the stratum a budget abort stopped in get tagged so the
		// firing table attributes the exhausted axis to its rules.
		aborted := map[int]bool{}
		if st.Abort != "" && st.AbortStratum >= 0 && st.AbortStratum < len(p.strata) {
			for _, r := range p.strata[st.AbortStratum] {
				aborted[r.id] = true
			}
		}
		var ids []int
		for id := range st.Firings {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			tag := ""
			if aborted[id] {
				tag = fmt.Sprintf("  [stratum %d aborted: %s]", st.AbortStratum, st.Abort)
			}
			fmt.Fprintf(&b, "  rule #%d fired %d times%s\n", id, st.Firings[id], tag)
		}
	}
	return b.String()
}
