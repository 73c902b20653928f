// Package obs is the zero-dependency observability layer of the LOGRES
// engine: typed evaluation trace events (Tracer), a lock-cheap metrics
// registry with expvar and Prometheus-text exposition (Metrics), and
// sink implementations — a JSONL event log, a human-readable trace
// writer, and a ring-buffer flight recorder that dumps the last N
// events on abort.
//
// The paper's §5 calls for "tools supporting the design, debugging, and
// monitoring of LOGRES databases and programs"; engine.Stats is the
// after-the-fact summary, this package is the streaming half. Every
// emission site in the engine is behind a nil-tracer check, so an
// untraced evaluation pays nothing beyond one predictable branch per
// round.
//
// Determinism contract: events whose Kind is deterministic (stratum,
// round, rule-firing, oid-invention, budget-axis, abort events) carry
// only evaluation-determined payloads — for a fixed program and input,
// their ordered stream is identical on every run. Wall-clock fields
// (Time, Duration) are excluded from that contract; the canonical JSONL
// sink strips them (and skips the nondeterministic kinds entirely) so
// two traces can be compared byte for byte.
package obs

import "time"

// Kind names one trace event type.
type Kind string

// The event taxonomy. See DESIGN.md §8 for the full field contract of
// each kind.
const (
	// KindEvalBegin opens one engine evaluation (Program.Run):
	// Count = strata, Total = extensional facts.
	KindEvalBegin Kind = "eval.begin"
	// KindEvalEnd closes a successful evaluation: Count = rounds run,
	// Total = final fact count, Duration = wall-clock.
	KindEvalEnd Kind = "eval.end"
	// KindStratumBegin opens one stratum: Stratum, Count = rules,
	// Detail = evaluation mode.
	KindStratumBegin Kind = "stratum.begin"
	// KindStratumEnd closes one stratum: Stratum, Total = fact count.
	KindStratumEnd Kind = "stratum.end"
	// KindRoundBegin opens one fixpoint round: Stratum, Round.
	KindRoundBegin Kind = "round.begin"
	// KindRoundEnd closes one round: Count = the round's delta size
	// (signed under the general operator: deletions shrink the set),
	// Total = facts after the round, Duration = the round's wall-clock.
	KindRoundEnd Kind = "round.end"
	// KindRuleFire reports one rule's valuations in one round: Rule,
	// Count = head instantiations (suppressed firings included).
	KindRuleFire Kind = "rule.fire"
	// KindOIDInvent reports one invented oid: Rule, Pred = class,
	// OID = the invented identifier.
	KindOIDInvent Kind = "oid.invent"
	// KindBudget reports consumption against one armed budget axis at a
	// round boundary: Axis, Count = used, Limit = the effective bound.
	KindBudget Kind = "budget"
	// KindGuardCheck reports an in-round guard trip: the coarse
	// tuple-count check inside rule matching detected cancellation or an
	// exhausted budget mid-round. Rule, Round, Detail = cause.
	// Nondeterministic: where a wall-clock trip lands depends on timing.
	KindGuardCheck Kind = "guard.check"
	// KindAbort reports an aborted evaluation: Axis (budget aborts),
	// Stratum, Round, Detail = the abort error.
	KindAbort Kind = "abort"
	// KindModuleBegin / KindModuleEnd bracket one module application:
	// Detail = the application mode. On a successful KindModuleEnd,
	// Reason = the consistency audit the application ran ("delta" or
	// "full: <why>"; empty when it ran none).
	KindModuleBegin Kind = "module.begin"
	KindModuleEnd   Kind = "module.end"
	// KindModuleCommit reports one successful optimistic concurrent
	// commit: Pred = module name, Count = delta facts installed,
	// Round = the retry attempt that committed (0 = first try),
	// Detail = commit path ("fast", "merge", "replace", "read-only").
	// Nondeterministic: depends on commit interleaving.
	KindModuleCommit Kind = "module.commit"
	// KindModuleConflict reports one failed commit validation: Pred =
	// the conflicting predicate, Round = the attempt, Detail = both
	// footprints. Nondeterministic.
	KindModuleConflict Kind = "module.conflict"
	// KindModuleRetry reports the backoff before a re-application:
	// Round = the attempt whose conflict triggered the backoff (the same
	// index the paired KindModuleConflict carries), Duration = the
	// backoff slept. Nondeterministic.
	KindModuleRetry Kind = "module.retry"
	// KindVecKernel reports one columnar kernel's aggregate work over a
	// vectorized stratum, emitted at the stratum boundary in kernel-name
	// order: Stratum, Pred = kernel name (select/join/antijoin/filter/
	// emit), Count = invocations, Total = rows produced,
	// Detail = "vectorize". Deterministic.
	KindVecKernel Kind = "vec.kernel"
	// KindWALAppend reports one record appended to the write-ahead log:
	// Round = the record's commit epoch (truncated to int), Pred = the
	// record type ("delta", "replace", "register"), Count = framed bytes
	// written, Total = WAL size in bytes after the append.
	// Nondeterministic: depends on commit interleaving and durability
	// configuration.
	KindWALAppend Kind = "wal.append"
	// KindWALSync reports one WAL fsync: Duration = the sync wall-clock,
	// Detail = the policy that triggered it ("always", "interval",
	// "explicit"). Nondeterministic.
	KindWALSync Kind = "wal.fsync"
	// KindWALRecover reports one completed crash recovery: Round = the
	// recovered epoch, Count = WAL records replayed, Detail = "clean" or
	// the torn-tail recovery error. Nondeterministic.
	KindWALRecover Kind = "wal.recover"
	// KindWALCompact reports one log compaction: Round = the checkpoint
	// epoch, Count = WAL records truncated away, Duration = the
	// compaction wall-clock. Nondeterministic.
	KindWALCompact Kind = "wal.compact"
	// KindIVMPropagate reports one incremental view-maintenance
	// propagation after a commit: Round = the commit epoch (truncated to
	// int), Count = derived facts that changed (adds + removes), Total =
	// the full derived set size afterwards, Duration = the propagation
	// wall-clock, Reason = the consistency audit of the maintained set
	// when the commit was validated by it (deferred validation).
	// Nondeterministic: present only with incremental maintenance enabled
	// and dependent on commit interleaving.
	KindIVMPropagate Kind = "ivm.propagate"
	// KindIVMRebuild reports one full recomputation of the maintenance
	// state (construction, whole-state replacement, or fallback after a
	// propagation error): Round = the commit epoch, Detail = the reason,
	// Duration = the rebuild wall-clock. Nondeterministic.
	KindIVMRebuild Kind = "ivm.rebuild"
	// KindSubEmit reports one fan-out of a commit's view diff to live
	// subscriptions: Round = the commit epoch, Count = subscribers
	// delivered to, Total = slow subscribers dropped. Nondeterministic.
	KindSubEmit Kind = "sub.emit"
)

// Deterministic reports whether events of this kind are part of the
// determinism contract: their ordered stream is identical on every run
// (wall-clock fields excluded).
func (k Kind) Deterministic() bool {
	switch k {
	case KindGuardCheck, KindModuleCommit, KindModuleConflict, KindModuleRetry,
		KindWALAppend, KindWALSync, KindWALRecover, KindWALCompact,
		KindIVMPropagate, KindIVMRebuild, KindSubEmit:
		return false
	}
	return true
}

// Event is one typed trace event. Fields are kind-specific (zero when
// not applicable); see the Kind constants for each kind's payload.
type Event struct {
	Kind Kind
	// Time is the emission wall-clock time. Emitters leave it zero —
	// sinks that want timestamps stamp it on arrival — so the hot path
	// never calls time.Now for an event the sink will not timestamp.
	Time time.Time
	// Stratum is the evaluation stratum (-1 when strata do not apply).
	Stratum int
	// Round is the fixpoint round within the stratum.
	Round int
	// Rule is the compiled rule id.
	Rule int
	// Pred is the predicate the event concerns (e.g. the invented
	// object's class).
	Pred string
	// OID is the invented object identifier (KindOIDInvent).
	OID int64
	// Count is the kind-specific count: delta size, firings, tuples.
	Count int
	// Total is the kind-specific running total (usually the fact count).
	Total int
	// Axis is the budget axis (KindBudget, KindAbort).
	Axis string
	// Limit is the effective bound of the axis (KindBudget).
	Limit int64
	// Duration is the wall-clock measurement of timing-carrying kinds.
	// Excluded from the determinism contract.
	Duration time.Duration
	// Detail is a short free-form annotation (mode names, abort causes).
	Detail string
	// Reason explains a decision. On KindStratumBegin: why the stratum
	// runs on the row engine although columnar evaluation is on — the rule
	// and the construct in it that has no columnar counterpart (empty for
	// columnar strata and when columnar evaluation is off). On
	// KindModuleEnd and KindIVMPropagate: the consistency audit the commit
	// ran.
	Reason string
	// Req is the originating request's id when the event was emitted
	// under a request span (Span.Instrument stamps it); empty for
	// process-local evaluations. Request identity is not a property of
	// the evaluation, so Req is excluded from the determinism contract
	// and stripped by the canonical sink.
	Req string
}

// Tracer receives trace events. Implementations must be safe for
// concurrent use: one tracer may be shared by evaluations running on
// different goroutines.
type Tracer interface {
	Event(Event)
}

// multi fans events out to several tracers in order.
type multi []Tracer

func (m multi) Event(ev Event) {
	for _, t := range m {
		t.Event(ev)
	}
}

// Multi combines tracers into one; nil entries are dropped. Returns nil
// when nothing remains, so the engine's nil fast path still applies.
func Multi(tracers ...Tracer) Tracer {
	var out multi
	for _, t := range tracers {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
