package obs

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is the request-scoped observability handle: the identity minted
// (or extracted from W3C traceparent / X-Request-ID headers) for one
// inbound request, carried through context so every trace event the
// request causes — evaluation rounds, vectorized kernels, conflict
// retries, WAL appends and fsync waits — is attributable to it.
//
// A span does not replace the process-wide tracer: Instrument wraps the
// call's existing tracer chain, stamping Event.Req and keeping live
// counters for the /debug/requests inspector. When no span is in the
// context and no profile was requested, calls run exactly as before —
// the nil-tracer fast path is untouched and the canonical JSONL stream
// stays byte-identical.
type Span struct {
	// RequestID is the request identity stamped into Event.Req. Minted
	// by the server when the client did not send X-Request-ID.
	RequestID string
	// TraceID and ParentID are the W3C traceparent components when the
	// client sent one ("" otherwise).
	TraceID  string
	ParentID string
	// Start is when the request entered the server.
	Start time.Time

	phase     atomic.Value // string: what the request is doing right now
	rounds    atomic.Int64 // fixpoint rounds run so far
	facts     atomic.Int64 // fact count after the latest round
	retries   atomic.Int64 // optimistic-commit retries so far
	budget    atomic.Int64 // max budget consumption seen (count of the tightest axis)
	collector *ProfileCollector
}

// NewSpan returns a span for one request. requestID must be non-empty;
// traceID/parentID may be "" when the client sent no traceparent.
func NewSpan(requestID, traceID, parentID string) *Span {
	s := &Span{RequestID: requestID, TraceID: traceID, ParentID: parentID, Start: time.Now()}
	s.phase.Store("accepted")
	return s
}

// SetPhase records what the request is doing ("decode", "eval",
// "stream", ...). Event arrival also advances the phase automatically.
func (s *Span) SetPhase(p string) { s.phase.Store(p) }

// Phase returns the current phase.
func (s *Span) Phase() string {
	p, _ := s.phase.Load().(string)
	return p
}

// Rounds, Facts, Retries, and BudgetUsed expose the live counters the
// /debug/requests inspector reports.
func (s *Span) Rounds() int64     { return s.rounds.Load() }
func (s *Span) Facts() int64      { return s.facts.Load() }
func (s *Span) Retries() int64    { return s.retries.Load() }
func (s *Span) BudgetUsed() int64 { return s.budget.Load() }

// EnableProfile attaches a profile collector to the span. Must be
// called before the evaluation starts (the server does it while
// decoding the request); events arriving afterwards feed the profile.
func (s *Span) EnableProfile() *ProfileCollector {
	if s.collector == nil {
		s.collector = NewProfileCollector()
	}
	return s.collector
}

// Collector returns the attached profile collector (nil when profiling
// was not requested for this request).
func (s *Span) Collector() *ProfileCollector { return s.collector }

// Instrument wraps base so that every event is stamped with the span's
// request id, feeds the span's live counters, and — when profiling is
// enabled — the profile collector. base may be nil; the result is never
// nil (the span itself always observes).
func (s *Span) Instrument(base Tracer) Tracer {
	return spanTracer{span: s, base: base}
}

type spanTracer struct {
	span *Span
	base Tracer
}

func (t spanTracer) Event(ev Event) {
	ev.Req = t.span.RequestID
	switch ev.Kind {
	case KindEvalBegin:
		t.span.phase.Store("eval")
	case KindRoundEnd:
		t.span.rounds.Add(1)
		t.span.facts.Store(int64(ev.Total))
	case KindBudget:
		if int64(ev.Count) > t.span.budget.Load() {
			t.span.budget.Store(int64(ev.Count))
		}
	case KindModuleCommit:
		t.span.phase.Store("commit")
	case KindModuleRetry:
		t.span.retries.Add(1)
		t.span.phase.Store("backoff")
	case KindWALAppend:
		t.span.phase.Store("wal")
	}
	if t.base != nil {
		t.base.Event(ev)
	}
	if c := t.span.collector; c != nil {
		c.Event(ev)
	}
}

type spanKey struct{}

// ContextWithSpan returns a context carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the context's span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Profile is the EXPLAIN-ANALYZE-style account of one call: where the
// time went (per-stratum wall clock, WAL sync waits, retry backoff),
// what the evaluation did (rounds, firings, delta curve, vectorized vs
// row dispatch), and what the optimistic commit path cost (retries with
// conflict footprints). Assembled by a ProfileCollector from the same
// event stream the tracers see.
type Profile struct {
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	// WallNS is the whole call's wall clock (request receipt to
	// response on the server; call entry to return for WithCallProfile).
	WallNS int64 `json:"wall_ns"`
	// EvalNS is the committed evaluation's wall clock.
	EvalNS int64 `json:"eval_ns"`
	// Rounds and Firings total over the committed attempt; Facts is the
	// final fact count.
	Rounds  int `json:"rounds"`
	Firings int `json:"firings"`
	Facts   int `json:"facts"`
	// Strata describes the committed attempt, one entry per stratum.
	Strata []StratumProfile `json:"strata,omitempty"`
	// Retries counts optimistic-commit re-evaluations; Conflicts holds
	// one entry per failed validation; BackoffNS is the total backoff
	// slept between attempts.
	Retries   int               `json:"retries"`
	Conflicts []ConflictProfile `json:"conflicts,omitempty"`
	BackoffNS int64             `json:"backoff_ns,omitempty"`
	// CommitPath is how the winning commit installed its result
	// ("fast", "merge", "replace", "read-only"); empty for serial calls.
	CommitPath string `json:"commit_path,omitempty"`
	// Audit is the consistency audit the application ran: "delta" (only
	// what the commit changed, or what a RIDI module's rules added) or
	// "full: <why>"; empty when it ran none (goal-only queries).
	Audit string `json:"audit,omitempty"`
	// WAL accounting: appended records/bytes and the fsync waits this
	// call paid for (interval-policy background syncs are not charged).
	WALAppends    int   `json:"wal_appends,omitempty"`
	WALBytes      int64 `json:"wal_bytes,omitempty"`
	WALSyncs      int   `json:"wal_syncs,omitempty"`
	WALSyncWaitNS int64 `json:"wal_sync_wait_ns,omitempty"`
	// Abort carries the abort cause when the call failed mid-flight.
	Abort string `json:"abort,omitempty"`
}

// StratumProfile accounts for one stratum of the committed attempt.
type StratumProfile struct {
	Stratum int `json:"stratum"`
	// Mode is the evaluation mode the planner chose ("semi-naive",
	// "semi-naive (vectorized)", "naive", ...); Vectorized flags the
	// columnar path.
	Mode       string `json:"mode"`
	Vectorized bool   `json:"vectorized,omitempty"`
	// Reason is why the stratum stayed on the row engine with columnar
	// evaluation on: the rule and the construct that has no kernel.
	Reason  string `json:"reason,omitempty"`
	Rounds  int    `json:"rounds"`
	WallNS  int64  `json:"wall_ns"`
	Firings int    `json:"firings"`
	// Delta is the per-round delta curve (facts added per round; signed
	// under the general operator).
	Delta []int `json:"delta,omitempty"`
	// Facts is the fact count when the stratum closed.
	Facts int `json:"facts"`
	// Kernels breaks down columnar kernel work (vectorized strata only).
	Kernels []KernelProfile `json:"kernels,omitempty"`
}

// KernelProfile is one columnar kernel's aggregate work in one stratum.
type KernelProfile struct {
	Kernel string `json:"kernel"`
	Calls  int    `json:"calls"`
	Rows   int    `json:"rows"`
}

// ConflictProfile is one failed optimistic-commit validation.
type ConflictProfile struct {
	// Attempt is the retry attempt that failed (0 = first try).
	Attempt int `json:"attempt"`
	// Pred is the conflicting predicate.
	Pred string `json:"pred,omitempty"`
	// Footprints carries both sides' footprints as the conflict event
	// reported them.
	Footprints string `json:"footprints,omitempty"`
}

// ProfileCollector assembles a Profile from a trace event stream. It is
// a Tracer, attached per call (fan in with Multi or via Span.Instrument)
// only when profiling was requested, so unprofiled calls pay nothing.
//
// Optimistic retries re-run the evaluation: the collector resets its
// per-attempt state on each eval.begin so Strata describe the attempt
// that committed, while retry/conflict/WAL counters accumulate across
// the whole call.
type ProfileCollector struct {
	mu           sync.Mutex
	p            Profile
	strata       []StratumProfile
	current      *StratumProfile
	stratumStart time.Time
}

// NewProfileCollector returns an empty collector.
func NewProfileCollector() *ProfileCollector { return &ProfileCollector{} }

// Event implements Tracer.
func (c *ProfileCollector) Event(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case KindEvalBegin:
		// A fresh attempt: per-attempt state restarts, call-wide
		// counters (retries, conflicts, WAL) persist.
		c.strata = c.strata[:0]
		c.current = nil
		c.p.Rounds, c.p.Firings, c.p.EvalNS = 0, 0, 0
	case KindStratumBegin:
		c.strata = append(c.strata, StratumProfile{
			Stratum:    ev.Stratum,
			Mode:       ev.Detail,
			Vectorized: strings.Contains(ev.Detail, "vector"),
			Reason:     ev.Reason,
		})
		c.current = &c.strata[len(c.strata)-1]
		c.stratumStart = time.Now()
	case KindStratumEnd:
		if c.current != nil {
			c.current.Facts = ev.Total
			c.current.WallNS = time.Since(c.stratumStart).Nanoseconds()
			c.current = nil
		}
	case KindRoundEnd:
		c.p.Rounds++
		c.p.Facts = ev.Total
		if c.current != nil {
			c.current.Rounds++
			c.current.Delta = append(c.current.Delta, ev.Count)
		}
	case KindRuleFire:
		c.p.Firings += ev.Count
		if c.current != nil {
			c.current.Firings += ev.Count
		}
	case KindVecKernel:
		if c.current != nil {
			c.current.Kernels = append(c.current.Kernels, KernelProfile{
				Kernel: ev.Pred, Calls: ev.Count, Rows: ev.Total,
			})
		}
	case KindEvalEnd:
		c.p.EvalNS = int64(ev.Duration)
		c.p.Facts = ev.Total
	case KindModuleCommit:
		c.p.CommitPath = ev.Detail
	case KindModuleEnd:
		if ev.Reason != "" {
			c.p.Audit = ev.Reason
		}
	case KindModuleConflict:
		c.p.Conflicts = append(c.p.Conflicts, ConflictProfile{
			Attempt: ev.Round, Pred: ev.Pred, Footprints: ev.Detail,
		})
	case KindModuleRetry:
		c.p.Retries++
		c.p.BackoffNS += int64(ev.Duration)
	case KindWALAppend:
		c.p.WALAppends++
		c.p.WALBytes += int64(ev.Count)
	case KindWALSync:
		c.p.WALSyncs++
		c.p.WALSyncWaitNS += int64(ev.Duration)
	case KindAbort:
		c.p.Abort = ev.Detail
		if c.p.Abort == "" {
			c.p.Abort = ev.Axis
		}
	}
}

// Profile finalizes and returns a copy of the assembled profile. wall
// is the whole call's elapsed time (the caller measures it — request
// receipt to response, or call entry to return).
func (c *ProfileCollector) Profile(wall time.Duration) *Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.p
	out.WallNS = wall.Nanoseconds()
	out.Strata = make([]StratumProfile, len(c.strata))
	copy(out.Strata, c.strata)
	for i := range out.Strata {
		out.Strata[i].Delta = append([]int(nil), c.strata[i].Delta...)
		out.Strata[i].Kernels = append([]KernelProfile(nil), c.strata[i].Kernels...)
	}
	out.Conflicts = append([]ConflictProfile(nil), c.p.Conflicts...)
	return &out
}
