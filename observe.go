package logres

import (
	"context"
	"io"
	"net/http"
	"time"

	"logres/internal/engine"
	"logres/internal/obs"
)

// Observability surface: evaluation tracing, metrics exposition, and
// per-call guardrail overrides — the §5 "design, debugging, and
// monitoring" tooling made production-shaped. A Database with no tracer
// and no metrics registry pays a nil check per would-be event and
// nothing else.

// Tracer receives typed evaluation events: stratum and round
// boundaries with delta sizes, per-round rule firing counts, oid
// inventions, shard-merge timings, budget consumption, and aborts.
// Implementations must be safe for concurrent use and must not block —
// they run inline with evaluation.
type Tracer = obs.Tracer

// TraceEvent is one typed evaluation event.
type TraceEvent = obs.Event

// TraceKind discriminates trace events.
type TraceKind = obs.Kind

// Metrics is a lock-cheap metrics registry: counters, gauges and log₂
// histograms published via expvar and rendered in Prometheus text
// exposition format.
type Metrics = obs.Metrics

// FlightRecorder is a ring-buffer tracer keeping the last N events and
// dumping them on abort — the post-mortem surface for a query nobody
// was tracing.
type FlightRecorder = obs.FlightRecorder

// Stats is the record of what the last evaluation did, including the
// per-round DeltaCurve (deterministic: the row engine and the columnar
// kernels record the same curve).
type Stats = engine.Stats

// RoundDelta is one point on a Stats delta curve.
type RoundDelta = engine.RoundDelta

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewJSONLTracer returns a tracer writing one JSON object per event to
// w, stamped with arrival timestamps.
func NewJSONLTracer(w io.Writer) *obs.JSONL { return obs.NewJSONL(w) }

// NewCanonicalJSONLTracer is NewJSONLTracer in canonical mode:
// timestamps and durations are stripped and nondeterministic kinds
// skipped, so the stream for a fixed program is byte-identical from run
// to run.
func NewCanonicalJSONLTracer(w io.Writer) *obs.JSONL { return obs.NewCanonicalJSONL(w) }

// NewTextTracer returns a tracer writing human-readable one-line
// renderings of each event to w.
func NewTextTracer(w io.Writer) *obs.Text { return obs.NewText(w) }

// NewFlightRecorder returns a flight recorder holding the last n
// events (n <= 0 selects 256).
func NewFlightRecorder(n int) *FlightRecorder { return obs.NewFlightRecorder(n) }

// MultiTracer fans events out to several tracers (nils are dropped;
// returns nil when none remain).
func MultiTracer(tracers ...Tracer) Tracer { return obs.Multi(tracers...) }

// MetricsHandler returns an http.Handler serving m in Prometheus text
// exposition format, plus /debug/vars and /debug/pprof when mounted
// via the returned mux — see obs.NewServeMux for the full surface.
func MetricsHandler(m *Metrics) http.Handler { return obs.NewServeMux(m) }

// WithTracer attaches a tracer to every evaluation the database runs.
// A nil tracer (the default) keeps the zero-overhead fast path.
func WithTracer(t Tracer) Option {
	return func(db *Database) {
		db.tracer = t
		db.rewireTracer()
	}
}

// WithMetrics attaches a metrics registry: every evaluation updates
// its counters, gauges, and histograms (rounds, firings, invented
// oids, aborts by axis, round/merge durations, fact totals).
func WithMetrics(m *Metrics) Option {
	return func(db *Database) {
		db.metrics = m
		db.rewireTracer()
	}
}

// SetTracer replaces the database's tracer at runtime (nil detaches
// it). Safe for concurrent use; in-flight evaluations keep the tracer
// they started with.
func (db *Database) SetTracer(t Tracer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tracer = t
	db.rewireTracer()
}

// Metrics returns the database's metrics registry, creating and
// attaching one on first use.
func (db *Database) Metrics() *Metrics {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.metrics == nil {
		db.metrics = obs.NewMetrics()
		db.rewireTracer()
	}
	return db.metrics
}

// rewireTracer recomputes the effective tracer the engine sees: the
// user tracer and the metrics adapter fanned together, or nil when
// neither is attached (the zero-overhead path). Callers hold the write
// lock or are the sole owner (Open/Load options).
func (db *Database) rewireTracer() {
	db.opts.Tracer = obs.Multi(db.tracer, db.metricsTracer())
	if db.store != nil {
		db.store.SetTracer(db.opts.Tracer)
	}
}

func (db *Database) metricsTracer() Tracer {
	if db.metrics == nil {
		return nil
	}
	return db.metrics.Tracer()
}

// Profile is the EXPLAIN-ANALYZE-style account of one call: per-stratum
// wall time, rule firings and delta curve, vectorized-vs-row dispatch
// with kernel breakdowns, optimistic retry count with conflict
// footprints, and WAL append/fsync waits. Request WithCallProfile, or
// the server's ?profile=1 / ExecRequest.Profile over the wire.
type Profile = obs.Profile

// StratumProfile, KernelProfile, and ConflictProfile are the component
// records of a Profile.
type (
	StratumProfile  = obs.StratumProfile
	KernelProfile   = obs.KernelProfile
	ConflictProfile = obs.ConflictProfile
)

// CallOption adjusts one Exec/Query/Apply/Call invocation without
// touching the database-wide configuration.
type CallOption func(*callOpts)

type callOpts struct {
	budget Budget
	// maxRetries overrides (not tightens) the retry bound: negative
	// disables retries, which Tighten cannot express.
	maxRetries int
	// profile is the WithCallProfile destination; non-nil arms a
	// per-call profile collector.
	profile *Profile
}

// WithCallBudget tightens the database-wide budget for one call: each
// armed axis of b replaces the database's bound only when stricter (a
// call can narrow what the database allows, never widen it). Aborts
// surface as the usual typed *BudgetError.
func WithCallBudget(b Budget) CallOption {
	return func(c *callOpts) { c.budget = b }
}

// WithCallMaxRetries overrides the conflict retry bound of one
// concurrent application (ApplyConcurrent / ExecConcurrent): n > 0 sets
// the bound, n < 0 disables retries so the first conflict surfaces the
// *ConflictError, n == 0 inherits the database's setting. Unlike
// WithCallBudget this is an override, not a tightening — a per-request
// "fail fast" needs to express the negative case.
func WithCallMaxRetries(n int) CallOption {
	return func(c *callOpts) { c.maxRetries = n }
}

// WithCallProfile arms profile collection for one call and copies the
// assembled Profile into dst before the call returns (on error paths
// dst holds whatever was collected up to the failure, including the
// abort cause). Profiling fans a collector into the call's tracer, so
// calls without it keep the nil-tracer fast path.
func WithCallProfile(dst *Profile) CallOption {
	return func(c *callOpts) { c.profile = dst }
}

// applyCallOptions folds per-call options into a copy of the engine
// options. The database's round bound is Budget.MaxRounds when set,
// else engine.DefaultMaxRounds; a call's rounds axis counts only below
// that bound.
func applyCallOptions(opts engine.Options, cos []CallOption) engine.Options {
	if len(cos) == 0 {
		return opts
	}
	var c callOpts
	for _, o := range cos {
		o(&c)
	}
	bound := opts.Budget.MaxRounds
	if bound == 0 {
		bound = engine.DefaultMaxRounds
	}
	if c.budget.MaxRounds >= bound {
		c.budget.MaxRounds = 0
	}
	opts.Budget = opts.Budget.Tighten(c.budget)
	if c.maxRetries != 0 {
		opts.Budget.MaxRetries = c.maxRetries
	}
	return opts
}

// callProfileDst extracts the WithCallProfile destination from a call's
// options (nil when profiling was not requested).
func callProfileDst(cos []CallOption) *Profile {
	var c callOpts
	for _, o := range cos {
		o(&c)
	}
	return c.profile
}

// instrumentCall fans request-scoped observability into one call's
// resolved engine options: the context's span (stamping every event the
// call emits — eval rounds, vec kernels, conflict retries, WAL
// append/fsync waits — with the originating request id) and a profile
// collector when WithCallProfile asked for one. Returns a finish func
// the call must run before returning (defer it; it finalizes the
// profile). With no span in the context and no profile request, both
// the options and the finish func are no-ops — the nil-tracer fast
// path and the canonical trace stream are untouched.
func instrumentCall(ctx context.Context, opts *engine.Options, cos []CallOption) func() {
	var span *obs.Span
	if ctx != nil {
		span = obs.SpanFromContext(ctx)
	}
	dst := callProfileDst(cos)
	if span == nil && dst == nil {
		return func() {}
	}
	var col *obs.ProfileCollector
	if dst != nil {
		col = obs.NewProfileCollector()
	}
	start := time.Now()
	tr := opts.Tracer
	if col != nil {
		tr = obs.Multi(tr, col)
	}
	if span != nil {
		tr = span.Instrument(tr)
	}
	opts.Tracer = tr
	return func() {
		if col == nil {
			return
		}
		p := col.Profile(time.Since(start))
		if span != nil {
			p.RequestID, p.TraceID = span.RequestID, span.TraceID
		}
		*dst = *p
	}
}
