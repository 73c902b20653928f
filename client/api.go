// Package client is the Go client of the logres-server HTTP/JSON data
// plane, plus the wire types the server and client share. The API is
// versioned under /v1:
//
//	GET    /v1/db                 list databases
//	PUT    /v1/db/{name}          create a database (CreateRequest)
//	GET    /v1/db/{name}          database info (DBInfo)
//	DELETE /v1/db/{name}          drop a database
//	POST   /v1/db/{name}/exec     apply a module (ExecRequest → ExecResponse)
//	POST   /v1/db/{name}/query    evaluate a goal (QueryRequest → NDJSON stream)
//	GET    /v1/db/{name}/instance stream the derived instance (NDJSON)
//	POST   /v1/db/{name}/register store a named module (RegisterRequest)
//	POST   /v1/db/{name}/subscribe live view diffs (SubscribeRequest → NDJSON stream)
//
// Errors carry a JSON ErrorResponse body whose Kind mirrors the
// engine's typed errors: optimistic commit conflicts map to 409 with
// both footprints, budget exhaustion to 422, client cancellation to
// 499, evaluation deadlines to 504 (see internal/server for the full
// table). Streaming responses are NDJSON: a QueryHeader line, then
// QueryChunk lines, then a QueryTrailer — an error mid-stream replaces
// the trailer with an {"error": …} line.
package client

import "time"

// CreateRequest creates a database under PUT /v1/db/{name}.
type CreateRequest struct {
	// Schema is the LOGRES schema source (domains / classes /
	// associations / functions sections).
	Schema string `json:"schema"`
	// Options configures the database; nil takes every default.
	Options *DBOptions `json:"options,omitempty"`
}

// DBOptions is the per-database configuration subset exposed on the
// wire; zero fields keep the engine defaults.
type DBOptions struct {
	// MaxRetries bounds optimistic commit retries
	// (logres.WithMaxRetries): 0 = default, negative = fail on the
	// first conflict.
	MaxRetries int `json:"max_retries,omitempty"`
	// Budget bounds every evaluation (logres.WithBudget).
	Budget *BudgetSpec `json:"budget,omitempty"`
	// Incremental maintains the derived instance across commits
	// (logres.WithIncremental), enabling the subscribe endpoint.
	Incremental bool `json:"incremental,omitempty"`
}

// BudgetSpec is the wire form of logres.Budget.
type BudgetSpec struct {
	MaxRounds int `json:"max_rounds,omitempty"`
	MaxFacts  int `json:"max_facts,omitempty"`
	MaxOIDs   int `json:"max_oids,omitempty"`
	// TimeoutMS is the wall-clock bound per evaluation in milliseconds.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Timeout converts the wire form back to a duration.
func (b *BudgetSpec) Timeout() time.Duration { return time.Duration(b.TimeoutMS) * time.Millisecond }

// DBInfo describes one registered database (GET /v1/db/{name}).
type DBInfo struct {
	Name string `json:"name"`
	// Epoch is the commit epoch: the number of state-changing commits.
	Epoch uint64 `json:"epoch"`
	// Rules is the persistent rule count, Modules the stored module
	// library names.
	Rules   int      `json:"rules"`
	Modules []string `json:"modules,omitempty"`
	// Schema renders the current schema in LOGRES syntax.
	Schema string `json:"schema,omitempty"`
	// Incremental reports whether the database maintains its derived
	// instance incrementally (live subscriptions available).
	Incremental bool `json:"incremental,omitempty"`
	// Durability summarizes the database's write-ahead log; nil for an
	// in-memory database.
	Durability *DurabilityInfo `json:"durability,omitempty"`
	// Recovery describes the crash recovery that opened this database;
	// nil for fresh or in-memory databases.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
}

// DurabilityInfo is the wire form of a durable database's storage
// status (logres.DurabilityStatus).
type DurabilityInfo struct {
	// Fsync is the WAL sync policy ("always", "interval", "off").
	Fsync string `json:"fsync"`
	// Epoch is the durable commit epoch (the last WAL-acknowledged
	// commit), CheckpointEpoch the newest snapshot's epoch — the oldest
	// epoch AsOf queries can still reach.
	Epoch           uint64 `json:"epoch"`
	CheckpointEpoch uint64 `json:"checkpoint_epoch"`
	// WALRecords and WALBytes size the log since the last compaction.
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
}

// RecoveryInfo is the wire form of a recovery report: what opening the
// database's data directory found and repaired.
type RecoveryInfo struct {
	// SnapshotEpoch is the snapshot recovery started from; Epoch the
	// recovered commit epoch after replaying Replayed WAL records.
	SnapshotEpoch uint64 `json:"snapshot_epoch"`
	Epoch         uint64 `json:"epoch"`
	Replayed      int    `json:"replayed"`
	// TornTail describes the quarantined-and-truncated WAL suffix, if
	// the log had one.
	TornTail string `json:"torn_tail,omitempty"`
	// BadSnapshots lists snapshot files that failed verification and
	// were skipped in favor of an older one.
	BadSnapshots []string `json:"bad_snapshots,omitempty"`
}

// ListResponse is the body of GET /v1/db.
type ListResponse struct {
	Databases []string `json:"databases"`
}

// ExecRequest applies a module under POST /v1/db/{name}/exec
// (logres ApplyContext): evaluation runs against a snapshot outside the
// write lock and commits via footprint validation, so requests touching
// disjoint predicates proceed in parallel. A conflict retries on the
// server up to the retry bound; only a request with MaxRetries < 0 (or
// a database opened with retries disabled) gets a 409.
type ExecRequest struct {
	// Module is the LOGRES module source.
	Module string `json:"module"`
	// Mode overrides the module's declared application mode
	// ("RIDI" … "RDDV", case-insensitive); empty honours the
	// declaration.
	Mode string `json:"mode,omitempty"`
	// MaxRetries overrides the database's conflict retry bound for this
	// request only: 0 = inherit, negative = fail on the first conflict.
	MaxRetries int `json:"max_retries,omitempty"`
	// Profile asks the server for an EXPLAIN-ANALYZE-style Profile of
	// this application in the response.
	Profile bool `json:"profile,omitempty"`
}

// ExecResponse is a successful module application.
type ExecResponse struct {
	// Mode is the mode the module was applied with.
	Mode string `json:"mode"`
	// Answer holds goal bindings for data-invariant modes with a goal.
	Answer *Answer `json:"answer,omitempty"`
	// Epoch is the commit epoch after the application — unchanged for
	// read-only applications.
	Epoch uint64 `json:"epoch"`
	// Profile is the per-request profile when ExecRequest.Profile (or
	// ?profile=1) asked for one.
	Profile *Profile `json:"profile,omitempty"`
}

// Answer is a goal's result: variable names and deduplicated rows of
// their bindings rendered in LOGRES value syntax, in deterministic
// order.
type Answer struct {
	Vars []string   `json:"vars"`
	Rows [][]string `json:"rows"`
}

// QueryRequest evaluates a goal under POST /v1/db/{name}/query.
type QueryRequest struct {
	// Goal is the LOGRES goal source (`?- lit, … .`).
	Goal string `json:"goal"`
	// ChunkSize bounds the rows per streamed QueryChunk (<= 0 selects
	// the server default).
	ChunkSize int `json:"chunk_size,omitempty"`
	// AsOf evaluates the goal against the committed state at a past
	// commit epoch instead of the current one (durable databases only;
	// 0 queries the present). Epochs older than the last compaction
	// checkpoint are gone and rejected.
	AsOf uint64 `json:"as_of,omitempty"`
	// Profile asks the server for a Profile in the query trailer.
	Profile bool `json:"profile,omitempty"`
}

// QueryHeader is the first NDJSON line of a query response.
type QueryHeader struct {
	Vars []string `json:"vars"`
}

// QueryChunk is one NDJSON line of rows; a response carries zero or
// more chunks between header and trailer.
type QueryChunk struct {
	Rows [][]string `json:"rows"`
}

// QueryTrailer is the final NDJSON line of a complete query response.
type QueryTrailer struct {
	Done  bool `json:"done"`
	Total int  `json:"total"`
	// Profile is the per-request profile when QueryRequest.Profile (or
	// ?profile=1) asked for one.
	Profile *Profile `json:"profile,omitempty"`
}

// Profile is the wire form of a per-request profile — the
// EXPLAIN-ANALYZE-style account the server assembles when a request
// asks for profiling: where the time went (per-stratum wall clock, WAL
// sync waits, retry backoff), what the evaluation did (rounds,
// firings, delta curve, vectorized vs row dispatch), and what the
// optimistic commit path cost.
type Profile struct {
	// RequestID / TraceID identify the request the profile describes
	// (the X-Request-ID / traceparent values, minted server-side when
	// the client sent none).
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	// WallNS is the whole request's server-side wall clock; EvalNS the
	// committed evaluation's.
	WallNS int64 `json:"wall_ns"`
	EvalNS int64 `json:"eval_ns"`
	// Rounds and Firings total over the committed attempt; Facts is the
	// final fact count.
	Rounds  int `json:"rounds"`
	Firings int `json:"firings"`
	Facts   int `json:"facts"`
	// Strata describes the committed attempt, one entry per stratum.
	Strata []StratumProfile `json:"strata,omitempty"`
	// Retries counts optimistic re-evaluations; Conflicts holds one
	// entry per failed commit validation; BackoffNS is the total
	// conflict backoff slept.
	Retries   int               `json:"retries"`
	Conflicts []ConflictProfile `json:"conflicts,omitempty"`
	BackoffNS int64             `json:"backoff_ns,omitempty"`
	// CommitPath is how the winning commit installed its result
	// ("fast", "merge", "replace", "read-only").
	CommitPath string `json:"commit_path,omitempty"`
	// Audit is the consistency audit the committed application ran:
	// "delta" (only what the commit changed) or "full: <why>".
	Audit string `json:"audit,omitempty"`
	// WAL accounting: appended records/bytes and the fsync waits this
	// request paid for.
	WALAppends    int   `json:"wal_appends,omitempty"`
	WALBytes      int64 `json:"wal_bytes,omitempty"`
	WALSyncs      int   `json:"wal_syncs,omitempty"`
	WALSyncWaitNS int64 `json:"wal_sync_wait_ns,omitempty"`
	// Abort carries the abort cause when the request failed mid-flight.
	Abort string `json:"abort,omitempty"`
}

// StratumProfile accounts for one stratum of the committed attempt.
type StratumProfile struct {
	Stratum int `json:"stratum"`
	// Mode is the evaluation mode the planner chose; Vectorized flags
	// the columnar path.
	Mode       string `json:"mode"`
	Vectorized bool   `json:"vectorized,omitempty"`
	// Reason is why the stratum stayed on the row engine: the rule and
	// the construct in it that has no columnar kernel.
	Reason  string `json:"reason,omitempty"`
	Rounds  int    `json:"rounds"`
	WallNS  int64  `json:"wall_ns"`
	Firings int    `json:"firings"`
	// Delta is the per-round delta curve.
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
	Attempt    int    `json:"attempt"`
	Pred       string `json:"pred,omitempty"`
	Footprints string `json:"footprints,omitempty"`
}

// InstanceFact is one NDJSON line of GET /v1/db/{name}/instance: a
// fact of the derived instance rendered in LOGRES syntax.
type InstanceFact struct {
	Pred string `json:"pred"`
	Fact string `json:"fact"`
}

// RegisterRequest stores a named module in the database's library
// under POST /v1/db/{name}/register.
type RegisterRequest struct {
	Module string `json:"module"`
}

// SubscribeRequest opens a live view subscription under
// POST /v1/db/{name}/subscribe (incremental databases only). The
// response is a long-lived NDJSON stream: one SubscribeHeader line,
// then one DiffEvent line per state-changing commit epoch, in order
// with no gaps. The stream ends with an {"error": …} line when the
// subscription is torn down server-side (slow consumer, maintenance
// failure, server drain); a client that just hangs up gets no line.
type SubscribeRequest struct {
	// Preds restricts diffs to these predicates (empty = all); epochs
	// still arrive as empty DiffEvents when nothing subscribed changed.
	Preds []string `json:"preds,omitempty"`
	// Buffer is the server-side diff buffer (<= 0 selects the server
	// default). A commit finding it full disconnects the subscription
	// with a "slow_consumer" error line.
	Buffer int `json:"buffer,omitempty"`
}

// SubscribeHeader is the first NDJSON line of a subscription: the
// commit epoch the subscription is pinned at (the first DiffEvent, if
// any commit follows, carries Epoch+1) and the canonicalized predicate
// filter.
type SubscribeHeader struct {
	Epoch uint64   `json:"epoch"`
	Preds []string `json:"preds,omitempty"`
}

// DiffFact is one changed fact of a DiffEvent, rendered in LOGRES
// syntax like an InstanceFact.
type DiffFact struct {
	Pred string `json:"pred"`
	Fact string `json:"fact"`
}

// DiffEvent is one NDJSON line of a subscription stream: the exact
// fact-level difference of the derived instance across one commit
// epoch, each side sorted.
type DiffEvent struct {
	Epoch   uint64     `json:"epoch"`
	Adds    []DiffFact `json:"adds,omitempty"`
	Removes []DiffFact `json:"removes,omitempty"`
}

// FootprintJSON is the wire form of a predicate-level access set
// (conflict error bodies carry both sides' footprints).
type FootprintJSON struct {
	Reads     []string `json:"reads,omitempty"`
	Writes    []string `json:"writes,omitempty"`
	Universal bool     `json:"universal,omitempty"`
}

// Error kinds of ErrorResponse.Kind, mirroring the engine's typed
// errors.
const (
	KindInvalid   = "invalid"   // 400: parse/validation/rejection
	KindNotFound  = "not_found" // 404: unknown database
	KindExists    = "exists"    // 409: database already exists
	KindConflict  = "conflict"  // 409: optimistic commit conflict (footprints attached)
	KindBudget    = "budget"    // 422: budget axis exhausted
	KindCanceled  = "canceled"  // 499: request canceled by the client
	KindDeadline  = "deadline"  // 504: evaluation deadline exceeded
	KindPanic     = "panic"     // 500: evaluation panic (state untouched)
	KindInternal  = "internal"  // 500: server-side storage failure
	KindDraining  = "draining"  // 503: server is shutting down
	KindTransport = "transport" // client-side: malformed response
	// KindSlowConsumer ends a subscription stream whose consumer could
	// not keep up with the commit rate (the server-side buffer
	// overflowed); resubscribe with a larger SubscribeRequest.Buffer or
	// drain faster.
	KindSlowConsumer = "slow_consumer"
)

// ErrorResponse is the JSON body of every non-2xx data-plane response.
type ErrorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
	// Conflict payload (Kind == KindConflict): the first conflicting
	// predicate, the retry count, and both footprints.
	Pred    string         `json:"pred,omitempty"`
	Retries int            `json:"retries,omitempty"`
	Mine    *FootprintJSON `json:"mine,omitempty"`
	Theirs  *FootprintJSON `json:"theirs,omitempty"`
	// Budget payload (Kind == KindBudget): the exhausted axis.
	Axis string `json:"axis,omitempty"`
}
