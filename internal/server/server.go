// Package server implements the logres-server HTTP/JSON data plane: a
// registry of named databases, module application over the optimistic
// concurrent path, streamed query answers, and the typed error mapping
// that puts every engine failure mode on the wire (see errors.go). The
// observability mux (/metrics, /debug/vars, /debug/pprof) is mounted
// beside the data plane so one listener serves both.
//
// Concurrency model: requests are handled on the standard library's
// per-connection goroutines; module applications go through
// ApplyContext, so requests touching disjoint predicates
// evaluate in parallel and only serialize for the commit critical
// section. Graceful shutdown drains in-flight applications (Shutdown),
// falling back to context cancellation when the grace period expires —
// the engine's all-or-nothing abort guarantees a canceled application
// leaves no partial state.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"logres"
	"logres/client"
	"logres/internal/obs"
)

// DefaultQueryChunkSize bounds the rows per streamed query chunk when
// the request does not choose one.
const DefaultQueryChunkSize = 256

// Options configures a Server.
type Options struct {
	// Metrics is the shared registry every database and the HTTP layer
	// record into, served on /metrics; nil creates a fresh one.
	Metrics *logres.Metrics
	// QueryChunkSize overrides DefaultQueryChunkSize (<= 0 keeps it).
	QueryChunkSize int
	// DataDir, when set, makes every database durable: each lives in
	// its own subdirectory (snapshot + write-ahead log), creates persist
	// across restarts, and OpenDataDir recovers the whole registry at
	// startup. Empty keeps databases in memory.
	DataDir string
	// Fsync, FsyncInterval, and CompactEvery configure the WAL of every
	// durable database (logres.Durability); zero values keep the
	// defaults (fsync on every append, compact every 4096 records).
	Fsync         logres.FsyncPolicy
	FsyncInterval time.Duration
	CompactEvery  int
	// SlowQueryThreshold arms the slow-query log: any data-plane request
	// whose handler runs at least this long is recorded as one JSONL line
	// (request id, route, database, status, elapsed, full profile) on
	// SlowQueryLog. Zero disables; arming forces profile collection on
	// every data-plane request so the offender's record describes the
	// actual slow execution.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives the slow-query JSONL records (required for
	// SlowQueryThreshold to take effect); writes are serialized.
	SlowQueryLog io.Writer
}

// ErrExists reports a create against a name that is already
// registered; errors.Is identifies it through the wrapped form.
var ErrExists = errors.New("database already exists")

// Server is the data-plane handler plus the database registry.
type Server struct {
	metrics   *logres.Metrics
	chunkSize int
	mux       *http.ServeMux

	dataDir       string
	fsync         logres.FsyncPolicy
	fsyncInterval time.Duration
	compactEvery  int

	mu  sync.RWMutex
	dbs map[string]*logres.Database

	// draining rejects new data-plane requests with 503 once shutdown
	// starts; inflight tracks the requests already past that gate.
	draining atomic.Bool
	inflight sync.WaitGroup
	// ready gates /readyz: false until the data directory (when the
	// server has one) finished startup recovery via OpenDataDir.
	ready atomic.Bool
	// forceCtx is canceled when the shutdown grace period expires,
	// aborting in-flight evaluations through their contexts.
	forceCtx    context.Context
	forceCancel context.CancelFunc
	// subsCtx is canceled the moment shutdown starts: live subscription
	// streams are open-ended, so they end at drain entry (not at grace
	// expiry) or Shutdown's inflight wait could never finish.
	subsCtx    context.Context
	subsCancel context.CancelFunc

	// requests is the in-flight request registry behind /debug/requests
	// and Shutdown's drain report; slow is the slow-query JSONL log.
	requests *requestRegistry
	slow     *slowLog
}

// New builds a server with an empty registry.
func New(opts Options) *Server {
	m := opts.Metrics
	if m == nil {
		m = logres.NewMetrics()
	}
	chunk := opts.QueryChunkSize
	if chunk <= 0 {
		chunk = DefaultQueryChunkSize
	}
	ctx, cancel := context.WithCancel(context.Background())
	subsCtx, subsCancel := context.WithCancel(context.Background())
	s := &Server{
		metrics:       m,
		chunkSize:     chunk,
		dataDir:       opts.DataDir,
		fsync:         opts.Fsync,
		fsyncInterval: opts.FsyncInterval,
		compactEvery:  opts.CompactEvery,
		dbs:           map[string]*logres.Database{},
		forceCtx:      ctx,
		forceCancel:   cancel,
		subsCtx:       subsCtx,
		subsCancel:    subsCancel,
		requests:      newRequestRegistry(),
		slow:          &slowLog{threshold: opts.SlowQueryThreshold, w: opts.SlowQueryLog},
	}
	// An in-memory server is ready immediately; a durable one becomes
	// ready when OpenDataDir finishes replaying its databases.
	s.ready.Store(opts.DataDir == "")
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Handler returns the combined data-plane + observability handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the shared registry (databases created through the
// API record into it; preloaded databases should be opened with
// logres.WithMetrics(s.Metrics()) to share it).
func (s *Server) Metrics() *logres.Metrics { return s.metrics }

// Add registers a preloaded database (a snapshot or schema the daemon
// opened before serving) under name.
func (s *Server) Add(name string, db *logres.Database) error {
	if err := validateDBName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.dbs[name]; ok {
		return fmt.Errorf("server: database %q already exists", name)
	}
	s.dbs[name] = db
	return nil
}

// Create opens a database over schema and registers it under name —
// durably, into its own subdirectory of the data directory, when the
// server has one. It is the programmatic form of PUT /v1/db/{name};
// the daemon's preload path shares it so a preloaded database gets the
// same durability as API-created ones. A taken name fails with a
// wrapped ErrExists. The registry lock is held across the store
// creation so two racing creates of one name cannot both claim its
// directory.
func (s *Server) Create(name, schema string, opts ...logres.Option) (*logres.Database, error) {
	if err := validateDBName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.dbs[name]; ok {
		return nil, fmt.Errorf("server: database %q: %w", name, ErrExists)
	}
	var (
		db  *logres.Database
		err error
	)
	if s.dataDir != "" {
		db, _, err = logres.OpenDurable(schema, s.durability(name), opts...)
	} else {
		db, err = logres.Open(schema, opts...)
	}
	if err != nil {
		return nil, err
	}
	s.dbs[name] = db
	return db, nil
}

// durability is the per-database durable configuration: one
// subdirectory of the data dir, the server-wide WAL knobs.
func (s *Server) durability(name string) logres.Durability {
	return logres.Durability{
		Dir:           filepath.Join(s.dataDir, name),
		Fsync:         s.fsync,
		FsyncInterval: s.fsyncInterval,
		CompactEvery:  s.compactEvery,
	}
}

// OpenDataDir opens or recovers every database persisted under the
// server's data directory, registering each subdirectory under its
// name, and returns the recovered names sorted. Directories parked by
// a drop (name.dropped.<nanos>) and entries that are not valid
// database names are skipped. Per-database recovery detail — replayed
// records, a quarantined torn tail — is exposed on GET /v1/db/{name}.
// A no-op without a data directory.
func (s *Server) OpenDataDir(opts ...logres.Option) ([]string, error) {
	if s.dataDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(s.dataDir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(s.dataDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || strings.Contains(name, ".dropped.") || validateDBName(name) != nil {
			continue
		}
		all := append([]logres.Option{logres.WithMetrics(s.metrics)}, opts...)
		db, _, err := logres.OpenDurable("", s.durability(name), all...)
		if err != nil {
			return names, fmt.Errorf("server: recovering database %q: %w", name, err)
		}
		s.mu.Lock()
		s.dbs[name] = db
		s.mu.Unlock()
		names = append(names, name)
	}
	sort.Strings(names)
	// Recovery is complete: the server may now pass readiness probes.
	// On the error return above the flag stays false — /readyz keeps
	// reporting the instance as recovering.
	s.ready.Store(true)
	return names, nil
}

// Shutdown drains the server: new data-plane requests get 503, and the
// call blocks until every in-flight request finished. When ctx expires
// first, in-flight evaluations are canceled through their contexts (the
// engine aborts between rounds with a *CanceledError and state
// untouched) and Shutdown still waits for the handlers to unwind.
// Once drained, every durable database's WAL is flushed to stable
// storage, so interval- and off-policy databases lose nothing on a
// clean shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Subscriptions end now, not at grace expiry: their handlers count
	// toward the in-flight drain but would otherwise stream forever.
	s.subsCancel()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Name what the drain is stuck on before force-canceling: the
		// registry still holds the in-flight requests at this instant,
		// with their live phase and elapsed time.
		waiting := s.requests.describe(time.Now())
		s.forceCancel()
		<-done
		err = ctx.Err()
		if waiting != "" {
			err = fmt.Errorf("server: shutdown grace expired waiting on %s: %w", waiting, ctx.Err())
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, db := range s.dbs {
		if serr := db.Sync(); serr != nil && err == nil {
			err = fmt.Errorf("server: syncing database %q: %w", name, serr)
		}
	}
	return err
}

// routes wires the data plane and mounts the observability mux beside
// it. Observability routes are GET/HEAD-only (obs.NewServeMux guards
// them), so the combined mux has no method ambiguity.
func (s *Server) routes() {
	s.mux.Handle("GET /v1/db", s.dataPlane("list", s.handleList))
	s.mux.Handle("PUT /v1/db/{name}", s.dataPlane("create", s.handleCreate))
	s.mux.Handle("GET /v1/db/{name}", s.dataPlane("info", s.handleInfo))
	s.mux.Handle("DELETE /v1/db/{name}", s.dataPlane("drop", s.handleDrop))
	s.mux.Handle("POST /v1/db/{name}/exec", s.dataPlane("exec", s.handleExec))
	s.mux.Handle("POST /v1/db/{name}/query", s.dataPlane("query", s.handleQuery))
	s.mux.Handle("GET /v1/db/{name}/instance", s.dataPlane("instance", s.handleInstance))
	s.mux.Handle("POST /v1/db/{name}/register", s.dataPlane("register", s.handleRegister))
	s.mux.Handle("POST /v1/db/{name}/subscribe", s.dataPlane("subscribe", s.handleSubscribe))

	obsMux := obs.NewServeMux(s.metrics)
	s.mux.Handle("/metrics", obsMux)
	s.mux.Handle("/debug/", obsMux)
	// More specific than the obs mux's /debug/ subtree, so the standard
	// mux routes it here.
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)

	// Probes bypass the data-plane middleware: liveness must answer
	// while draining, and neither should mint spans or count toward the
	// drain.
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
}

// dataPlane wraps one route handler with the shared request plumbing:
// the draining gate, in-flight tracking for Shutdown, the force-cancel
// context merge, request identity (traceparent / X-Request-ID → span →
// context), the in-flight registry, the slow-query log, and per-route
// request/latency/status metrics.
func (s *Server) dataPlane(route string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			// The hint tells retrying clients (client.WithDrainingRetries)
			// how long to back off before trying a peer or the restarted
			// instance.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				client.ErrorResponse{Error: "server is shutting down", Kind: client.KindDraining})
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Done()

		// The evaluation context is the request's, additionally canceled
		// when the shutdown grace period expires.
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		stop := context.AfterFunc(s.forceCtx, cancel)
		defer stop()

		// Request identity: adopt the client's trace context or mint one,
		// and carry it as a span so every engine event this request causes
		// (rounds, kernels, retries, WAL waits) is attributable to it. The
		// id is echoed back so a client that did not send one can still
		// correlate with server logs. An armed slow-query log needs the
		// profile of every request up front — a slow one cannot be
		// re-profiled after the fact.
		span := newRequestSpan(r)
		if s.slow.armed() || r.URL.Query().Get("profile") == "1" {
			span.EnableProfile()
		}
		ctx = obs.ContextWithSpan(ctx, span)
		r = r.WithContext(ctx)
		w.Header().Set("X-Request-ID", span.RequestID)

		entry := s.requests.add(span, route, r.PathValue("name"))
		defer s.requests.remove(entry)

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		elapsed := time.Since(start)
		s.metrics.Counter(fmt.Sprintf("logres_http_requests_total{route=%q}", route)).Add(1)
		s.metrics.Counter(fmt.Sprintf("logres_http_responses_total{route=%q,code=\"%d\"}", route, rec.status)).Add(1)
		s.metrics.Histogram(fmt.Sprintf("logres_http_request_duration_ns{route=%q}", route)).
			Observe(elapsed.Nanoseconds())
		s.slow.maybeLog(span, route, r.PathValue("name"), rec.status, elapsed)
	})
}

// statusRecorder captures the response status for metrics while
// preserving the Flusher the streaming handlers need.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ---------------------------------------------------------------------------
// Registry handlers.
// ---------------------------------------------------------------------------

func validateDBName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("server: database name must be 1-128 characters")
	}
	// Names become data-directory components for durable servers, so
	// the path-traversal names are rejected even though '/' already is.
	if name == "." || name == ".." {
		return fmt.Errorf("server: database name %q is reserved", name)
	}
	for _, r := range name {
		if !(r == '-' || r == '_' || r == '.' ||
			('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9')) {
			return fmt.Errorf("server: database name %q contains %q; allowed: letters, digits, '-', '_', '.'", name, r)
		}
	}
	return nil
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*logres.Database, bool) {
	name := r.PathValue("name")
	s.mu.RLock()
	db, ok := s.dbs[name]
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound,
			client.ErrorResponse{Error: fmt.Sprintf("no database %q", name), Kind: client.KindNotFound})
		return nil, false
	}
	return db, true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.dbs))
	for name := range s.dbs {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, client.ListResponse{Databases: names})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validateDBName(name); err != nil {
		writeError(w, http.StatusBadRequest, client.ErrorResponse{Error: err.Error(), Kind: client.KindInvalid})
		return
	}
	var req client.CreateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	opts := []logres.Option{logres.WithMetrics(s.metrics)}
	if o := req.Options; o != nil {
		if o.MaxRetries != 0 {
			opts = append(opts, logres.WithMaxRetries(o.MaxRetries))
		}
		if b := o.Budget; b != nil {
			opts = append(opts, logres.WithBudget(logres.Budget{
				MaxRounds: b.MaxRounds,
				MaxFacts:  b.MaxFacts,
				MaxOIDs:   b.MaxOIDs,
				Timeout:   b.Timeout(),
			}))
		}
		if o.Incremental {
			opts = append(opts, logres.WithIncremental(true))
		}
	}
	db, err := s.Create(name, req.Schema, opts...)
	if err != nil {
		if errors.Is(err, ErrExists) {
			writeError(w, http.StatusConflict,
				client.ErrorResponse{Error: fmt.Sprintf("database %q already exists", name), Kind: client.KindExists})
			return
		}
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.info(name, db))
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	db, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.info(r.PathValue("name"), db))
}

func (s *Server) info(name string, db *logres.Database) client.DBInfo {
	info := client.DBInfo{
		Name:        name,
		Epoch:       db.CommitEpoch(),
		Rules:       db.RuleCount(),
		Modules:     db.Modules(),
		Schema:      db.Schema(),
		Incremental: db.Incremental(),
	}
	if st, ok := db.Durability(); ok {
		info.Durability = &client.DurabilityInfo{
			Fsync:           st.Fsync.String(),
			Epoch:           st.Epoch,
			CheckpointEpoch: st.CheckpointEpoch,
			WALRecords:      st.WALRecords,
			WALBytes:        st.WALBytes,
		}
	}
	if rec := db.Recovery(); rec != nil {
		ri := &client.RecoveryInfo{
			SnapshotEpoch: rec.SnapshotEpoch,
			Epoch:         rec.Epoch,
			Replayed:      rec.Replayed,
			BadSnapshots:  rec.BadSnapshots,
		}
		if rec.Tail != nil {
			ri.TornTail = rec.Tail.Error()
		}
		info.Recovery = ri
	}
	return info
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	db, ok := s.dbs[name]
	delete(s.dbs, name)
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound,
			client.ErrorResponse{Error: fmt.Sprintf("no database %q", name), Kind: client.KindNotFound})
		return
	}
	// A durable database's directory is parked, not deleted: the WAL is
	// closed and the directory renamed aside under a timestamped name,
	// so the drop frees the name immediately while an operator can
	// still salvage the data.
	if st, durable := db.Durability(); durable {
		_ = db.Close()
		parked := fmt.Sprintf("%s.dropped.%d", st.Dir, time.Now().UnixNano())
		if err := os.Rename(st.Dir, parked); err != nil {
			writeError(w, http.StatusInternalServerError,
				client.ErrorResponse{Error: fmt.Sprintf("parking data directory: %v", err), Kind: client.KindInternal})
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---------------------------------------------------------------------------
// Data-plane handlers.
// ---------------------------------------------------------------------------

// modeNames maps wire mode names onto the engine's application modes.
var modeNames = map[string]logres.Mode{
	"RIDI": logres.RIDI, "RADI": logres.RADI, "RDDI": logres.RDDI,
	"RIDV": logres.RIDV, "RADV": logres.RADV, "RDDV": logres.RDDV,
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	db, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req client.ExecRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	m, err := logres.ParseModule(req.Module)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	mode := m.Mode
	if req.Mode != "" {
		parsed, ok := modeNames[strings.ToUpper(req.Mode)]
		if !ok {
			writeError(w, http.StatusBadRequest,
				client.ErrorResponse{Error: fmt.Sprintf("unknown mode %q", req.Mode), Kind: client.KindInvalid})
			return
		}
		mode = parsed
	}
	var callOpts []logres.CallOption
	if req.MaxRetries != 0 {
		callOpts = append(callOpts, logres.WithCallMaxRetries(req.MaxRetries))
	}
	// Profiling must be armed before evaluation starts; the middleware
	// already armed it for ?profile=1 and an armed slow-query log, this
	// covers the request-body flag.
	span := obs.SpanFromContext(r.Context())
	if req.Profile && span != nil {
		span.EnableProfile()
	}
	res, err := db.ApplyContext(r.Context(), m, mode, callOpts...)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	resp := client.ExecResponse{
		Mode:   res.Mode.String(),
		Answer: answerJSON(res.Answer),
		Epoch:  db.CommitEpoch(),
	}
	if wantProfile(req.Profile, r) && span != nil {
		if col := span.Collector(); col != nil {
			p := col.Profile(time.Since(span.Start))
			p.RequestID, p.TraceID = span.RequestID, span.TraceID
			resp.Profile = profileJSON(p)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// wantProfile reports whether the response should carry the profile:
// the request asked in its body or via ?profile=1. (An armed slow-query
// log collects for every request but does not put profiles on the wire
// unasked.)
func wantProfile(bodyFlag bool, r *http.Request) bool {
	return bodyFlag || r.URL.Query().Get("profile") == "1"
}

// handleQuery streams the goal's answer as NDJSON: one QueryHeader
// line, QueryChunk lines of at most chunk_size rows each (flushed as
// they are written, so a client can consume early rows while later
// chunks are still in flight), and a QueryTrailer.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	db, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req client.QueryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.AsOf != 0 {
		// Point-in-time read: reconstruct the committed state at the
		// requested epoch (checkpoint snapshot + WAL prefix) and query
		// that. Epochs behind the compaction horizon or ahead of the
		// present are client errors.
		past, err := db.AsOf(req.AsOf)
		if err != nil {
			writeError(w, http.StatusBadRequest,
				client.ErrorResponse{Error: err.Error(), Kind: client.KindInvalid})
			return
		}
		db = past
	}
	span := obs.SpanFromContext(r.Context())
	if req.Profile && span != nil {
		span.EnableProfile()
	}
	ans, err := db.QueryContext(r.Context(), req.Goal)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	if span != nil {
		span.SetPhase("stream")
	}
	chunk := req.ChunkSize
	if chunk <= 0 {
		chunk = s.chunkSize
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := enc.Encode(client.QueryHeader{Vars: ans.Vars}); err != nil {
		return
	}
	flush()
	rows := renderRows(ans.Rows)
	for start := 0; start < len(rows); start += chunk {
		end := start + chunk
		if end > len(rows) {
			end = len(rows)
		}
		if err := enc.Encode(client.QueryChunk{Rows: rows[start:end]}); err != nil {
			return
		}
		flush()
	}
	trailer := client.QueryTrailer{Done: true, Total: len(rows)}
	if wantProfile(req.Profile, r) && span != nil {
		if col := span.Collector(); col != nil {
			p := col.Profile(time.Since(span.Start))
			p.RequestID, p.TraceID = span.RequestID, span.TraceID
			trailer.Profile = profileJSON(p)
		}
	}
	_ = enc.Encode(trailer)
	flush()
}

// handleInstance streams the derived instance as NDJSON InstanceFact
// lines followed by a QueryTrailer carrying the fact count.
func (s *Server) handleInstance(w http.ResponseWriter, r *http.Request) {
	db, ok := s.lookup(w, r)
	if !ok {
		return
	}
	facts, err := db.Instance()
	if err != nil {
		writeEngineError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for i, f := range facts {
		if err := enc.Encode(client.InstanceFact{Pred: f.Pred, Fact: f.String()}); err != nil {
			return
		}
		// Flush periodically, not per fact: instances can be large.
		if flusher != nil && (i+1)%1024 == 0 {
			flusher.Flush()
		}
	}
	_ = enc.Encode(client.QueryTrailer{Done: true, Total: len(facts)})
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	db, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req client.RegisterRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := db.Register(req.Module); err != nil {
		writeEngineError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSubscribe serves a live view subscription as a long-lived
// NDJSON stream: a SubscribeHeader line pinning the start epoch, then
// one DiffEvent line per state-changing commit, flushed as it lands.
// The stream ends with an {"error": …} line when the server tears the
// subscription down — backpressure disconnect ("slow_consumer") or
// shutdown ("draining") — and silently when the client hangs up.
// Maintenance never ends it.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	db, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req client.SubscribeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	sub, err := db.SubscribeView(logres.SubscribeOptions{Preds: req.Preds, Buffer: req.Buffer})
	if err != nil {
		if errors.Is(err, logres.ErrNotIncremental) {
			writeError(w, http.StatusBadRequest,
				client.ErrorResponse{Error: err.Error(), Kind: client.KindInvalid})
			return
		}
		writeEngineError(w, err)
		return
	}
	defer sub.Close()

	if span := obs.SpanFromContext(r.Context()); span != nil {
		span.SetPhase("stream")
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	writeErrLine := func(resp client.ErrorResponse) {
		_ = enc.Encode(struct {
			Error client.ErrorResponse `json:"error"`
		}{resp})
		flush()
	}
	if err := enc.Encode(client.SubscribeHeader{Epoch: sub.Epoch, Preds: req.Preds}); err != nil {
		return
	}
	flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.subsCtx.Done():
			writeErrLine(client.ErrorResponse{Error: "server is shutting down", Kind: client.KindDraining})
			return
		case d, open := <-sub.C:
			if !open {
				var slow *logres.SlowConsumerError
				if errors.As(sub.Err(), &slow) {
					writeErrLine(client.ErrorResponse{Error: slow.Error(), Kind: client.KindSlowConsumer})
				}
				return
			}
			ev := client.DiffEvent{Epoch: d.Epoch, Adds: diffFacts(d.Adds), Removes: diffFacts(d.Removes)}
			if err := enc.Encode(ev); err != nil {
				return
			}
			flush()
		}
	}
}

// diffFacts renders one side of a ViewDiff for the wire.
func diffFacts(fs []logres.Fact) []client.DiffFact {
	out := make([]client.DiffFact, len(fs))
	for i, f := range fs {
		out[i] = client.DiffFact{Pred: f.Pred, Fact: f.String()}
	}
	return out
}

// ---------------------------------------------------------------------------
// Wire helpers.
// ---------------------------------------------------------------------------

// decodeJSON decodes a request body holding exactly one JSON value into
// v: unknown fields and anything but whitespace after the value are
// rejected with 400 invalid.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("unexpected data after the JSON value")
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest,
			client.ErrorResponse{Error: "malformed request body: " + err.Error(), Kind: client.KindInvalid})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// answerJSON renders an engine answer for the wire: values in LOGRES
// syntax, deterministic row order preserved.
func answerJSON(ans *logres.Answer) *client.Answer {
	if ans == nil {
		return nil
	}
	return &client.Answer{Vars: ans.Vars, Rows: renderRows(ans.Rows)}
}

func renderRows(rows [][]logres.Value) [][]string {
	out := make([][]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = cells
	}
	return out
}
