package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"logres/client"
	"logres/internal/obs"

	"crypto/rand"
	"encoding/hex"
	"strings"
)

// Request-scoped observability: every data-plane request gets an
// obs.Span minted from (or issued to) the client's W3C traceparent and
// X-Request-ID headers, a registry entry for the /debug/requests
// inspector, and — when profiling is requested or the slow-query log is
// armed — a profile collector fanned into the evaluation's tracer.

// newRequestSpan extracts the request identity from the inbound headers
// or mints one: X-Request-ID is honoured verbatim (bounded, one line),
// traceparent is parsed per W3C trace-context (version-format
// `00-<32 hex>-<16 hex>-<2 hex>`). A missing X-Request-ID falls back to
// the traceparent's parent id, then to a fresh random id.
func newRequestSpan(r *http.Request) *obs.Span {
	traceID, parentID := parseTraceparent(r.Header.Get("traceparent"))
	reqID := sanitizeRequestID(r.Header.Get("X-Request-ID"))
	if reqID == "" {
		reqID = parentID
	}
	if reqID == "" {
		reqID = mintRequestID()
	}
	return obs.NewSpan(reqID, traceID, parentID)
}

// parseTraceparent returns the trace-id and parent-id fields of a
// well-formed traceparent header ("", "" otherwise — a malformed header
// is ignored, never an error).
func parseTraceparent(h string) (traceID, parentID string) {
	parts := strings.Split(h, "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return "", ""
	}
	for _, p := range parts {
		if !isHex(p) {
			return "", ""
		}
	}
	// All-zero trace or parent ids are invalid per the spec.
	if strings.Trim(parts[1], "0") == "" || strings.Trim(parts[2], "0") == "" {
		return "", ""
	}
	return parts[1], parts[2]
}

func isHex(s string) bool {
	for _, r := range s {
		if !(('0' <= r && r <= '9') || ('a' <= r && r <= 'f') || ('A' <= r && r <= 'F')) {
			return false
		}
	}
	return true
}

// sanitizeRequestID bounds a client-supplied request id: printable,
// single-line, at most 128 bytes (ids land in log lines and response
// headers).
func sanitizeRequestID(id string) string {
	if len(id) > 128 {
		id = id[:128]
	}
	for _, r := range id {
		if r < 0x20 || r == 0x7f {
			return ""
		}
	}
	return id
}

// mintRequestID returns a fresh 8-byte random id in hex.
func mintRequestID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "0000000000000001"
	}
	return hex.EncodeToString(buf[:])
}

// requestEntry is one in-flight request in the registry.
type requestEntry struct {
	id    uint64
	span  *obs.Span
	route string
	db    string
}

// requestRegistry tracks in-flight data-plane requests. It is
// lock-cheap by design: the mutex guards only map insert/delete/copy
// (one lock op per request edge), while the per-request live state
// (phase, rounds, retries, budget) lives in the span's atomics and is
// read lock-free.
type requestRegistry struct {
	mu   sync.Mutex
	seq  uint64
	live map[uint64]*requestEntry
}

func newRequestRegistry() *requestRegistry {
	return &requestRegistry{live: map[uint64]*requestEntry{}}
}

func (g *requestRegistry) add(span *obs.Span, route, db string) *requestEntry {
	e := &requestEntry{span: span, route: route, db: db}
	g.mu.Lock()
	g.seq++
	e.id = g.seq
	g.live[e.id] = e
	g.mu.Unlock()
	return e
}

func (g *requestRegistry) remove(e *requestEntry) {
	g.mu.Lock()
	delete(g.live, e.id)
	g.mu.Unlock()
}

// snapshot returns the in-flight entries in arrival order.
func (g *requestRegistry) snapshot() []*requestEntry {
	g.mu.Lock()
	out := make([]*requestEntry, 0, len(g.live))
	for _, e := range g.live {
		out = append(out, e)
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// RequestInfo is one /debug/requests line: an in-flight request's
// identity, what it is doing, and how much it has consumed.
type RequestInfo struct {
	ID      string `json:"id"`
	TraceID string `json:"trace_id,omitempty"`
	Route   string `json:"route"`
	DB      string `json:"db,omitempty"`
	// Phase is what the request is doing right now ("decode", "eval",
	// "commit", "backoff", "wal", "stream").
	Phase     string `json:"phase"`
	ElapsedNS int64  `json:"elapsed_ns"`
	// Rounds/Facts/Retries are the live evaluation counters; Budget is
	// the largest budget-axis consumption observed so far.
	Rounds  int64 `json:"rounds,omitempty"`
	Facts   int64 `json:"facts,omitempty"`
	Retries int64 `json:"retries,omitempty"`
	Budget  int64 `json:"budget,omitempty"`
}

// inflightRequests renders the registry for /debug/requests and for
// Shutdown's drain report.
func (g *requestRegistry) inflightRequests(now time.Time) []RequestInfo {
	entries := g.snapshot()
	out := make([]RequestInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, RequestInfo{
			ID:        e.span.RequestID,
			TraceID:   e.span.TraceID,
			Route:     e.route,
			DB:        e.db,
			Phase:     e.span.Phase(),
			ElapsedNS: now.Sub(e.span.Start).Nanoseconds(),
			Rounds:    e.span.Rounds(),
			Facts:     e.span.Facts(),
			Retries:   e.span.Retries(),
			Budget:    e.span.BudgetUsed(),
		})
	}
	return out
}

// describe summarizes the in-flight requests in one line, for the
// drain-timeout error ("exec id=4f12 db=bench phase=eval elapsed=1.2s").
func (g *requestRegistry) describe(now time.Time) string {
	infos := g.inflightRequests(now)
	if len(infos) == 0 {
		return ""
	}
	var b strings.Builder
	for i, ri := range infos {
		if i > 0 {
			b.WriteString(", ")
		}
		fmtElapsed := time.Duration(ri.ElapsedNS).Round(time.Millisecond)
		b.WriteString(ri.Route + " id=" + ri.ID)
		if ri.DB != "" {
			b.WriteString(" db=" + ri.DB)
		}
		b.WriteString(" phase=" + ri.Phase + " elapsed=" + fmtElapsed.String())
	}
	return b.String()
}

// handleDebugRequests serves GET /debug/requests: the in-flight request
// inspector.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Requests []RequestInfo `json:"requests"`
	}{s.requests.inflightRequests(time.Now())})
}

// slowLog is the slow-query JSONL log: requests whose handler ran
// longer than the threshold are recorded with their identity and full
// profile. When armed it forces profile collection for every data-plane
// request, so an offender's record always carries the profile of the
// actual slow execution (a post-hoc re-run would not reproduce it).
type slowLog struct {
	threshold time.Duration
	mu        sync.Mutex
	w         io.Writer
}

func (l *slowLog) armed() bool { return l != nil && l.threshold > 0 && l.w != nil }

// slowQueryRecord is one slow-query JSONL line.
type slowQueryRecord struct {
	Time      string          `json:"time"`
	RequestID string          `json:"request_id"`
	TraceID   string          `json:"trace_id,omitempty"`
	Route     string          `json:"route"`
	DB        string          `json:"db,omitempty"`
	Status    int             `json:"status"`
	ElapsedNS int64           `json:"elapsed_ns"`
	Profile   *client.Profile `json:"profile,omitempty"`
}

func (l *slowLog) maybeLog(span *obs.Span, route, db string, status int, elapsed time.Duration) {
	if !l.armed() || elapsed < l.threshold {
		return
	}
	rec := slowQueryRecord{
		Time:      time.Now().UTC().Format(time.RFC3339Nano),
		RequestID: span.RequestID,
		TraceID:   span.TraceID,
		Route:     route,
		DB:        db,
		Status:    status,
		ElapsedNS: elapsed.Nanoseconds(),
	}
	if col := span.Collector(); col != nil {
		p := col.Profile(elapsed)
		p.RequestID, p.TraceID = span.RequestID, span.TraceID
		rec.Profile = profileJSON(p)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = l.w.Write(append(line, '\n'))
}

// profileJSON converts the engine's profile into the wire form (the
// client package cannot depend on internal/obs, so the shape is
// mirrored field by field).
func profileJSON(p *obs.Profile) *client.Profile {
	if p == nil {
		return nil
	}
	out := &client.Profile{
		RequestID:     p.RequestID,
		TraceID:       p.TraceID,
		WallNS:        p.WallNS,
		EvalNS:        p.EvalNS,
		Rounds:        p.Rounds,
		Firings:       p.Firings,
		Facts:         p.Facts,
		Retries:       p.Retries,
		BackoffNS:     p.BackoffNS,
		CommitPath:    p.CommitPath,
		Audit:         p.Audit,
		WALAppends:    p.WALAppends,
		WALBytes:      p.WALBytes,
		WALSyncs:      p.WALSyncs,
		WALSyncWaitNS: p.WALSyncWaitNS,
		Abort:         p.Abort,
	}
	for _, st := range p.Strata {
		ws := client.StratumProfile{
			Stratum:    st.Stratum,
			Mode:       st.Mode,
			Vectorized: st.Vectorized,
			Reason:     st.Reason,
			Rounds:     st.Rounds,
			WallNS:     st.WallNS,
			Firings:    st.Firings,
			Delta:      st.Delta,
			Facts:      st.Facts,
		}
		for _, k := range st.Kernels {
			ws.Kernels = append(ws.Kernels, client.KernelProfile{Kernel: k.Kernel, Calls: k.Calls, Rows: k.Rows})
		}
		out.Strata = append(out.Strata, ws)
	}
	for _, c := range p.Conflicts {
		out.Conflicts = append(out.Conflicts, client.ConflictProfile{Attempt: c.Attempt, Pred: c.Pred, Footprints: c.Footprints})
	}
	return out
}

// handleHealthz is the liveness probe: the process is up and serving.
// It answers while draining (liveness must not fail a shutting-down
// instance — that is readiness's job).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

// handleReadyz is the readiness probe: 200 only when the server accepts
// data-plane traffic — false while draining and false until startup
// recovery of the data directory (OpenDataDir) has finished replaying.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	ready := s.ready.Load() && !draining
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, struct {
		Ready      bool `json:"ready"`
		Draining   bool `json:"draining"`
		Recovering bool `json:"recovering"`
	}{ready, draining, !s.ready.Load()})
}
