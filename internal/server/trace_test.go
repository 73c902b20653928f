package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"logres/client"
	"logres/internal/hooks"
)

func TestParseTraceparent(t *testing.T) {
	cases := []struct {
		in            string
		trace, parent string
	}{
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
			"0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331"},
		{"", "", ""},
		{"garbage", "", ""},
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331", "", ""},    // 3 fields
		{"00-0af7651916cd43dd8448eb211c80319-b7ad6b7169203331-01", "", ""},  // short trace id
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333x-01", "", ""}, // non-hex
		{"00-00000000000000000000000000000000-b7ad6b7169203331-01", "", ""}, // zero trace id
		{"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", "", ""}, // zero parent id
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", "", ""},
	}
	for _, c := range cases {
		trace, parent := parseTraceparent(c.in)
		if trace != c.trace || parent != c.parent {
			t.Errorf("parseTraceparent(%q) = %q, %q; want %q, %q", c.in, trace, parent, c.trace, c.parent)
		}
	}
}

// TestRequestIDEcho: the server adopts the client's request identity and
// echoes it; without headers it mints one.
func TestRequestIDEcho(t *testing.T) {
	_, ts, _ := newTestServer(t)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/db", nil)
	req.Header.Set("traceparent", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	req.Header.Set("X-Request-ID", "my-req-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "my-req-7" {
		t.Fatalf("X-Request-ID echo = %q, want my-req-7", got)
	}

	// No X-Request-ID: the traceparent's parent id stands in.
	req, _ = http.NewRequest("GET", ts.URL+"/v1/db", nil)
	req.Header.Set("traceparent", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "b7ad6b7169203331" {
		t.Fatalf("X-Request-ID from traceparent = %q, want b7ad6b7169203331", got)
	}

	// No headers at all: the server mints an id.
	resp, err = http.Get(ts.URL + "/v1/db")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Fatalf("minted X-Request-ID = %q, want 16 hex chars", got)
	}
}

// TestClientStampsTraceHeaders: the Go client sends a well-formed
// traceparent whose span id doubles as X-Request-ID.
func TestClientStampsTraceHeaders(t *testing.T) {
	var gotTP, gotID string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTP = r.Header.Get("traceparent")
		gotID = r.Header.Get("X-Request-ID")
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"databases":[]}`))
	}))
	defer ts.Close()
	if _, err := client.New(ts.URL).List(context.Background()); err != nil {
		t.Fatal(err)
	}
	trace, parent := parseTraceparent(gotTP)
	if trace == "" || parent == "" {
		t.Fatalf("client traceparent %q did not parse", gotTP)
	}
	if gotID != parent {
		t.Fatalf("X-Request-ID %q != traceparent parent id %q", gotID, parent)
	}
}

// TestExecProfileRetries is the conflict half of the acceptance
// criterion: a forced conflict retry shows up in the returned profile
// with the conflicting footprints, and the retry count matches the
// metrics delta.
func TestExecProfileRetries(t *testing.T) {
	s, _, c := newTestServer(t)
	ctx := context.Background()
	mustCreate(t, c, "db", nil)

	s.mu.RLock()
	db := s.dbs["db"]
	s.mu.RUnlock()
	var mu sync.Mutex
	injected := 0
	hooks.ConcurrentPreCommit = func(int) {
		mu.Lock()
		defer mu.Unlock()
		if injected == 0 {
			injected++
			execLocked(t, db, "mode ridv.\nrules p(x: 99).\nend.\n")
		}
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()

	retriesBefore := s.metrics.Counter("logres_module_retries_total").Value()
	res, err := c.ExecRequest(ctx, "db", client.ExecRequest{
		Module:  "mode ridv.\nrules p(x: 1).\nend.\n",
		Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p == nil {
		t.Fatal("Profile: true returned no profile")
	}
	if p.RequestID == "" || p.TraceID == "" {
		t.Fatalf("profile identity = %q/%q, want non-empty", p.RequestID, p.TraceID)
	}
	if p.Retries != 1 || len(p.Conflicts) != 1 {
		t.Fatalf("profile retries = %d, conflicts = %d, want 1/1", p.Retries, len(p.Conflicts))
	}
	if p.BackoffNS <= 0 {
		t.Fatalf("profile backoff = %d, want > 0", p.BackoffNS)
	}
	if !strings.Contains(p.Conflicts[0].Footprints, "mine:") {
		t.Fatalf("conflict footprints = %q", p.Conflicts[0].Footprints)
	}
	if delta := s.metrics.Counter("logres_module_retries_total").Value() - retriesBefore; delta != int64(p.Retries) {
		t.Fatalf("metrics retries delta = %d, profile = %d", delta, p.Retries)
	}
	// The strata describe the committed attempt, not the aborted one.
	if len(p.Strata) == 0 || p.Rounds == 0 {
		t.Fatalf("profile strata/rounds = %d/%d, want all > 0", len(p.Strata), p.Rounds)
	}
	if p.WallNS <= 0 || p.EvalNS <= 0 || p.WallNS < p.EvalNS {
		t.Fatalf("profile wall/eval = %d/%d", p.WallNS, p.EvalNS)
	}
	if p.CommitPath == "" {
		t.Fatal("profile commit path empty")
	}
}

// TestExecProfileWAL is the durability half of the acceptance
// criterion: on a durable database the profile's WAL appends, bytes,
// and sync waits match the server metrics deltas for the same exec.
func TestExecProfileWAL(t *testing.T) {
	s := New(Options{DataDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	mustCreate(t, c, "db", nil)

	m := s.metrics
	appendsBefore := m.Counter("logres_wal_appends_total").Value()
	bytesBefore := m.Counter("logres_wal_bytes_total").Value()
	syncsBefore := m.Counter("logres_wal_fsyncs_total").Value()

	res, err := c.ExecRequest(ctx, "db", client.ExecRequest{
		Module:  "mode ridv.\nrules p(x: 1).\nend.\n",
		Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p == nil {
		t.Fatal("no profile")
	}
	if p.WALAppends == 0 || p.WALBytes == 0 || p.WALSyncs == 0 {
		t.Fatalf("profile WAL = appends %d bytes %d syncs %d, want all > 0", p.WALAppends, p.WALBytes, p.WALSyncs)
	}
	if p.WALSyncWaitNS <= 0 {
		t.Fatalf("profile WAL sync wait = %d, want > 0", p.WALSyncWaitNS)
	}
	if d := m.Counter("logres_wal_appends_total").Value() - appendsBefore; d != int64(p.WALAppends) {
		t.Fatalf("wal appends delta = %d, profile = %d", d, p.WALAppends)
	}
	if d := m.Counter("logres_wal_bytes_total").Value() - bytesBefore; d != p.WALBytes {
		t.Fatalf("wal bytes delta = %d, profile = %d", d, p.WALBytes)
	}
	if d := m.Counter("logres_wal_fsyncs_total").Value() - syncsBefore; d != int64(p.WALSyncs) {
		t.Fatalf("wal fsyncs delta = %d, profile = %d", d, p.WALSyncs)
	}
}

// TestQueryProfileTrailer: QueryProfile returns the per-stratum profile
// in the NDJSON trailer.
func TestQueryProfileTrailer(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	mustCreate(t, c, "db", nil)
	if _, err := c.Exec(ctx, "db", "mode ridv.\nrules p(x: 1).\nend.\n"); err != nil {
		t.Fatal(err)
	}

	ans, p, err := c.QueryProfile(ctx, "db", "?- p(x: X).")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 1 {
		t.Fatalf("rows = %d", len(ans.Rows))
	}
	if p == nil {
		t.Fatal("no trailer profile")
	}
	if p.RequestID == "" || p.Rounds == 0 || len(p.Strata) == 0 {
		t.Fatalf("trailer profile = %+v", p)
	}
	// A query commits nothing.
	if p.Retries != 0 || p.WALAppends != 0 {
		t.Fatalf("query profile carries write-side work: %+v", p)
	}
}

// TestProfileNotReturnedUnlessAsked: a plain exec response carries no
// profile.
func TestProfileNotReturnedUnlessAsked(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	mustCreate(t, c, "db", nil)
	res, err := c.Exec(ctx, "db", "mode ridv.\nrules p(x: 1).\nend.\n")
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != nil {
		t.Fatalf("unrequested profile = %+v", res.Profile)
	}
}

// TestHealthzReadyzDraining: liveness stays 200 through a drain;
// readiness flips to 503 as soon as draining starts.
func TestHealthzReadyzDraining(t *testing.T) {
	s, ts, _ := newTestServer(t)

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d", code)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Draining: liveness still answers (the process is up), readiness
	// reports the instance out of rotation.
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while draining = %d", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", code)
	}
	var body struct {
		Ready    bool `json:"ready"`
		Draining bool `json:"draining"`
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.Ready || !body.Draining {
		t.Fatalf("readyz body = %+v", body)
	}
}

// TestReadyzDurableRecovery: a durable server is not ready until
// OpenDataDir finished replaying.
func TestReadyzDurableRecovery(t *testing.T) {
	s := New(Options{DataDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before recovery = %d, want 503", resp.StatusCode)
	}

	if _, err := s.OpenDataDir(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery = %d, want 200", resp.StatusCode)
	}
}

// TestDebugRequestsInspector: an in-flight exec is visible on
// /debug/requests with its identity, route, database, and phase.
func TestDebugRequestsInspector(t *testing.T) {
	_, ts, c := newTestServer(t)
	ctx := context.Background()
	mustCreate(t, c, "db", nil)

	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	hooks.ConcurrentPreCommit = func(int) {
		once.Do(func() { close(entered) })
		<-release
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()

	execDone := make(chan error, 1)
	go func() {
		_, err := c.Exec(ctx, "db", "mode ridv.\nrules p(x: 1).\nend.\n")
		execDone <- err
	}()
	<-entered

	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Requests []RequestInfo `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var exec *RequestInfo
	for i := range body.Requests {
		if body.Requests[i].Route == "exec" {
			exec = &body.Requests[i]
		}
	}
	if exec == nil {
		t.Fatalf("no exec request in %+v", body.Requests)
	}
	if exec.ID == "" || exec.DB != "db" || exec.ElapsedNS <= 0 {
		t.Fatalf("exec request = %+v", exec)
	}
	// The hook holds the apply between evaluation and commit.
	if exec.Phase != "eval" {
		t.Fatalf("exec phase = %q, want eval", exec.Phase)
	}
	if exec.Rounds == 0 {
		t.Fatalf("exec rounds = %d, want > 0", exec.Rounds)
	}

	close(release)
	if err := <-execDone; err != nil {
		t.Fatal(err)
	}

	// Finished requests leave the registry.
	resp, err = http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	body.Requests = nil
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, ri := range body.Requests {
		if ri.Route == "exec" {
			t.Fatalf("finished exec still registered: %+v", ri)
		}
	}
}

// TestShutdownDrainReport: when the grace period expires the error
// names the requests the drain was stuck on, and errors.Is still
// identifies the deadline.
func TestShutdownDrainReport(t *testing.T) {
	s, _, c := newTestServer(t)
	ctx := context.Background()
	mustCreate(t, c, "db", nil)

	entered := make(chan struct{})
	var once sync.Once
	hooks.ConcurrentPreCommit = func(int) {
		once.Do(func() { close(entered) })
		<-s.forceCtx.Done()
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()

	execDone := make(chan error, 1)
	go func() {
		_, err := c.Exec(ctx, "db", "mode ridv.\nrules p(x: 1).\nend.\n")
		execDone <- err
	}()
	<-entered

	grace, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := s.Shutdown(grace)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "exec") || !strings.Contains(msg, "db=db") || !strings.Contains(msg, "phase=") {
		t.Fatalf("drain report %q does not name the stuck request", msg)
	}
	select {
	case <-execDone:
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight apply never unwound")
	}
}

// TestSlowQueryLog: an armed slow-query log records offenders as JSONL
// with identity and profile; fast requests are not logged.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	s := New(Options{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: w})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	mustCreate(t, c, "db", nil)
	if _, err := c.Exec(ctx, "db", "mode ridv.\nrules p(x: 1).\nend.\n"); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	// Threshold 1ns: both the create and the exec are offenders.
	if len(lines) < 2 {
		t.Fatalf("slow log lines = %d, want >= 2", len(lines))
	}
	var found bool
	for _, line := range lines {
		var rec struct {
			RequestID string          `json:"request_id"`
			Route     string          `json:"route"`
			DB        string          `json:"db"`
			Status    int             `json:"status"`
			ElapsedNS int64           `json:"elapsed_ns"`
			Profile   *client.Profile `json:"profile"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("slow log line %q: %v", line, err)
		}
		if rec.Route != "exec" {
			continue
		}
		found = true
		if rec.RequestID == "" || rec.DB != "db" || rec.Status != http.StatusOK || rec.ElapsedNS <= 0 {
			t.Fatalf("slow log record = %+v", rec)
		}
		// Arming the log forces collection, so the record carries the
		// actual slow execution's profile even though the request did
		// not ask for one.
		if rec.Profile == nil || rec.Profile.Rounds == 0 {
			t.Fatalf("slow log profile = %+v", rec.Profile)
		}
	}
	if !found {
		t.Fatalf("no exec record in slow log: %v", lines)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
