package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"logres"
	"logres/client"
	"logres/internal/hooks"
)

const testSchema = `associations
  P = (x: integer);
  Q = (x: integer);
`

func newTestServer(t *testing.T) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, client.New(ts.URL)
}

func mustCreate(t *testing.T, c *client.Client, name string, opts *client.DBOptions) {
	t.Helper()
	if err := c.Create(context.Background(), name, testSchema, opts); err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
}

// TestServerLifecycle drives the whole registry + data-plane surface
// through the client: create, list, info, exec, query, instance,
// register, drop, and the not-found paths.
func TestServerLifecycle(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	mustCreate(t, c, "test", nil)

	if names, err := c.List(ctx); err != nil || len(names) != 1 || names[0] != "test" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if err := c.Create(ctx, "test", testSchema, nil); err == nil {
		t.Fatal("duplicate create succeeded")
	} else if apiErr := asAPIError(t, err); apiErr.Status != http.StatusConflict || apiErr.Resp.Kind != client.KindExists {
		t.Fatalf("duplicate create = %v", apiErr)
	}

	res, err := c.Exec(ctx, "test", "mode ridv.\nrules p(x: 1).\nend.\n")
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "RIDV" || res.Epoch == 0 {
		t.Fatalf("exec = %+v", res)
	}
	if _, err := c.Exec(ctx, "test", "mode ridv.\nrules p(x: 2).\nend.\n"); err != nil {
		t.Fatal(err)
	}

	ans, err := c.Query(ctx, "test", "?- p(x: X).")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Vars) != 1 || ans.Vars[0] != "X" || len(ans.Rows) != 2 {
		t.Fatalf("query = %+v", ans)
	}

	// A goal-carrying RIDI exec returns the answer inline.
	res, err = c.ExecRequest(ctx, "test", client.ExecRequest{Module: "goal ?- p(x: X).\nend.\n"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer == nil || len(res.Answer.Rows) != 2 {
		t.Fatalf("goal exec answer = %+v", res.Answer)
	}

	facts, err := c.Instance(ctx, "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 2 {
		t.Fatalf("instance facts = %+v", facts)
	}
	for _, f := range facts {
		if f.Pred != "p" || !strings.HasPrefix(f.Fact, "p(") {
			t.Fatalf("instance fact = %+v", f)
		}
	}

	if err := c.Register(ctx, "test", "module add_q.\nmode ridv.\nrules q(x: 10).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	info, err := c.Info(ctx, "test")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "test" || info.Epoch < 2 || len(info.Modules) != 1 || info.Modules[0] != "add_q" {
		t.Fatalf("info = %+v", info)
	}
	if !strings.Contains(info.Schema, "integer") {
		t.Fatalf("info schema = %q", info.Schema)
	}

	if err := c.Drop(ctx, "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, "test", "mode ridv.\nrules p(x: 3).\nend.\n"); err == nil {
		t.Fatal("exec on dropped database succeeded")
	} else if apiErr := asAPIError(t, err); apiErr.Status != http.StatusNotFound || apiErr.Resp.Kind != client.KindNotFound {
		t.Fatalf("dropped exec = %v", apiErr)
	}
	if err := c.Drop(ctx, "test"); err == nil {
		t.Fatal("double drop succeeded")
	}
}

func asAPIError(t *testing.T, err error) *client.APIError {
	t.Helper()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v (%T), want *client.APIError", err, err)
	}
	return apiErr
}

// TestExecConflictMapsTo409 forces a deterministic commit conflict (a
// serial write lands in the validation window, retries disabled
// per-request) and checks the 409 body carries both footprints.
func TestExecConflictMapsTo409(t *testing.T) {
	s, _, c := newTestServer(t)
	ctx := context.Background()
	mustCreate(t, c, "db", nil)

	s.mu.RLock()
	db := s.dbs["db"]
	s.mu.RUnlock()
	hooks.ConcurrentPreCommit = func(int) {
		if _, err := db.Exec("mode ridv.\nrules q(x: 99).\nend.\n"); err != nil {
			t.Error(err)
		}
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()

	_, err := c.ExecRequest(ctx, "db", client.ExecRequest{
		Module:     "mode ridv.\nrules p(x: 1).\nend.\n",
		MaxRetries: -1,
	})
	apiErr := asAPIError(t, err)
	if apiErr.Status != http.StatusConflict || apiErr.Resp.Kind != client.KindConflict {
		t.Fatalf("conflict response = %+v", apiErr)
	}
	// The serial competitor records a universal write.
	if apiErr.Resp.Pred != "*" {
		t.Fatalf("conflict pred = %q", apiErr.Resp.Pred)
	}
	if apiErr.Resp.Mine == nil || apiErr.Resp.Theirs == nil {
		t.Fatalf("conflict body missing footprints: %+v", apiErr.Resp)
	}
	if !apiErr.Resp.Theirs.Universal {
		t.Fatalf("theirs = %+v, want universal", apiErr.Resp.Theirs)
	}
	found := false
	for _, w := range apiErr.Resp.Mine.Writes {
		if w == "p" {
			found = true
		}
	}
	if !found {
		t.Fatalf("mine.writes = %v, want p", apiErr.Resp.Mine.Writes)
	}
}

// TestClientConflictRetryKnob: with WithConflictRetries the client
// re-submits after a 409 and the second attempt lands.
func TestClientConflictRetryKnob(t *testing.T) {
	s, ts, _ := newTestServer(t)
	c := client.New(ts.URL, client.WithConflictRetries(2), client.WithRetryBackoff(time.Millisecond, 4*time.Millisecond))
	ctx := context.Background()
	mustCreate(t, c, "db", nil)

	s.mu.RLock()
	db := s.dbs["db"]
	s.mu.RUnlock()
	var mu sync.Mutex
	conflictsInjected := 0
	hooks.ConcurrentPreCommit = func(int) {
		mu.Lock()
		defer mu.Unlock()
		if conflictsInjected == 0 {
			conflictsInjected++
			if _, err := db.Exec("mode ridv.\nrules q(x: 99).\nend.\n"); err != nil {
				t.Error(err)
			}
		}
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()

	res, err := c.ExecRequest(ctx, "db", client.ExecRequest{
		Module:     "mode ridv.\nrules p(x: 1).\nend.\n",
		MaxRetries: -1, // server never retries: the client's knob does the work
	})
	if err != nil {
		t.Fatalf("client retry did not recover: %v", err)
	}
	if res.Epoch == 0 {
		t.Fatalf("exec = %+v", res)
	}
	mu.Lock()
	defer mu.Unlock()
	if conflictsInjected != 1 {
		t.Fatalf("conflicts injected = %d, want 1", conflictsInjected)
	}
}

// TestExecBudgetMapsTo422: an exhausted budget axis surfaces as 422
// with the axis named.
func TestExecBudgetMapsTo422(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	mustCreate(t, c, "db", &client.DBOptions{Budget: &client.BudgetSpec{MaxFacts: 2}})

	// Ground facts seed the baseline; the q rule derives five more,
	// blowing the two-fact budget.
	_, err := c.Exec(ctx, "db", `mode ridv.
rules
  p(x: 1). p(x: 2). p(x: 3). p(x: 4). p(x: 5).
  q(x: X) <- p(x: X).
end.
`)
	apiErr := asAPIError(t, err)
	if apiErr.Status != http.StatusUnprocessableEntity || apiErr.Resp.Kind != client.KindBudget {
		t.Fatalf("budget response = %+v", apiErr)
	}
	if apiErr.Resp.Axis != "facts" {
		t.Fatalf("budget axis = %q", apiErr.Resp.Axis)
	}
}

// TestExecParseErrorMapsTo400 and unknown database to 404.
func TestExecParseErrorMapsTo400(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	mustCreate(t, c, "db", nil)
	_, err := c.Exec(ctx, "db", "this is not a module")
	apiErr := asAPIError(t, err)
	if apiErr.Status != http.StatusBadRequest || apiErr.Resp.Kind != client.KindInvalid {
		t.Fatalf("parse error = %+v", apiErr)
	}
	if _, err := c.ExecRequest(ctx, "db", client.ExecRequest{Module: "mode ridv.\nrules p(x: 1).\nend.\n", Mode: "bogus"}); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// A body nested deeply enough to overflow an unbounded recursive
// descent, but within the body limit, is a 400 invalid through exec and
// query, and the server keeps serving. Under -short or the race
// detector, which slows the lexer tenfold, the bodies are 1 MiB: still
// far past parser.MaxNesting.
func TestDeepNestingMapsTo400(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	mustCreate(t, c, "db", nil)
	size := 15 << 20
	if testing.Short() || raceEnabled {
		size = 1 << 20
	}
	deep := strings.Repeat("-", size)
	_, err := c.Exec(ctx, "db", "mode ridv.\nrules p(x: "+deep+"1).\nend.\n")
	apiErr := asAPIError(t, err)
	if apiErr.Status != http.StatusBadRequest || apiErr.Resp.Kind != client.KindInvalid || !strings.Contains(apiErr.Resp.Error, "nesting") {
		t.Fatalf("deep exec = %d %q %q", apiErr.Status, apiErr.Resp.Kind, apiErr.Resp.Error)
	}
	_, err = c.Query(ctx, "db", "?- p(x: "+strings.Repeat("(", size)+"1).")
	if apiErr := asAPIError(t, err); apiErr.Status != http.StatusBadRequest || apiErr.Resp.Kind != client.KindInvalid {
		t.Fatalf("deep query = %d %q %q", apiErr.Status, apiErr.Resp.Kind, apiErr.Resp.Error)
	}
	if _, err := c.Exec(ctx, "db", "mode ridv.\nrules p(x: 1).\nend.\n"); err != nil {
		t.Fatalf("exec after the deep bodies: %v", err)
	}
	if ans, err := c.Query(ctx, "db", "?- p(x: X)."); err != nil || len(ans.Rows) != 1 {
		t.Fatalf("query after the deep bodies = %v, %v", ans, err)
	}
}

// TestMapErrorCancellation pins the cancellation rows of the error
// table: client cancel → 499, evaluation deadline → 504.
func TestMapErrorCancellation(t *testing.T) {
	status, resp := mapError(&logres.CanceledError{Err: context.Canceled})
	if status != StatusClientClosedRequest || resp.Kind != client.KindCanceled {
		t.Fatalf("canceled = %d %q", status, resp.Kind)
	}
	status, resp = mapError(&logres.CanceledError{Err: context.DeadlineExceeded})
	if status != http.StatusGatewayTimeout || resp.Kind != client.KindDeadline {
		t.Fatalf("deadline = %d %q", status, resp.Kind)
	}
	status, resp = mapError(&logres.PanicError{Value: "boom"})
	if status != http.StatusInternalServerError || resp.Kind != client.KindPanic {
		t.Fatalf("panic = %d %q", status, resp.Kind)
	}
}

// TestQueryStreamChunks reads the raw NDJSON body: header, then rows
// split across multiple chunks of the requested size, then the
// trailer.
func TestQueryStreamChunks(t *testing.T) {
	_, ts, c := newTestServer(t)
	ctx := context.Background()
	mustCreate(t, c, "db", nil)
	var rules []string
	for i := 1; i <= 7; i++ {
		rules = append(rules, fmt.Sprintf("p(x: %d).", i))
	}
	if _, err := c.Exec(ctx, "db", "mode ridv.\nrules\n"+strings.Join(rules, "\n")+"\nend.\n"); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(client.QueryRequest{Goal: "?- p(x: X).", ChunkSize: 2})
	resp, err := http.Post(ts.URL+"/v1/db/db/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// 1 header + ceil(7/2)=4 chunks + 1 trailer.
	if len(lines) != 6 {
		t.Fatalf("stream lines = %d: %q", len(lines), lines)
	}
	var header client.QueryHeader
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil || len(header.Vars) != 1 {
		t.Fatalf("header = %q: %v", lines[0], err)
	}
	total := 0
	for _, line := range lines[1:5] {
		var chunk client.QueryChunk
		if err := json.Unmarshal([]byte(line), &chunk); err != nil {
			t.Fatalf("chunk = %q: %v", line, err)
		}
		if len(chunk.Rows) == 0 || len(chunk.Rows) > 2 {
			t.Fatalf("chunk size = %d", len(chunk.Rows))
		}
		total += len(chunk.Rows)
	}
	var trailer client.QueryTrailer
	if err := json.Unmarshal([]byte(lines[5]), &trailer); err != nil || !trailer.Done || trailer.Total != 7 || total != 7 {
		t.Fatalf("trailer = %q (rows seen %d)", lines[5], total)
	}

	// The streaming client API sees the same rows.
	var streamed int
	vars, err := c.QueryStream(ctx, "db", client.QueryRequest{Goal: "?- p(x: X).", ChunkSize: 3}, func(rows [][]string) error {
		streamed += len(rows)
		return nil
	})
	if err != nil || len(vars) != 1 || streamed != 7 {
		t.Fatalf("QueryStream = vars %v rows %d err %v", vars, streamed, err)
	}
}

// TestShutdownDrainsInFlightApplies: an apply held in its validation
// window keeps Shutdown blocked; new requests get 503; once the apply
// releases, it completes with 200 and Shutdown returns.
func TestShutdownDrainsInFlightApplies(t *testing.T) {
	s, _, c := newTestServer(t)
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

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// Draining: new data-plane requests are rejected with 503.
	deadline := time.After(2 * time.Second)
	for {
		_, err := c.List(ctx)
		if err != nil {
			apiErr := asAPIError(t, err)
			if apiErr.Status != http.StatusServiceUnavailable || apiErr.Resp.Kind != client.KindDraining {
				t.Fatalf("draining response = %+v", apiErr)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("server never started draining")
		case <-time.After(time.Millisecond):
		}
	}

	// The in-flight apply is still running; Shutdown must not return.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v with an apply in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-execDone; err != nil {
		t.Fatalf("drained apply failed: %v", err)
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown did not return after the apply drained")
	}
}

// TestShutdownGraceExpiryCancelsApplies: when the grace context
// expires, in-flight evaluations are canceled through their contexts
// and the handler unwinds (the engine's all-or-nothing abort keeps the
// database state untouched).
func TestShutdownGraceExpiryCancelsApplies(t *testing.T) {
	s, _, c := newTestServer(t)
	ctx := context.Background()
	// A tight rounds budget is not enough to stop this module: it
	// recurses under MaxRounds-free default, so use a long chain the
	// worker would grind through, then rely on cancellation.
	mustCreate(t, c, "db", nil)

	// Hold the apply in its validation window so it is mid-flight when
	// the grace period expires; the hook returns when the request
	// context is canceled (the handler's context merge fires cancel).
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
	if err := s.Shutdown(grace); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	select {
	case <-execDone:
		// The apply unblocked (it either committed after the hook
		// released or aborted canceled — both leave consistent state).
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight apply never unwound after force cancel")
	}
	// The database state is consistent: either the module landed fully
	// or not at all.
	s.mu.RLock()
	db := s.dbs["db"]
	s.mu.RUnlock()
	if n := db.EDBCount("p"); n != 0 && n != 1 {
		t.Fatalf("p count = %d, want 0 or 1", n)
	}
}

// TestObservabilityMountedBesideDataPlane: one listener serves both
// planes, and the read-only guard holds on the mounted routes.
func TestObservabilityMountedBesideDataPlane(t *testing.T) {
	_, ts, c := newTestServer(t)
	ctx := context.Background()
	mustCreate(t, c, "db", nil)
	if _, err := c.Exec(ctx, "db", "mode ridv.\nrules p(x: 1).\nend.\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"logres_http_requests_total", "logres_module_commits_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	post, err := http.Post(ts.URL+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", post.StatusCode)
	}
}

// TestConcurrentDisjointExecsNoConflicts: many clients applying
// modules over disjoint predicates through the live server all succeed
// with zero conflicts — the optimistic path carries over the wire.
func TestConcurrentDisjointExecsNoConflicts(t *testing.T) {
	s, _, c := newTestServer(t)
	ctx := context.Background()
	mustCreate(t, c, "db", nil)

	const workers, per = 2, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*per)
	preds := []string{"p", "q"}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				module := fmt.Sprintf("mode ridv.\nrules %s(x: %d).\nend.\n", preds[g], i)
				if _, err := c.Exec(ctx, "db", module); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := s.Metrics().Counter("logres_module_conflicts_total").Value(); n != 0 {
		t.Fatalf("disjoint execs produced %d conflicts", n)
	}
	for _, pred := range preds {
		ans, err := c.Query(ctx, "db", fmt.Sprintf("?- %s(x: X).", pred))
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Rows) != per {
			t.Fatalf("%s rows = %d, want %d", pred, len(ans.Rows), per)
		}
	}
}

// rawJSON sends body verbatim and decodes an error response, if any.
func rawJSON(t *testing.T, method, url, body string) (int, client.ErrorResponse) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er client.ErrorResponse
	if resp.StatusCode >= 400 {
		_ = json.NewDecoder(resp.Body).Decode(&er)
	}
	return resp.StatusCode, er
}

// The per-database workers and shards options are gone from the wire:
// a create naming either is rejected as an unknown field, not accepted
// and ignored, and no database is created.
func TestCreateRejectsRemovedEngineOptions(t *testing.T) {
	_, ts, c := newTestServer(t)
	for _, field := range []string{"workers", "shards"} {
		body := fmt.Sprintf(`{"schema":%q,"options":{%q:4}}`, testSchema, field)
		status, er := rawJSON(t, http.MethodPut, ts.URL+"/v1/db/x", body)
		if status != http.StatusBadRequest || er.Kind != client.KindInvalid {
			t.Fatalf("%s: status %d kind %q, want 400 %q", field, status, er.Kind, client.KindInvalid)
		}
		if want := fmt.Sprintf("json: unknown field %q", field); !strings.Contains(er.Error, want) {
			t.Fatalf("%s: error %q does not name the field (%s)", field, er.Error, want)
		}
	}
	if names, err := c.List(context.Background()); err != nil || len(names) != 0 {
		t.Fatalf("List = %v, %v; want no databases", names, err)
	}
}

// Every JSON route decodes exactly one value: a body that carries more
// than one value, or trailing bytes, is a 400 invalid and has no effect,
// while a single value followed by whitespace is accepted.
func TestJSONRoutesRejectTrailingData(t *testing.T) {
	_, ts, c := newTestServer(t)
	mustCreate(t, c, "db", &client.DBOptions{Incremental: true})
	base := ts.URL + "/v1/db/"
	module := "mode ridv.\nrules p(x: 1).\nend.\n"
	routes := []struct {
		name, method, url, body string
	}{
		{"create", http.MethodPut, base + "fresh", fmt.Sprintf(`{"schema":%q}`, testSchema)},
		{"exec", http.MethodPost, base + "db/exec", fmt.Sprintf(`{"module":%q}`, module)},
		{"query", http.MethodPost, base + "db/query", `{"goal":"?- p(x: X)."}`},
		{"register", http.MethodPost, base + "db/register", fmt.Sprintf(`{"module":%q}`, "module m.\n"+module)},
		{"subscribe", http.MethodPost, base + "db/subscribe", `{"preds":["p"]}`},
	}
	for _, r := range routes {
		t.Run(r.name, func(t *testing.T) {
			for _, tail := range []string{`{"options":{"workers":4}}`, ` trailing`, `}`, `{} trailing`} {
				status, er := rawJSON(t, r.method, r.url, r.body+tail)
				if status != http.StatusBadRequest || er.Kind != client.KindInvalid {
					t.Fatalf("tail %q: status %d kind %q, want 400 %q", tail, status, er.Kind, client.KindInvalid)
				}
				if !strings.Contains(er.Error, "malformed request body") {
					t.Fatalf("tail %q: error %q", tail, er.Error)
				}
			}
		})
	}
	ctx := context.Background()
	if _, err := c.Info(ctx, "fresh"); err == nil {
		t.Fatal("a rejected create registered its database")
	}
	info, err := c.Info(ctx, "db")
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 0 || len(info.Modules) != 0 {
		t.Fatalf("rejected requests changed the database: %+v", info)
	}
	for _, r := range routes[:4] {
		req, err := http.NewRequest(r.method, r.url, strings.NewReader(r.body+" \n\t"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Fatalf("%s: a single value with trailing whitespace got %d", r.name, resp.StatusCode)
		}
	}
}
