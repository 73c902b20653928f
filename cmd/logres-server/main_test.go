package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logres/client"
	"logres/internal/hooks"
)

const e2eSchema = `associations
  P = (x: integer);
  Q = (x: integer);
`

// startServer runs the daemon in-process on a loopback listener and
// returns a client plus the cancel that stands in for SIGTERM.
func startServer(t *testing.T, extraArgs ...string) (*client.Client, string, context.CancelFunc, func() error) {
	t.Helper()
	schemaPath := filepath.Join(t.TempDir(), "schema.lgr")
	if err := os.WriteFile(schemaPath, []byte(e2eSchema), 0o644); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-schema", schemaPath, "-db", "e2e", "-grace", "5s"}, extraArgs...)
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, cfg, ln, os.Stderr) }()
	// wait blocks until run returned and caches the result, so the test
	// body and the cleanup can both call it.
	var exitOnce sync.Once
	var exitErr error
	wait := func() error {
		exitOnce.Do(func() { exitErr = <-runErr })
		return exitErr
	}
	t.Cleanup(func() {
		cancel()
		done := make(chan struct{})
		go func() { wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("server did not exit")
		}
	})
	base := "http://" + ln.Addr().String()
	return client.New(base), base, cancel, wait
}

// TestEndToEndDisjointAppliers: two clients applying modules over
// disjoint predicates through the live daemon all succeed, with zero
// optimistic conflicts recorded.
func TestEndToEndDisjointAppliers(t *testing.T) {
	c, base, _, _ := startServer(t)
	ctx := context.Background()

	const per = 5
	preds := []string{"p", "q"}
	var wg sync.WaitGroup
	errs := make(chan error, len(preds)*per)
	for g := range preds {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				module := fmt.Sprintf("mode ridv.\nrules %s(x: %d).\nend.\n", preds[g], i)
				if _, err := c.Exec(ctx, "e2e", module); err != nil {
					errs <- fmt.Errorf("%s #%d: %w", preds[g], i, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for _, pred := range preds {
		ans, err := c.Query(ctx, "e2e", fmt.Sprintf("?- %s(x: X).", pred))
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Rows) != per {
			t.Fatalf("%s rows = %d, want %d", pred, len(ans.Rows), per)
		}
	}

	// The daemon's /metrics shows commits and no conflicts.
	body := scrapeMetrics(t, base)
	if n := metricValue(t, body, "logres_module_commits_total"); n < len(preds)*per {
		t.Fatalf("commits = %d, want >= %d\n%s", n, len(preds)*per, body)
	}
	if n := metricValue(t, body, "logres_module_conflicts_total"); n != 0 {
		t.Fatalf("conflicts = %d, want 0", n)
	}
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// metricValue extracts one counter from the exposition text; a metric
// never incremented may be absent, which reads as zero.
func metricValue(t *testing.T, body, name string) int {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		return 0
	}
	var n int
	if _, err := fmt.Sscanf(m[1], "%d", &n); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEndToEndConflictingPair: two applications writing the same
// predicate, held at their commit points until both have validated the
// same snapshot, produce exactly one 409 — and its body carries both
// footprints.
func TestEndToEndConflictingPair(t *testing.T) {
	c, _, _, _ := startServer(t)
	ctx := context.Background()

	release := make(chan struct{})
	var arrived atomic.Int32
	hooks.ConcurrentPreCommit = func(int) {
		if arrived.Add(1) == 2 {
			close(release)
		}
		<-release
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := c.ExecRequest(ctx, "e2e", client.ExecRequest{
				Module:     fmt.Sprintf("mode ridv.\nrules p(x: %d).\nend.\n", i),
				MaxRetries: -1,
			})
			results <- err
		}(i)
	}
	var failures []*client.APIError
	for i := 0; i < 2; i++ {
		err := <-results
		if err == nil {
			continue
		}
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("err = %v (%T)", err, err)
		}
		failures = append(failures, apiErr)
	}
	if len(failures) != 1 {
		t.Fatalf("conflicting pair produced %d failures, want exactly 1: %v", len(failures), failures)
	}
	f := failures[0]
	if f.Status != http.StatusConflict || f.Resp.Kind != client.KindConflict {
		t.Fatalf("failure = %+v, want 409 conflict", f)
	}
	if f.Resp.Pred != "p" {
		t.Fatalf("conflict pred = %q, want p", f.Resp.Pred)
	}
	if f.Resp.Mine == nil || !contains(f.Resp.Mine.Writes, "p") {
		t.Fatalf("mine = %+v, want writes containing p", f.Resp.Mine)
	}
	if f.Resp.Theirs == nil || !contains(f.Resp.Theirs.Writes, "p") {
		t.Fatalf("theirs = %+v, want writes containing p", f.Resp.Theirs)
	}

	// The surviving application committed: exactly one p fact landed.
	ans, err := c.Query(ctx, "e2e", "?- p(x: X).")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 1 {
		t.Fatalf("p rows = %d, want 1", len(ans.Rows))
	}
}

func contains(s []string, want string) bool {
	for _, v := range s {
		if v == want {
			return true
		}
	}
	return false
}

// TestEndToEndSignalDrainsInFlightApply: the SIGTERM path (the
// NotifyContext cancel) drains — an application already past the gate
// completes with 200, new requests get 503, and run returns nil.
func TestEndToEndSignalDrainsInFlightApply(t *testing.T) {
	c, _, cancel, waitExit := startServer(t)
	ctx := context.Background()

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
		_, err := c.Exec(ctx, "e2e", "mode ridv.\nrules p(x: 1).\nend.\n")
		execDone <- err
	}()
	<-entered

	cancel() // the signal

	// Draining: eventually new requests are refused.
	deadline := time.After(3 * time.Second)
	for {
		_, err := c.List(ctx)
		if err != nil {
			var apiErr *client.APIError
			if errors.As(err, &apiErr) {
				if apiErr.Status != http.StatusServiceUnavailable || apiErr.Resp.Kind != client.KindDraining {
					t.Fatalf("refusal = %+v, want 503 draining", apiErr)
				}
			} else if !strings.Contains(err.Error(), "connection refused") {
				// The HTTP listener may already be down; anything else is wrong.
				t.Fatalf("refusal = %v", err)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("server never started draining")
		case <-time.After(time.Millisecond):
		}
	}

	select {
	case err := <-execDone:
		t.Fatalf("in-flight exec returned %v before release", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	if err := <-execDone; err != nil {
		t.Fatalf("drained exec failed: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- waitExit() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("run = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after drain")
	}
}

// TestParseFlags covers the daemon's flag validation.
func TestParseFlags(t *testing.T) {
	if _, err := parseFlags([]string{"-schema", "a", "-load", "b"}); err == nil {
		t.Error("schema+load accepted")
	}
	if _, err := parseFlags([]string{"extra"}); err == nil {
		t.Error("positional args accepted")
	}
	cfg, err := parseFlags([]string{"-addr", ":0", "-grace", "1s"})
	if err != nil || cfg.addr != ":0" || cfg.grace != time.Second {
		t.Errorf("parseFlags = %+v, %v", cfg, err)
	}
	// The parallel row engine's flags are gone, not ignored.
	for _, removed := range []string{"-workers", "-shards"} {
		if _, err := parseFlags([]string{removed, "2"}); err == nil ||
			!strings.Contains(err.Error(), "flag provided but not defined: "+removed) {
			t.Errorf("%s 2: err = %v, want an undefined-flag error", removed, err)
		}
	}
}

// TestHTTPServerBoundsHeaderRead: the listener's server is built with
// the header-read bound, so a client that never finishes its request
// headers is timed out.
func TestHTTPServerBoundsHeaderRead(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
}

// TestParseDurableFlags covers the durability flag surface.
func TestParseDurableFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-data-dir", "/tmp/x", "-fsync", "interval",
		"-fsync-interval", "50ms", "-compact-every", "64"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.dataDir != "/tmp/x" || cfg.fsync.String() != "interval" ||
		cfg.fsyncInterval != 50*time.Millisecond || cfg.compactEvery != 64 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if _, err := parseFlags([]string{"-fsync", "sometimes"}); err == nil {
		t.Error("bad fsync policy accepted")
	}
	if _, err := parseFlags([]string{"-load", "a", "-data-dir", "b"}); err == nil {
		t.Error("load+data-dir accepted")
	}
	if cfg, err := parseFlags(nil); err != nil || cfg.fsync.String() != "always" {
		t.Errorf("default fsync = %v, %v", cfg.fsync, err)
	}
}

// TestEndToEndDurableRestart commits through a live daemon, stops it
// via the signal path, and restarts over the same data directory: the
// preloaded database must come back recovered with its commits.
func TestEndToEndDurableRestart(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	ctx := context.Background()

	c, _, cancel, wait := startServer(t, "-data-dir", dataDir)
	if _, err := c.Exec(ctx, "e2e", "mode ridv.\nrules p(x: 1).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, "e2e", "mode ridv.\nrules p(x: 2).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	info, err := c.Info(ctx, "e2e")
	if err != nil || info.Durability == nil {
		t.Fatalf("info = %+v, %v", info, err)
	}
	cancel()
	if err := wait(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("first run exited: %v", err)
	}

	c2, _, _, _ := startServer(t, "-data-dir", dataDir)
	info2, err := c2.Info(ctx, "e2e")
	if err != nil {
		t.Fatal(err)
	}
	if info2.Epoch != info.Epoch || info2.Recovery == nil {
		t.Fatalf("recovered info = %+v vs committed epoch %d", info2, info.Epoch)
	}
	ans, err := c2.Query(ctx, "e2e", "?- p(x: X).")
	if err != nil || len(ans.Rows) != 2 {
		t.Fatalf("recovered query = %+v, %v", ans, err)
	}
}
