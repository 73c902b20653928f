package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logres"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const testSchema = `
domains NAME = string;
associations
  PARENT = (par: NAME, chil: NAME);
  ANC = (anc: NAME, des: NAME);
`

func TestRunScriptFlow(t *testing.T) {
	dir := t.TempDir()
	schema := writeFile(t, dir, "schema.lgr", testSchema)
	load := writeFile(t, dir, "load.lgr", `
mode ridv.
rules
  parent(par: "a", chil: "b").
  parent(par: "b", chil: "c").
end.
`)
	rules := writeFile(t, dir, "rules.lgr", `
mode radi.
rules
  anc(anc: X, des: Y) <- parent(par: X, chil: Y).
  anc(anc: X, des: Z) <- anc(anc: X, des: Y), parent(par: Y, chil: Z).
end.
`)
	snap := filepath.Join(dir, "snap.bin")
	cfg := config{schemaPath: schema, savePath: snap, goal: `?- anc(anc: "a", des: X).`,
		moduleFiles: []string{load, rules}}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	// Reload from the snapshot.
	if err := run(context.Background(), config{loadPath: snap, goal: `?- anc(des: X).`, dump: true}); err != nil {
		t.Fatal(err)
	}
}

// -max-retries reaches the database that applies the module files: the
// fail-fast bound and a positive one both apply and save them.
func TestRunMaxRetriesFlag(t *testing.T) {
	dir := t.TempDir()
	schema := writeFile(t, dir, "schema.lgr", testSchema)
	load := writeFile(t, dir, "load.lgr", `
mode ridv.
rules
  parent(par: "a", chil: "b").
end.
`)
	for _, retries := range []int{-1, 3} {
		snap := filepath.Join(dir, fmt.Sprintf("snap%d.bin", retries))
		cfg := config{schemaPath: schema, savePath: snap, maxRetries: retries,
			goal: `?- parent(par: X, chil: Y).`, moduleFiles: []string{load}}
		if err := run(context.Background(), cfg); err != nil {
			t.Fatalf("-max-retries %d: %v", retries, err)
		}
		f, err := os.Open(snap)
		if err != nil {
			t.Fatal(err)
		}
		db, err := logres.Load(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := db.EDBCount("parent"); got != 1 {
			t.Fatalf("-max-retries %d: parent count = %d", retries, got)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	if err := run(ctx, config{}); err == nil {
		t.Fatal("missing schema accepted")
	}
	bad := writeFile(t, dir, "bad.lgr", "classes C = (x: NOPE);")
	if err := run(ctx, config{schemaPath: bad}); err == nil {
		t.Fatal("invalid schema accepted")
	}
	schema := writeFile(t, dir, "schema.lgr", testSchema)
	badMod := writeFile(t, dir, "badmod.lgr", "rules nosuch(x: 1). end.")
	if err := run(ctx, config{schemaPath: schema, moduleFiles: []string{badMod}}); err == nil {
		t.Fatal("bad module accepted")
	}
	if err := run(ctx, config{schemaPath: schema, goal: "?- nosuch(x: X)."}); err == nil {
		t.Fatal("bad goal accepted")
	}
	if err := run(ctx, config{loadPath: filepath.Join(dir, "missing.bin")}); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

const divergentSchema = `
classes C = (v: integer);
associations SEED = (k: integer);
`

const divergentSrc = `
mode ridv.
rules
  seed(k: 1).
  c(self: S, v: 0) <- seed(k: 1).
  c(self: S, v: Y) <- c(v: X), Y = X + 1.
end.
`

// A non-interactive run of a divergent module under a budget flag must
// fail with the typed abort error (main turns that into a non-zero
// exit), and the snapshot file must never be written.
func TestRunBudgetAbort(t *testing.T) {
	dir := t.TempDir()
	schema := writeFile(t, dir, "schema.lgr", divergentSchema)
	mod := writeFile(t, dir, "mod.lgr", divergentSrc)
	snap := filepath.Join(dir, "snap.bin")
	cfg := config{schemaPath: schema, savePath: snap, moduleFiles: []string{mod}}
	cfg.budget = logres.Budget{Timeout: 30 * time.Millisecond}
	err := run(context.Background(), cfg)
	var be *logres.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v (%T), want *logres.BudgetError", err, err)
	}
	if be.Axis != logres.AxisDeadline {
		t.Fatalf("axis = %q, want deadline", be.Axis)
	}
	if _, statErr := os.Stat(snap); statErr == nil {
		t.Fatal("snapshot written despite aborted run")
	}
}

// A canceled context (what Ctrl-C produces through signal.NotifyContext)
// aborts the run with a typed cancellation error.
func TestRunCancellation(t *testing.T) {
	dir := t.TempDir()
	schema := writeFile(t, dir, "schema.lgr", divergentSchema)
	mod := writeFile(t, dir, "mod.lgr", divergentSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, config{schemaPath: schema, moduleFiles: []string{mod}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestREPLSession(t *testing.T) {
	db, err := logres.Open(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	input := strings.Join([]string{
		"mode ridv.",
		"rules",
		`  parent(par: "x", chil: "y").`,
		"end.",
		`?- parent(par: X, chil: Y).`,
		".schema",
		".dump",
		".modules",
		".register",
		"module probe.",
		"rules",
		"goal",
		"  ?- parent(par: X).",
		"end.",
		".call probe",
		".call nosuch",
		".explain",
		".bogus",
		".help",
		".quit",
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := repl(db, strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"applied (RIDV)",
		`"x"	"y"`,
		"(1 answers)",
		"parent = (par: name, chil: name)",
		"registered",
		"applied probe (RIDI)",
		"error:",          // .call nosuch
		"unknown command", // .bogus
		"commands:",       // .help
	} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q:\n%s", want, got)
		}
	}
}

func TestREPLSaveAndGoalErrors(t *testing.T) {
	db, err := logres.Open(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "s.bin")
	input := strings.Join([]string{
		"?- nosuch(x: X).", // goal error
		"rules",
		"  junk(",
		"end.",
		".save " + snap,
		".save",   // usage error
		".load x", // hint
		".quit",
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := repl(db, strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "error:") || !strings.Contains(got, "saved "+snap) ||
		!strings.Contains(got, "usage: .save FILE") {
		t.Fatalf("REPL error handling output:\n%s", got)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatal("snapshot not written")
	}
}

// An interrupt delivered during a REPL evaluation cancels it: the error
// prints as an interruption and the database answers queries afterwards.
func TestREPLInterrupt(t *testing.T) {
	db, err := logres.Open(divergentSchema)
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	sig <- os.Interrupt // pending interrupt, delivered once evaluation starts
	evalErr := withInterrupt(sig, func(ctx context.Context) error {
		_, err := db.ExecContext(ctx, divergentSrc)
		return err
	})
	if !errors.Is(evalErr, context.Canceled) {
		t.Fatalf("evaluation not canceled: %v", evalErr)
	}
	var out bytes.Buffer
	printEvalError(&out, evalErr)
	if !strings.Contains(out.String(), "interrupted (database unchanged)") {
		t.Fatalf("interrupt message = %q", out.String())
	}
	// The database is still usable.
	if _, err := db.Query(`?- seed(k: X).`); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsServerBoundsHeaderRead: the -metrics-addr server is built
// with the header-read bound, so a client that never finishes its
// request headers is timed out, and it serves metrics.
func TestMetricsServerBoundsHeaderRead(t *testing.T) {
	hs := metricsServer("127.0.0.1:0", logres.NewMetrics())
	if hs.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	rr := httptest.NewRecorder()
	hs.Handler.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rr.Code)
	}
}

func TestWriteAnswerForms(t *testing.T) {
	var out bytes.Buffer
	writeAnswer(&out, &logres.Answer{}) // no vars, no rows → "no"
	writeAnswer(&out, &logres.Answer{Rows: [][]logres.Value{{}}})
	got := out.String()
	if !strings.Contains(got, "no") || !strings.Contains(got, "yes") {
		t.Fatalf("boolean answers = %q", got)
	}
}
