package logres

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"logres/internal/obs"
)

// Observability tests through the public API: tracer and metrics
// attachment, runtime rewiring, the HTTP exposition surface, and
// per-call budget overrides.

const obsSchema = `
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`

const obsModule = `
mode radi.
rules
  edge(src: 1, dst: 2).
  edge(src: 2, dst: 3).
  edge(src: 3, dst: 4).
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
end.
`

type recordingTracer struct {
	mu     sync.Mutex
	events []TraceEvent
}

func (r *recordingTracer) Event(ev TraceEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *recordingTracer) count(kind TraceKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ev := range r.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func TestWithTracerSeesModuleAndRoundEvents(t *testing.T) {
	rt := &recordingTracer{}
	db, err := Open(obsSchema, WithTracer(rt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(obsModule); err != nil {
		t.Fatal(err)
	}
	if n, err := db.Count("tc"); err != nil || n != 6 {
		t.Fatalf("tc count = %d (%v), want 6", n, err)
	}
	for _, kind := range []TraceKind{obs.KindModuleBegin, obs.KindModuleEnd,
		obs.KindEvalBegin, obs.KindRoundEnd, obs.KindRuleFire, obs.KindEvalEnd} {
		if rt.count(kind) == 0 {
			t.Fatalf("no %s events recorded", kind)
		}
	}
}

func TestSetTracerRewiresAtRuntime(t *testing.T) {
	db, err := Open(obsSchema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(obsModule); err != nil {
		t.Fatal(err)
	}
	rt := &recordingTracer{}
	db.SetTracer(rt)
	if _, err := db.Query(`?- tc(src: 1, dst: X).`); err != nil {
		t.Fatal(err)
	}
	if rt.count(obs.KindEvalEnd) == 0 {
		t.Fatal("attached tracer saw no evaluation")
	}
	before := rt.count(obs.KindEvalEnd)
	db.SetTracer(nil)
	if _, err := db.Query(`?- tc(src: 1, dst: X).`); err != nil {
		t.Fatal(err)
	}
	if rt.count(obs.KindEvalEnd) != before {
		t.Fatal("detached tracer still receiving events")
	}
}

func TestWithMetricsAndHandler(t *testing.T) {
	m := NewMetrics()
	db, err := Open(obsSchema, WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(obsModule); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("logres_rounds_total").Value(); got == 0 {
		t.Fatal("metrics saw no rounds")
	}
	if got := m.Counter("logres_modules_applied_total").Value(); got == 0 {
		t.Fatal("metrics saw no module application")
	}

	mux := MetricsHandler(m)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics code = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"# TYPE logres_rounds_total counter", "logres_rule_firings_total"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestDatabaseMetricsLazyAttach(t *testing.T) {
	db, err := Open(obsSchema)
	if err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m == nil {
		t.Fatal("Metrics() = nil")
	}
	if db.Metrics() != m {
		t.Fatal("Metrics() not idempotent")
	}
	if _, err := db.Exec(obsModule); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("logres_rounds_total").Value(); got == 0 {
		t.Fatal("lazily attached metrics saw no rounds")
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "logres_evals_total") {
		t.Fatalf("WriteTo missing eval counter:\n%s", buf.String())
	}
}

// A per-call budget must tighten the database-wide one for that call
// only: the divergent module aborts under the call budget, and a
// following unrestricted call still honours the (loose) database
// budget.
func TestPerCallBudgetOverride(t *testing.T) {
	db := openGuarded(t, WithBudget(Budget{MaxFacts: 1 << 20}))
	before := snapshot(t, db)

	_, err := db.Exec(divergentModule, WithCallBudget(Budget{MaxFacts: 50}))
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v (%T), want *BudgetError", err, err)
	}
	if be.Axis != AxisFacts {
		t.Fatalf("axis = %q, want %q", be.Axis, AxisFacts)
	}
	if !bytes.Equal(before, snapshot(t, db)) {
		t.Fatal("aborted call mutated the database")
	}

	// The override must not stick: a plain query still runs.
	if _, err := db.Query(`?- seed(k: X).`); err != nil {
		t.Fatalf("query after per-call abort: %v", err)
	}

	// A per-call rounds budget tightens the round bound as well.
	_, err = db.Exec(divergentModule, WithCallBudget(Budget{MaxRounds: 10}))
	if !errors.As(err, &be) || be.Axis != AxisRounds {
		t.Fatalf("err = %v, want rounds *BudgetError", err)
	}
}

// A per-call budget can only narrow the database budget, never widen it.
func TestPerCallBudgetCannotWiden(t *testing.T) {
	db := openGuarded(t, WithBudget(Budget{MaxFacts: 30}))
	_, err := db.Exec(divergentModule, WithCallBudget(Budget{MaxFacts: 1 << 20}))
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v (%T), want *BudgetError", err, err)
	}
	if be.Axis != AxisFacts || be.Limit != 30 {
		t.Fatalf("axis = %q limit = %d, want facts/30", be.Axis, be.Limit)
	}

	// A looser rounds axis must not widen the database's round bound.
	db.opts.Budget.MaxRounds = 10
	_, err = db.Exec(divergentModule, WithCallBudget(Budget{MaxRounds: 20}))
	if !errors.As(err, &be) {
		t.Fatalf("err = %v (%T), want *BudgetError", err, err)
	}
	if be.Axis != AxisRounds || be.Limit != 10 {
		t.Fatalf("axis = %q limit = %d, want rounds/10", be.Axis, be.Limit)
	}
}
