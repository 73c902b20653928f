package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestSpanInstrumentStampsAndCounts: Instrument stamps Event.Req,
// tracks the live counters, and advances the phase as the evaluation's
// events arrive.
func TestSpanInstrumentStampsAndCounts(t *testing.T) {
	span := NewSpan("req-1", "trace-1", "parent-1")
	if span.Phase() != "accepted" {
		t.Fatalf("initial phase = %q", span.Phase())
	}
	var got []Event
	tr := span.Instrument(tracerFunc(func(ev Event) { got = append(got, ev) }))

	tr.Event(Event{Kind: KindEvalBegin})
	if span.Phase() != "eval" {
		t.Fatalf("phase after eval.begin = %q", span.Phase())
	}
	tr.Event(Event{Kind: KindRoundEnd, Count: 3, Total: 7})
	tr.Event(Event{Kind: KindRoundEnd, Count: 1, Total: 8})
	tr.Event(Event{Kind: KindBudget, Count: 5, Limit: 10})
	tr.Event(Event{Kind: KindModuleRetry, Duration: time.Millisecond})
	if span.Phase() != "backoff" {
		t.Fatalf("phase after retry = %q", span.Phase())
	}
	tr.Event(Event{Kind: KindModuleCommit, Detail: "fast"})
	if span.Phase() != "commit" {
		t.Fatalf("phase after commit = %q", span.Phase())
	}

	if span.Rounds() != 2 || span.Facts() != 8 || span.Retries() != 1 || span.BudgetUsed() != 5 {
		t.Fatalf("counters = rounds %d facts %d retries %d budget %d",
			span.Rounds(), span.Facts(), span.Retries(), span.BudgetUsed())
	}
	for _, ev := range got {
		if ev.Req != "req-1" {
			t.Fatalf("event %s req = %q, want req-1", ev.Kind, ev.Req)
		}
	}
	if len(got) != 6 {
		t.Fatalf("forwarded %d events, want 6", len(got))
	}
}

// TestSpanContext: round-trip through context; absent span is nil.
func TestSpanContext(t *testing.T) {
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("span in empty context")
	}
	span := NewSpan("r", "", "")
	ctx := ContextWithSpan(context.Background(), span)
	if SpanFromContext(ctx) != span {
		t.Fatal("span did not round-trip")
	}
}

// TestProfileCollectorAssemblesAttempt: the collector builds per-stratum
// detail from the event stream, resets per-attempt state on a fresh
// eval.begin (strata describe the committed attempt), and accumulates
// retry/conflict/WAL counters call-wide.
func TestProfileCollectorAssemblesAttempt(t *testing.T) {
	c := NewProfileCollector()

	// Attempt 0: evaluates, then conflicts and retries.
	c.Event(Event{Kind: KindEvalBegin})
	c.Event(Event{Kind: KindStratumBegin, Stratum: 0, Detail: "semi-naive"})
	c.Event(Event{Kind: KindRuleFire, Rule: 0, Count: 4})
	c.Event(Event{Kind: KindRoundEnd, Round: 0, Count: 4, Total: 4})
	c.Event(Event{Kind: KindStratumEnd, Stratum: 0, Total: 4})
	c.Event(Event{Kind: KindEvalEnd, Count: 1, Total: 4, Duration: 5 * time.Microsecond})
	c.Event(Event{Kind: KindModuleConflict, Pred: "p", Round: 0, Detail: "mine: ...; theirs: ..."})
	c.Event(Event{Kind: KindModuleRetry, Round: 0, Duration: 200 * time.Microsecond})

	// Attempt 1: the committed one — vectorized this time, plus WAL.
	c.Event(Event{Kind: KindEvalBegin})
	c.Event(Event{Kind: KindStratumBegin, Stratum: 0, Detail: "semi-naive (vectorized)"})
	c.Event(Event{Kind: KindVecKernel, Pred: "join", Count: 2, Total: 100})
	c.Event(Event{Kind: KindRuleFire, Rule: 0, Count: 6})
	c.Event(Event{Kind: KindRoundEnd, Round: 0, Count: 6, Total: 6})
	c.Event(Event{Kind: KindRoundEnd, Round: 1, Count: 0, Total: 6})
	c.Event(Event{Kind: KindStratumEnd, Stratum: 0, Total: 6})
	c.Event(Event{Kind: KindEvalEnd, Count: 2, Total: 6, Duration: 9 * time.Microsecond})
	c.Event(Event{Kind: KindWALAppend, Count: 128, Total: 1024})
	c.Event(Event{Kind: KindWALSync, Duration: 3 * time.Microsecond})
	c.Event(Event{Kind: KindModuleCommit, Detail: "merge"})

	p := c.Profile(time.Millisecond)
	if p.WallNS != time.Millisecond.Nanoseconds() {
		t.Fatalf("wall = %d", p.WallNS)
	}
	if p.EvalNS != (9 * time.Microsecond).Nanoseconds() {
		t.Fatalf("eval = %d, want the committed attempt's", p.EvalNS)
	}
	if p.Rounds != 2 || p.Firings != 6 || p.Facts != 6 {
		t.Fatalf("rounds/firings/facts = %d/%d/%d, want 2/6/6 (committed attempt only)", p.Rounds, p.Firings, p.Facts)
	}
	if len(p.Strata) != 1 {
		t.Fatalf("strata = %d, want 1", len(p.Strata))
	}
	st := p.Strata[0]
	if !st.Vectorized || st.Mode != "semi-naive (vectorized)" {
		t.Fatalf("stratum mode = %q vectorized = %v", st.Mode, st.Vectorized)
	}
	if st.Rounds != 2 || len(st.Delta) != 2 || st.Delta[0] != 6 || st.Delta[1] != 0 {
		t.Fatalf("stratum rounds/delta = %d/%v", st.Rounds, st.Delta)
	}
	if len(st.Kernels) != 1 || st.Kernels[0].Kernel != "join" || st.Kernels[0].Rows != 100 {
		t.Fatalf("kernels = %+v", st.Kernels)
	}
	// Call-wide counters survived the per-attempt reset.
	if p.Retries != 1 || len(p.Conflicts) != 1 || p.Conflicts[0].Pred != "p" {
		t.Fatalf("retries/conflicts = %d/%+v", p.Retries, p.Conflicts)
	}
	if p.BackoffNS != (200 * time.Microsecond).Nanoseconds() {
		t.Fatalf("backoff = %d", p.BackoffNS)
	}
	if p.WALAppends != 1 || p.WALBytes != 128 || p.WALSyncs != 1 || p.WALSyncWaitNS != (3*time.Microsecond).Nanoseconds() {
		t.Fatalf("wal = %d/%d/%d/%d", p.WALAppends, p.WALBytes, p.WALSyncs, p.WALSyncWaitNS)
	}
	if p.CommitPath != "merge" {
		t.Fatalf("commit path = %q", p.CommitPath)
	}

	// Profile returns a copy: mutating it does not corrupt the collector.
	p.Strata[0].Delta[0] = 999
	if q := c.Profile(time.Millisecond); q.Strata[0].Delta[0] != 6 {
		t.Fatalf("collector state mutated through returned profile: %v", q.Strata[0].Delta)
	}
}

// TestCanonicalJSONLStripsReq: the req field rides in timestamped
// streams but never in canonical mode, so request-scoped tracing cannot
// break trace determinism.
func TestCanonicalJSONLStripsReq(t *testing.T) {
	ev := Event{Kind: KindRoundEnd, Round: 1, Count: 2, Total: 3, Req: "req-9"}

	var plain bytes.Buffer
	NewJSONL(&plain).Event(ev)
	if !strings.Contains(plain.String(), `"req":"req-9"`) {
		t.Fatalf("timestamped stream lost req: %s", plain.String())
	}

	var canon bytes.Buffer
	NewCanonicalJSONL(&canon).Event(ev)
	if strings.Contains(canon.String(), "req") {
		t.Fatalf("canonical stream leaked req: %s", canon.String())
	}
}

// TestTextSinkRendersEvents: the human-readable sink covers the kind
// switch and the fallback rendering.
func TestTextSinkRendersEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := NewText(&buf)
	tr.Event(Event{Kind: KindEvalBegin, Count: 1, Total: 10})
	tr.Event(Event{Kind: KindStratumBegin, Stratum: 0, Count: 3, Detail: "semi-naive"})
	tr.Event(Event{Kind: KindRoundEnd, Stratum: 0, Round: 1, Count: 5, Total: 15, Duration: time.Millisecond})
	tr.Event(Event{Kind: KindModuleConflict, Pred: "p", Round: 2, Detail: "mine: w(p); theirs: w(p)"})
	tr.Event(Event{Kind: KindWALAppend, Count: 64, Total: 640}) // fallback branch

	out := buf.String()
	for _, want := range []string{
		"eval: begin strata=1 facts=10",
		"stratum 0: begin rules=3 mode=semi-naive",
		"stratum 0 round 1: delta=5 facts=15 (1ms)",
		"module p: conflict attempt 2: mine: w(p); theirs: w(p)",
		"wal.append",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text sink output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 5 {
		t.Fatalf("line count = %d, want 5", lines)
	}
}

// TestFlightRecorderWraparound: once the ring wraps, Snapshot returns
// exactly the last n events, oldest first.
func TestFlightRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		r.Event(Event{Kind: KindRoundEnd, Round: i})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot length = %d, want 4", len(got))
	}
	for i, ev := range got {
		if want := 6 + i; ev.Round != want {
			t.Fatalf("snapshot[%d].Round = %d, want %d (oldest first)", i, ev.Round, want)
		}
	}

	// A second wraparound stays ordered.
	for i := 10; i < 13; i++ {
		r.Event(Event{Kind: KindRoundEnd, Round: i})
	}
	got = r.Snapshot()
	for i, ev := range got {
		if want := 9 + i; ev.Round != want {
			t.Fatalf("after rewrap: snapshot[%d].Round = %d, want %d", i, ev.Round, want)
		}
	}

	// The dump renders oldest first too.
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	first := strings.Index(buf.String(), "round 9")
	last := strings.Index(buf.String(), "round 12")
	if first < 0 || last < 0 || first > last {
		t.Fatalf("dump order wrong:\n%s", buf.String())
	}
}

// TestMetricsDuplicateRegistrationPanics: one name cannot be a counter
// and a gauge; re-registering under the same type is fine.
func TestMetricsDuplicateRegistrationPanics(t *testing.T) {
	m := NewMetrics()
	m.Counter("logres_widgets_total").Add(1)
	// Same name, same type: the registered instrument comes back.
	if m.Counter("logres_widgets_total").Value() != 1 {
		t.Fatal("re-registration lost the counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-type re-registration did not panic")
		}
	}()
	m.Gauge("logres_widgets_total")
}
