package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("Sum = %d, want 5050", h.Sum())
	}
	// Bucket upper bounds are 2^k - 1; p50 of 1..100 lands in [33..64],
	// p99 in [65..128].
	if q := h.Quantile(0.5); q != 63 {
		t.Fatalf("p50 = %d, want 63", q)
	}
	if q := h.Quantile(0.99); q != 127 {
		t.Fatalf("p99 = %d, want 127", q)
	}
	if q := (&Histogram{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty p50 = %d, want 0", q)
	}
	h2 := &Histogram{}
	h2.Observe(0)
	h2.Observe(-5)
	if q := h2.Quantile(0.5); q != 0 {
		t.Fatalf("zero-valued p50 = %d, want 0", q)
	}
}

func TestMetricsPrometheusText(t *testing.T) {
	m := NewMetrics()
	m.Counter("logres_rounds_total").Add(7)
	m.Counter(`logres_aborts_total{axis="facts"}`).Add(1)
	m.Counter(`logres_aborts_total{axis="rounds"}`).Add(2)
	m.Gauge("logres_facts").Set(42)
	m.Histogram("logres_round_duration_ns").Observe(1000)

	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE logres_rounds_total counter",
		"logres_rounds_total 7",
		"# TYPE logres_aborts_total counter",
		`logres_aborts_total{axis="facts"} 1`,
		`logres_aborts_total{axis="rounds"} 2`,
		"# TYPE logres_facts gauge",
		"logres_facts 42",
		"# TYPE logres_round_duration_ns histogram",
		`logres_round_duration_ns_bucket{le="1023"} 1`,
		`logres_round_duration_ns_bucket{le="+Inf"} 1`,
		`logres_round_duration_ns{quantile="0.5"}`,
		"logres_round_duration_ns_sum 1000",
		"logres_round_duration_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, even with multiple labeled series.
	if n := strings.Count(out, "# TYPE logres_aborts_total"); n != 1 {
		t.Fatalf("%d TYPE lines for logres_aborts_total, want 1", n)
	}
	// Prometheus text format: every non-comment line is `name[{labels}] value`.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestMetricsTracerAdapter(t *testing.T) {
	m := NewMetrics()
	tr := m.Tracer()
	tr.Event(Event{Kind: KindEvalBegin, Total: 10})
	tr.Event(Event{Kind: KindRoundEnd, Count: 5, Total: 15, Duration: time.Millisecond})
	tr.Event(Event{Kind: KindRuleFire, Count: 5})
	tr.Event(Event{Kind: KindOIDInvent})
	tr.Event(Event{Kind: KindAbort, Axis: "facts"})
	if got := m.Counter("logres_rounds_total").Value(); got != 1 {
		t.Fatalf("rounds = %d, want 1", got)
	}
	if got := m.Counter("logres_rule_firings_total").Value(); got != 5 {
		t.Fatalf("firings = %d, want 5", got)
	}
	if got := m.Counter("logres_oids_invented_total").Value(); got != 1 {
		t.Fatalf("oids = %d, want 1", got)
	}
	if got := m.Counter(`logres_aborts_total{axis="facts"}`).Value(); got != 1 {
		t.Fatalf("aborts{facts} = %d, want 1", got)
	}
	if got := m.Gauge("logres_facts").Value(); got != 15 {
		t.Fatalf("facts gauge = %d, want 15", got)
	}
	if got := m.Histogram("logres_round_duration_ns").Count(); got != 1 {
		t.Fatalf("round duration observations = %d, want 1", got)
	}
}

func TestServeMux(t *testing.T) {
	m := NewMetrics()
	m.Counter("logres_rounds_total").Add(3)
	mux := NewServeMux(m)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	if rec := get("/metrics"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "logres_rounds_total 3") {
		t.Fatalf("/metrics: code %d body %q", rec.Code, rec.Body.String())
	} else if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	if rec := get("/debug/vars"); rec.Code != 200 || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("/debug/vars: code %d, valid JSON = %v", rec.Code, json.Valid(rec.Body.Bytes()))
	}
	if rec := get("/debug/pprof/"); rec.Code != 200 {
		t.Fatalf("/debug/pprof/: code %d", rec.Code)
	}
}

func TestCanonicalJSONLStripsNondeterminism(t *testing.T) {
	var buf bytes.Buffer
	s := NewCanonicalJSONL(&buf)
	s.Event(Event{Kind: KindRoundEnd, Stratum: 1, Round: 2, Count: 3, Total: 4,
		Duration: time.Second, Time: time.Now(), Req: "r1"})
	s.Event(Event{Kind: KindWALSync, Duration: time.Second})
	s.Event(Event{Kind: KindGuardCheck, Round: 2, Detail: "trip"})
	out := buf.String()
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("canonical sink kept nondeterministic kinds:\n%s", out)
	}
	for _, banned := range []string{"time", "duration", "req"} {
		if strings.Contains(out, banned) {
			t.Fatalf("canonical line carries %q:\n%s", banned, out)
		}
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(out), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["kind"] != "round.end" || ev["total"] != float64(4) {
		t.Fatalf("unexpected canonical event: %v", ev)
	}
}

func TestFlightRecorderRingAndDump(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		fr.Event(Event{Kind: KindRoundBegin, Round: i})
	}
	snap := fr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot = %d events, want 4", len(snap))
	}
	for i, ev := range snap {
		if ev.Round != 6+i {
			t.Fatalf("snapshot[%d].Round = %d, want %d (oldest first)", i, ev.Round, 6+i)
		}
	}
	var dump bytes.Buffer
	fr.SetDumpOnAbort(&dump)
	fr.Event(Event{Kind: KindAbort, Detail: "boom"})
	if fr.Dumps() != 1 {
		t.Fatalf("Dumps = %d, want 1", fr.Dumps())
	}
	if !strings.Contains(dump.String(), "boom") {
		t.Fatalf("dump missing abort detail:\n%s", dump.String())
	}
}

func TestMultiDropsNils(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) != nil")
	}
	var got []Kind
	one := tracerFunc(func(ev Event) { got = append(got, ev.Kind) })
	tr := Multi(nil, one, nil, one)
	tr.Event(Event{Kind: KindEvalEnd})
	if len(got) != 2 {
		t.Fatalf("fan-out delivered %d events, want 2", len(got))
	}
}

type tracerFunc func(Event)

func (f tracerFunc) Event(ev Event) { f(ev) }
