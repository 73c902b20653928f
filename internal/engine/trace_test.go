package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"logres/internal/obs"
)

// Tests of the evaluation tracing layer: the canonical event stream
// must be byte-identical from run to run, and the in-round guard check
// must trip mid-round with a guard.check event.

// A program exercising both evaluation operators: a semi-naive stratum
// (transitive closure) and an inventive stratum (one class object per
// closure target), so the trace covers round, firing, and invention
// events.
const traceSchema = `
classes REACHED = (v: integer);
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`

const traceRules = `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
reached(self: S, v: Y) <- tc(src: 0, dst: Y).
`

// collectTracer records events for assertions. Safe for concurrent use,
// as the Tracer contract requires.
type collectTracer struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *collectTracer) Event(ev obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

func (c *collectTracer) kinds() map[obs.Kind]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := map[obs.Kind]int{}
	for _, ev := range c.events {
		m[ev.Kind]++
	}
	return m
}

// canonicalTrace runs the trace program under opts and returns the
// canonical JSONL stream.
func canonicalTrace(t *testing.T, opts Options) string {
	t.Helper()
	var buf bytes.Buffer
	opts.Tracer = obs.NewCanonicalJSONL(&buf)
	p, err := tryBuild(traceSchema, traceRules, opts)
	if err != nil {
		t.Fatal(err)
	}
	counter := int64(0)
	if _, err := p.Run(chainEdgeFacts(12), &counter); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The canonical event stream must be byte-identical from run to run, and
// setting the deprecated Workers/Shards options to their one accepted
// value must not change it.
func TestTraceDeterminismAcrossConfigs(t *testing.T) {
	base := Options{SemiNaive: true}
	want := canonicalTrace(t, base)
	if want == "" {
		t.Fatal("trace is empty")
	}
	for _, kind := range []string{`"kind":"round.end"`, `"kind":"rule.fire"`, `"kind":"oid.invent"`, `"kind":"stratum.begin"`} {
		if !strings.Contains(want, kind) {
			t.Fatalf("trace missing %s:\n%s", kind, want)
		}
	}
	ones := base
	ones.Workers, ones.Shards = 1, 1
	for _, c := range []struct {
		name string
		opts Options
	}{{"rerun", base}, {"workers=1/shards=1", ones}} {
		t.Run(c.name, func(t *testing.T) {
			if got := canonicalTrace(t, c.opts); got != want {
				t.Fatalf("canonical trace diverged\nfirst run:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

// The per-round delta curve recorded on Stats is derived from the same
// round boundaries the trace reports, and both executors hit them: the
// row engine and the columnar kernels record the same curve.
func TestDeltaCurveDeterministic(t *testing.T) {
	run := func(vectorize bool) []RoundDelta {
		p, err := tryBuild(edgeSchema, closureRules,
			Options{SemiNaive: true, Vectorize: vectorize})
		if err != nil {
			t.Fatal(err)
		}
		counter := int64(0)
		if _, err := p.Run(chainEdgeFacts(20), &counter); err != nil {
			t.Fatal(err)
		}
		return p.LastStats().DeltaCurve
	}
	want := run(false)
	if len(want) == 0 {
		t.Fatal("row run recorded no delta curve")
	}
	for _, vectorize := range []bool{false, true} {
		got := run(vectorize)
		if len(got) != len(want) {
			t.Fatalf("vectorize=%v: %d curve points, want %d", vectorize, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vectorize=%v: curve[%d] = %+v, want %+v", vectorize, i, got[i], want[i])
			}
		}
	}
}

// The in-round check must stop a single fat round mid-flight: a
// cross-product rule derives facts far past the budget within round 0,
// so only the cooperative mid-round check can trip — surfacing the
// typed *BudgetError and a guard.check trace event. The row engine
// polls it per candidate fact, the columnar emit loop per valuation
// (its derived rows sit in code space, so the count it reports is kept
// by the plan); both abort with the same attribution and leave the
// input set untouched.
func TestInRoundFactBudgetTrip(t *testing.T) {
	saved := inRoundCheckInterval
	inRoundCheckInterval = 16
	defer func() { inRoundCheckInterval = saved }()

	const crossRules = `same(a: X, b: Y) <- edge(src: X, dst: W), edge(src: Y, dst: Z).`
	for _, vectorize := range []bool{false, true} {
		t.Run(fmt.Sprintf("workers=1/vectorize=%v", vectorize), func(t *testing.T) {
			ct := &collectTracer{}
			opts := Options{SemiNaive: true, Vectorize: vectorize,
				Workers: 1, Budget: Budget{MaxFacts: 50}, Tracer: ct}
			p, err := tryBuild(edgeSchema, crossRules, opts)
			if err != nil {
				t.Fatal(err)
			}
			edb := chainEdgeFacts(100)
			counter := int64(0)
			_, err = p.Run(edb, &counter)
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("err = %v (%T), want *BudgetError", err, err)
			}
			if be.Axis != AxisFacts || be.Stratum != 0 || be.Round != 0 {
				t.Fatalf("abort on %q at stratum %d round %d, want %q at 0/0", be.Axis, be.Stratum, be.Round, AxisFacts)
			}
			if vectorize && (p.LastStats().VectorizedStrata != 1 || be.Facts != 64) {
				// 64 = the first multiple of the check interval past the budget.
				t.Fatalf("columnar abort: %d vectorized strata, %d facts reported; want 1, 64",
					p.LastStats().VectorizedStrata, be.Facts)
			}
			if !edb.Equal(chainEdgeFacts(100)) {
				t.Fatal("the aborted run changed its input set")
			}
			kinds := ct.kinds()
			if kinds[obs.KindGuardCheck] == 0 {
				t.Fatalf("no guard.check event emitted; kinds: %v", kinds)
			}
			if kinds[obs.KindAbort] != 1 {
				t.Fatalf("abort events = %d, want 1; kinds: %v", kinds[obs.KindAbort], kinds)
			}
		})
	}
}

// Cancelling the context from a tracer callback at a round boundary
// must abort inside the round through the cooperative check, not only
// at the next round boundary — on the row engine and in the columnar
// emit loop alike.
func TestInRoundCancellation(t *testing.T) {
	saved := inRoundCheckInterval
	inRoundCheckInterval = 16
	defer func() { inRoundCheckInterval = saved }()

	const crossRules = `same(a: X, b: Y) <- edge(src: X, dst: W), edge(src: Y, dst: Z).`
	for _, vectorize := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		canceler := tracerFunc(func(ev obs.Event) {
			if ev.Kind == obs.KindRoundBegin {
				cancel()
			}
		})
		opts := Options{SemiNaive: true, Vectorize: vectorize, Tracer: canceler}
		p, err := tryBuild(edgeSchema, crossRules, opts)
		if err != nil {
			t.Fatal(err)
		}
		edb := chainEdgeFacts(200)
		counter := int64(0)
		_, err = p.RunContext(ctx, edb, &counter)
		cancel()
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("vectorize=%v: err = %v (%T), want *CanceledError", vectorize, err, err)
		}
		// The cross product would derive ~40000 facts; a mid-round abort
		// stops in round 0, far below that.
		if st := p.LastStats(); st.Abort != "canceled" || st.AbortRound != 0 {
			t.Fatalf("vectorize=%v: Stats.Abort = %q at round %d, want canceled at 0", vectorize, st.Abort, st.AbortRound)
		}
		if !edb.Equal(chainEdgeFacts(200)) {
			t.Fatalf("vectorize=%v: the canceled run changed its input set", vectorize)
		}
	}
}

type tracerFunc func(obs.Event)

func (f tracerFunc) Event(ev obs.Event) { f(ev) }

// Explain must print the delta curve of the last run and no
// configuration lines, and must attribute a budget abort to the rules of
// the aborted stratum.
func TestExplainWorkersAndAbortAttribution(t *testing.T) {
	p, err := tryBuild(edgeSchema, closureRules,
		Options{SemiNaive: true, Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	counter := int64(0)
	if _, err := p.Run(chainEdgeFacts(8), &counter); err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	if strings.Contains(out, "workers:") || strings.Contains(out, "shards:") {
		t.Fatalf("Explain prints configuration lines:\n%s", out)
	}
	if !strings.Contains(out, "delta curve:") {
		t.Fatalf("Explain missing delta curve:\n%s", out)
	}

	pa, err := tryBuild(countingSchema, countingRules,
		Options{SemiNaive: true, Budget: Budget{MaxFacts: 10}})
	if err != nil {
		t.Fatal(err)
	}
	counter = 0
	if _, err := pa.Run(NewFactSet(), &counter); err == nil {
		t.Fatal("divergent program terminated")
	}
	out = pa.Explain()
	if !strings.Contains(out, "aborted: facts]") {
		t.Fatalf("Explain firing table missing abort attribution:\n%s", out)
	}
}
