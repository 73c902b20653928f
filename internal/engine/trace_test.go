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
// must be byte-identical across workers × shards configurations, the
// flight recorder must capture aborts (a panicking worker included),
// and the in-round guard check must trip mid-round with a guard.check
// event.

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

// collectTracer records events for assertions. Safe for concurrent use
// (in-round guard trips can arrive from worker goroutines).
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

// canonicalTrace runs the trace program at one workers × shards
// configuration and returns the canonical JSONL stream.
func canonicalTrace(t *testing.T, workers, shards int) string {
	t.Helper()
	var buf bytes.Buffer
	opts := Options{MaxSteps: 10000, SemiNaive: true, Stratify: true,
		Workers: workers, Shards: shards, Tracer: obs.NewCanonicalJSONL(&buf)}
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

// The canonical event stream must be byte-identical across every
// workers × shards configuration — the trace extension of the engine's
// bit-identical-results contract.
func TestTraceDeterminismAcrossConfigs(t *testing.T) {
	want := canonicalTrace(t, 1, 1)
	if want == "" {
		t.Fatal("serial trace is empty")
	}
	for _, kind := range []string{`"kind":"round.end"`, `"kind":"rule.fire"`, `"kind":"oid.invent"`, `"kind":"stratum.begin"`} {
		if !strings.Contains(want, kind) {
			t.Fatalf("serial trace missing %s:\n%s", kind, want)
		}
	}
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers=%d/shards=%d", workers, shards), func(t *testing.T) {
				got := canonicalTrace(t, workers, shards)
				if got != want {
					t.Fatalf("canonical trace diverged from serial\nserial:\n%s\ngot:\n%s", want, got)
				}
			})
		}
	}
}

// The per-round delta curve recorded on Stats must also be
// configuration-independent (it is derived from the same boundaries the
// trace reports).
func TestDeltaCurveDeterministic(t *testing.T) {
	run := func(workers, shards int) []RoundDelta {
		p, err := tryBuild(edgeSchema, closureRules,
			Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: workers, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		counter := int64(0)
		if _, err := p.Run(chainEdgeFacts(20), &counter); err != nil {
			t.Fatal(err)
		}
		return p.LastStats().DeltaCurve
	}
	want := run(1, 1)
	if len(want) == 0 {
		t.Fatal("serial run recorded no delta curve")
	}
	for _, cfg := range [][2]int{{1, 4}, {4, 1}, {4, 4}} {
		got := run(cfg[0], cfg[1])
		if len(got) != len(want) {
			t.Fatalf("workers=%d shards=%d: %d curve points, want %d", cfg[0], cfg[1], len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d shards=%d: curve[%d] = %+v, want %+v", cfg[0], cfg[1], i, got[i], want[i])
			}
		}
	}
}

// A flight recorder attached as the tracer must capture the abort event
// of a panicking worker and write its dump.
func TestFlightRecorderSurvivesWorkerPanic(t *testing.T) {
	testWorkerPanic = func(r *crule) {
		if strings.Contains(r.String(), "tc") {
			panic("poisoned rule body")
		}
	}
	defer func() { testWorkerPanic = nil }()

	fr := obs.NewFlightRecorder(64)
	var dump bytes.Buffer
	fr.SetDumpOnAbort(&dump)
	opts := Options{MaxSteps: 10000, SemiNaive: true, Stratify: true,
		Workers: 4, Shards: 4, Tracer: fr}
	p, err := tryBuild(edgeSchema, closureRules, opts)
	if err != nil {
		t.Fatal(err)
	}
	counter := int64(0)
	_, err = p.Run(chainEdgeFacts(16), &counter)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if fr.Dumps() != 1 {
		t.Fatalf("Dumps() = %d, want 1", fr.Dumps())
	}
	if !strings.Contains(dump.String(), "abort") || !strings.Contains(dump.String(), "flight recorder") {
		t.Fatalf("dump missing abort event:\n%s", dump.String())
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
	for _, c := range []struct {
		workers   int
		vectorize bool
	}{{1, false}, {4, false}, {1, true}} {
		t.Run(fmt.Sprintf("workers=%d/vectorize=%v", c.workers, c.vectorize), func(t *testing.T) {
			ct := &collectTracer{}
			opts := Options{MaxSteps: 1 << 30, SemiNaive: true, Stratify: true, Vectorize: c.vectorize,
				Workers: c.workers, Shards: 1, Budget: Budget{MaxFacts: 50}, Tracer: ct}
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
			if c.vectorize && (p.LastStats().VectorizedStrata != 1 || be.Facts != 64) {
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
		opts := Options{MaxSteps: 1 << 30, SemiNaive: true, Stratify: true, Workers: 1,
			Vectorize: vectorize, Tracer: canceler}
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

// Explain must print the workers/shards lines only when the last run
// actually fanned out, and must attribute a budget abort to the rules
// of the aborted stratum.
func TestExplainWorkersAndAbortAttribution(t *testing.T) {
	p, err := tryBuild(edgeSchema, closureRules,
		Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	counter := int64(0)
	if _, err := p.Run(chainEdgeFacts(8), &counter); err != nil {
		t.Fatal(err)
	}
	if out := p.Explain(); strings.Contains(out, "workers:") {
		t.Fatalf("serial Explain prints workers:\n%s", out)
	}

	p4, err := tryBuild(edgeSchema, closureRules,
		Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 4, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	counter = 0
	if _, err := p4.Run(chainEdgeFacts(8), &counter); err != nil {
		t.Fatal(err)
	}
	out := p4.Explain()
	if !strings.Contains(out, "workers: 4") || !strings.Contains(out, "shards: 4") {
		t.Fatalf("parallel Explain missing workers/shards:\n%s", out)
	}
	if !strings.Contains(out, "delta curve:") {
		t.Fatalf("Explain missing delta curve:\n%s", out)
	}

	pa, err := tryBuild(countingSchema, countingRules,
		Options{MaxSteps: 1 << 30, SemiNaive: true, Stratify: true, Budget: Budget{MaxFacts: 10}})
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
