package logres

import (
	"bytes"
	"context"
	"testing"

	"logres/internal/obs"
	"logres/internal/parser"
)

// Per-call profiling through the public API: WithCallProfile fills an
// EXPLAIN-ANALYZE-style account of the call, and neither profiling nor
// request spans may perturb the canonical (deterministic) trace stream.

// TestWithCallProfileApply: an apply fills the profile with the
// committed attempt's strata, rounds, and commit path.
func TestWithCallProfileApply(t *testing.T) {
	db, err := Open(obsSchema)
	if err != nil {
		t.Fatal(err)
	}
	m, err := parser.ParseModule(obsModule)
	if err != nil {
		t.Fatal(err)
	}

	var p Profile
	if _, err := db.Apply(m, m.Mode, WithCallProfile(&p)); err != nil {
		t.Fatal(err)
	}
	if p.WallNS <= 0 || p.EvalNS <= 0 {
		t.Fatalf("profile wall/eval = %d/%d, want > 0", p.WallNS, p.EvalNS)
	}
	if p.Rounds == 0 || p.Facts == 0 || len(p.Strata) == 0 {
		t.Fatalf("profile rounds/facts/strata = %d/%d/%d", p.Rounds, p.Facts, len(p.Strata))
	}
	if p.CommitPath == "" {
		t.Fatal("profile commit path empty")
	}
	// The transitive closure needs several rounds; its delta curve must
	// end at the fixpoint.
	var rounds int
	for _, st := range p.Strata {
		rounds += st.Rounds
		if st.Mode == "" {
			t.Fatalf("stratum %d has no mode", st.Stratum)
		}
	}
	if rounds != p.Rounds {
		t.Fatalf("stratum rounds sum %d != profile rounds %d", rounds, p.Rounds)
	}
}

// TestExecReportsCommit: an uncontended Exec commits like any other
// application — on the fast path, named in its profile and counted by
// logres_module_commits_total.
func TestExecReportsCommit(t *testing.T) {
	m := NewMetrics()
	db, err := Open(obsSchema, WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	var p Profile
	if _, err := db.Exec("mode ridv.\nrules\n  edge(src: 1, dst: 2).\nend.\n", WithCallProfile(&p)); err != nil {
		t.Fatal(err)
	}
	if p.CommitPath != "fast" {
		t.Fatalf("profile commit path = %q, want fast", p.CommitPath)
	}
	if n := m.Counter("logres_module_commits_total").Value(); n != 1 {
		t.Fatalf("logres_module_commits_total = %d, want 1", n)
	}
}

// TestWithCallProfileQuery: queries profile too (read-only, no commit).
func TestWithCallProfileQuery(t *testing.T) {
	db, err := Open(obsSchema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(obsModule); err != nil {
		t.Fatal(err)
	}
	var p Profile
	ans, err := db.Query("?- tc(src: 1, dst: X).", WithCallProfile(&p))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(ans.Rows))
	}
	if p.Rounds == 0 || len(p.Strata) == 0 {
		t.Fatalf("query profile rounds/strata = %d/%d", p.Rounds, len(p.Strata))
	}
	if p.Retries != 0 || p.WALAppends != 0 {
		t.Fatalf("query profile carries write-side work: %+v", p)
	}
}

// TestProfileNamesAudit: the call profile and the module.end event name
// the consistency audit each commit ran; a goal-only query runs none.
func TestProfileNamesAudit(t *testing.T) {
	rt := &recordingTracer{}
	db, err := Load(bytes.NewReader(auditPreloaded(t)), WithTracer(rt))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ rules, audit string }{
		{`enrolled(student: S, section: X) <- student(self: S, name: "bob"), section(self: X, code: "lp201").`, "delta"},
		{`intake(name: "cho"). student(self: S, name: N, year: 1) <- intake(name: N).`, "full: class fact in delta"},
	} {
		var p Profile
		if _, err := db.Exec("mode ridv.\nrules\n  "+c.rules+"\nend.\n", WithCallProfile(&p)); err != nil {
			t.Fatal(err)
		}
		if p.Audit != c.audit {
			t.Fatalf("profile audit = %q, want %q", p.Audit, c.audit)
		}
		rt.mu.Lock()
		var end TraceEvent
		for _, ev := range rt.events {
			if ev.Kind == obs.KindModuleEnd {
				end = ev
			}
		}
		rt.mu.Unlock()
		if end.Reason != c.audit {
			t.Fatalf("module.end reason = %q, want %q", end.Reason, c.audit)
		}
	}
	var p Profile
	if _, err := db.Query(`?- enrolled(student: S).`, WithCallProfile(&p)); err != nil {
		t.Fatal(err)
	}
	if p.Audit != "" {
		t.Fatalf("a goal-only query reports audit %q", p.Audit)
	}
}

// TestProfilingPreservesCanonicalTrace: the acceptance criterion's
// determinism half — running the same module with profiling and a
// request span produces a canonical JSONL stream byte-identical to an
// unprofiled, span-free run.
func TestProfilingPreservesCanonicalTrace(t *testing.T) {
	run := func(profile bool) []byte {
		var buf bytes.Buffer
		db, err := Open(obsSchema, WithTracer(obs.NewCanonicalJSONL(&buf)))
		if err != nil {
			t.Fatal(err)
		}
		m, err := parser.ParseModule(obsModule)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var opts []CallOption
		if profile {
			span := obs.NewSpan("req-determinism", "trace", "parent")
			span.EnableProfile()
			ctx = obs.ContextWithSpan(ctx, span)
			var p Profile
			opts = append(opts, WithCallProfile(&p))
		}
		if _, err := db.ApplyContext(ctx, m, m.Mode, opts...); err != nil {
			t.Fatal(err)
		}
		if _, err := db.QueryContext(ctx, "?- tc(src: 1, dst: X).", opts...); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	plain := run(false)
	profiled := run(true)
	if len(plain) == 0 {
		t.Fatal("canonical trace empty")
	}
	if !bytes.Equal(plain, profiled) {
		t.Fatalf("canonical trace drifted under profiling:\n--- plain ---\n%s--- profiled ---\n%s", plain, profiled)
	}
}

// TestNoSpanNoProfileFastPath: without a span or profile request the
// call options resolve to the exact tracer configured on the database —
// instrumentCall must not wrap anything.
func TestNoSpanNoProfileFastPath(t *testing.T) {
	db, err := Open(obsSchema)
	if err != nil {
		t.Fatal(err)
	}
	var eopts = db.opts
	finish := instrumentCall(context.Background(), &eopts, nil)
	finish()
	if eopts.Tracer != db.opts.Tracer {
		t.Fatal("instrumentCall wrapped the tracer with no span and no profile")
	}
}
