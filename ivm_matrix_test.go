package logres

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"logres/internal/engine"
	"logres/internal/hooks"
	"logres/internal/obs"
)

// Top-level differential property for incremental view maintenance: a
// database opened with WithIncremental must, after every commit of a
// mixed workload (locked and optimistic applications, insertions and
// RDDV deletions), render exactly the instance a from-scratch database
// renders on the row oracle, and persist exactly the same Save bytes —
// under the defaults and on the row oracle (engineLegs), each also from
// scratch, over program classes covering a non-recursive stratum with
// facts of more than one derivation (counting, a name test names keep),
// recursive closure, stratified negation (suffix recomputation), and
// oid-inventing fallback strata, one of them over a non-linear closure.

const ivmMatrixSchema = `
classes
  MARK = (tag: integer);
associations
  NODE = (n: integer);
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
  SAME = (a: integer, b: integer);
  UNREACH = (a: integer, b: integer);
`

var ivmMatrixPrograms = []struct {
	name  string
	setup string // a module run before rules, when set
	rules string
}{
	{"counting", "", `
mode radv.
rules
  same(a: X, b: Y) <- edge(src: X, dst: Y), edge(src: Y, dst: X).
  same(a: X, b: X) <- node(n: X).
end.
`},
	{"closure", "", `
mode radv.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
end.
`},
	{"negation", "", `
mode radv.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
  unreach(a: X, b: Y) <- node(n: X), node(n: Y), not tc(src: X, dst: Y).
end.
`},
	{"mixed-fallback", "", `
mode radv.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
  mark(tag: X) <- node(n: X), not tc(src: X, dst: X).
end.
`},
	{"nonlinear-invention", "", `
mode radv.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), tc(src: Y, dst: Z).
  mark(tag: Y) <- tc(src: 1, dst: Y).
end.
`},
	// Every commit gives the one MARK object, in one step, a tag per node
	// reachable from node 1 and per node reaching it: an in-step ⊕
	// conflict, which the greatest valuation key decides.
	{"in-step-conflict", "mode ridv.\nrules\n  mark(tag: 0).\nend.\n", `
mode radi.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
  mark(self: M, tag: Y) <- mark(self: M, tag: 0), tc(src: 1, dst: Y).
  mark(self: M, tag: X) <- mark(self: M, tag: 0), tc(src: X, dst: 1).
end.
`},
}

// ivmMatrixCommits is the shared commit script: a base graph, then
// insertions and deletions through both the locked attempt (the retry
// budget's last) and the optimistic one (the rddv modules subtract edge
// facts from E; the persistent rules are untouched, so these exercise
// delta propagation and DRed rederivation rather than a rebuild).
func ivmMatrixCommits() []struct {
	src    string
	locked bool
} {
	var base strings.Builder
	base.WriteString("mode ridv.\nrules\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&base, "  edge(src: %d, dst: %d).\n", i, i+1)
		fmt.Fprintf(&base, "  node(n: %d).\n", i)
	}
	base.WriteString("  edge(src: 10, dst: 0).\nend.\n")
	return []struct {
		src    string
		locked bool
	}{
		{base.String(), true},
		{"mode ridv.\nrules\n  edge(src: 3, dst: 7).\n  edge(src: 7, dst: 2).\nend.\n", false},
		{"mode rddv.\nrules\n  edge(src: 4, dst: 5).\nend.\n", false},
		{"mode ridv.\nrules\n  edge(src: 5, dst: 4).\n  node(n: 11).\nend.\n", true},
		{"mode rddv.\nrules\n  edge(src: 10, dst: 0).\n  edge(src: 0, dst: 1).\nend.\n", false},
		{"mode ridv.\nrules\n  edge(src: 0, dst: 1).\nend.\n", false},
		{"mode rddv.\nrules\n  node(n: 11).\n  edge(src: 3, dst: 7).\nend.\n", true},
	}
}

// ivmOracleRun replays the script on a plain (from-scratch) database on
// the row oracle and records the instance rendering after every commit
// plus the final Save bytes.
func ivmOracleRun(t *testing.T, setup, rules string) (instances []string, save string) {
	t.Helper()
	db, err := Open(ivmMatrixSchema, rowOracle()...)
	if err != nil {
		t.Fatal(err)
	}
	ivmMatrixInstall(t, db, setup, rules)
	for _, c := range ivmMatrixCommits() {
		if _, err := db.Exec(c.src); err != nil {
			t.Fatal(err)
		}
		in, err := db.InstanceString()
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, in)
	}
	var sb strings.Builder
	if err := db.Save(&sb2{&sb}); err != nil {
		t.Fatal(err)
	}
	return instances, sb.String()
}

// ivmMatrixInstall runs a program's setup module, when it has one, and
// then its rules.
func ivmMatrixInstall(t *testing.T, db *Database, setup, rules string) {
	t.Helper()
	for _, m := range []string{setup, rules} {
		if m == "" {
			continue
		}
		if _, err := db.Exec(m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIncrementalSaveBytesMatrix(t *testing.T) {
	for _, prog := range ivmMatrixPrograms {
		prog := prog
		t.Run(prog.name, func(t *testing.T) {
			wantInstances, wantSave := ivmOracleRun(t, prog.setup, prog.rules)
			if !strings.Contains(wantInstances[0], "(") {
				t.Fatal("oracle derived nothing")
			}
			var fullInstances []string
			var fullSave string
			withIsaFullPass(func() { fullInstances, fullSave = ivmOracleRun(t, prog.setup, prog.rules) })
			if !slices.Equal(fullInstances, wantInstances) || fullSave != wantSave {
				t.Fatal("the row oracle diverges from its run with full isa passes")
			}
			for _, leg := range engineLegs() {
				for _, incremental := range []bool{false, true} {
					db, err := Open(ivmMatrixSchema, append(leg.opts, WithIncremental(incremental))...)
					if err != nil {
						t.Fatal(err)
					}
					ivmMatrixInstall(t, db, prog.setup, prog.rules)
					for i, c := range ivmMatrixCommits() {
						hooks.LockedApply.Store(c.locked)
						_, err = db.Exec(c.src)
						hooks.LockedApply.Store(false)
						if err != nil {
							t.Fatal(err)
						}
						got, err := db.InstanceString()
						if err != nil {
							t.Fatal(err)
						}
						if got != wantInstances[i] {
							t.Fatalf("%s, incremental=%v, commit %d: instance diverges from scratch", leg.name, incremental, i)
						}
						if incremental {
							assertMaintainerSynced(t, db, fmt.Sprintf("%s, commit %d", leg.name, i))
						}
					}
					var sb strings.Builder
					if err := db.Save(&sb2{&sb}); err != nil {
						t.Fatal(err)
					}
					if sb.String() != wantSave {
						t.Fatalf("%s, incremental=%v: Save bytes diverge from scratch", leg.name, incremental)
					}
				}
			}
		})
	}
}

// assertMaintainerSynced checks that a maintainer serves db's published
// state and runs a fork of its program, which is what lets an
// application defer its audit to the commit without comparing programs.
func assertMaintainerSynced(t *testing.T, db *Database, step string) {
	t.Helper()
	s := db.snap.Load()
	if s.maint == nil {
		t.Fatalf("%s: no maintainer serves the published state", step)
	}
	prog, err := s.st.Program(maintOptions(s.opts))
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if !s.maint.Program().Shares(prog) {
		t.Fatalf("%s: the maintainer does not run the published state's program", step)
	}
}

// TestMaintainerFollowsEveryCommitKind pins that after a commit of every
// kind — optimistic, locked and merged deltas, replacements that keep or
// change the program, a registration, a call, Materialize, a rejection —
// the maintainer is healthy, runs the published state's program and
// holds the instance a from-scratch derivation gives, that each commit
// delivers one diff, and which maintenance step each took. A
// registration propagates nothing.
func TestMaintainerFollowsEveryCommitKind(t *testing.T) {
	db, err := Open(ivmMatrixSchema, WithIncremental(true))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := db.SubscribeView(SubscribeOptions{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	rt := &recordingTracer{}
	db.SetTracer(rt)
	exec := func(src string) func() error {
		return func() error { _, err := db.Exec(src); return err }
	}
	const (
		propagate = "ivm.propagate"
		rebuild   = "ivm.rebuild"
	)
	steps := []struct {
		name   string
		do     func() error
		reject bool
		maint  string // the maintenance events the step emits, in order
	}{
		{"radv (new program)", exec(ivmMatrixPrograms[2].rules), false, rebuild},
		{"ridv", exec("mode ridv.\nrules\n  edge(src: 1, dst: 2). edge(src: 2, dst: 3). node(n: 1).\nend.\n"), false, propagate},
		{"locked ridv", func() error {
			hooks.LockedApply.Store(true)
			defer hooks.LockedApply.Store(false)
			_, err := db.Exec("mode ridv.\nrules\n  edge(src: 3, dst: 1).\nend.\n")
			return err
		}, false, propagate},
		{"merged ridv", func() error {
			hooks.ConcurrentPreCommit = func(attempt int) {
				if attempt == 0 {
					execLocked(t, db, "mode ridv.\nrules\n  same(a: 7, b: 7).\nend.\n")
				}
			}
			defer func() { hooks.ConcurrentPreCommit = nil }()
			_, err := db.Exec("mode ridv.\nrules\n  edge(src: 2, dst: 4).\nend.\n")
			return err
		}, false, propagate + " " + propagate},
		{"rddv", exec("mode rddv.\nrules\n  edge(src: 1, dst: 2).\nend.\n"), false, propagate},
		{"radi denial (new program)", exec("mode radi.\nrules\n  <- edge(src: 9, dst: 9).\nend.\n"), false, rebuild},
		{"rejected ridv", exec("mode ridv.\nrules\n  edge(src: 9, dst: 9).\nend.\n"), true, ""},
		{"ridv redeclaring (same program)", exec("mode ridv.\nassociations\n  EDGE = (src: integer, dst: integer);\nrules\n  edge(src: 5, dst: 6).\nend.\n"), false, propagate},
		{"register", func() error { return db.Register("module grow.\nmode ridv.\nrules\n  edge(src: 6, dst: 7).\nend.\n") }, false, ""},
		{"call", func() error { _, err := db.Call("grow"); return err }, false, propagate},
		{"rddi (new program)", exec("mode rddi.\nrules\n  <- edge(src: 9, dst: 9).\nend.\n"), false, rebuild},
		{"materialize", db.Materialize, false, rebuild},
	}
	for _, st := range steps {
		epoch := db.CommitEpoch()
		rt.mu.Lock()
		rt.events = nil
		rt.mu.Unlock()
		err := st.do()
		if st.reject != (err != nil) {
			t.Fatalf("%s: err = %v, want rejection %v", st.name, err, st.reject)
		}
		var maint []string
		for _, ev := range rt.events {
			if ev.Kind == propagate || ev.Kind == rebuild {
				maint = append(maint, string(ev.Kind))
			}
		}
		if got := strings.Join(maint, " "); got != st.maint {
			t.Fatalf("%s: maintenance %q, want %q", st.name, got, st.maint)
		}
		if last := rt.events[len(rt.events)-1]; strings.HasPrefix(st.name, "merged") &&
			(last.Kind != obs.KindModuleCommit || last.Detail != "merge") {
			t.Fatalf("%s: the commit did not take the merge path", st.name)
		}
		assertMaintainerSynced(t, db, st.name)
		got, err := db.InstanceString()
		if err != nil {
			t.Fatal(err)
		}
		s := db.snap.Load()
		f, err := s.st.Derive(s.opts)
		want := ""
		if err == nil {
			want = engine.ToInstance(f, s.st.S, 0).String()
		}
		if err != nil || got != want {
			t.Fatalf("%s: the maintained instance differs from a derivation (%v)", st.name, err)
		}
		for e := epoch + 1; e <= db.CommitEpoch(); e++ {
			if d := <-sub.C; d.Epoch != e {
				t.Fatalf("%s: diff for epoch %d, want %d", st.name, d.Epoch, e)
			}
		}
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("the subscription ended: %v", err)
	}
}

// TestSubscribeViewDiffs pins the subscription contract on a single
// writer: one diff per state-changing commit epoch, in order, carrying
// the exact fact-level change; predicate filters narrow the payload but
// never the epoch sequence; Close ends the stream with a nil Err.
func TestSubscribeViewDiffs(t *testing.T) {
	db, err := Open(ivmMatrixSchema, WithIncremental(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ivmMatrixPrograms[1].rules); err != nil { // closure
		t.Fatal(err)
	}
	sub, err := db.SubscribeView(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tcOnly, err := db.SubscribeView(SubscribeOptions{Preds: []string{"tc"}})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Epoch != db.CommitEpoch() {
		t.Fatalf("subscription epoch %d, want %d", sub.Epoch, db.CommitEpoch())
	}
	if _, err := db.Exec("mode ridv.\nrules\n  edge(src: 1, dst: 2).\n  edge(src: 2, dst: 3).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("mode rddv.\nrules\n  edge(src: 1, dst: 2).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	d1 := <-sub.C
	if d1.Epoch != sub.Epoch+1 {
		t.Fatalf("first diff epoch %d, want %d", d1.Epoch, sub.Epoch+1)
	}
	// edge(1,2), edge(2,3) plus tc over them: 2 base + 3 closure adds.
	if len(d1.Adds) != 5 || len(d1.Removes) != 0 {
		t.Fatalf("first diff: %d adds / %d removes, want 5/0", len(d1.Adds), len(d1.Removes))
	}
	d2 := <-sub.C
	if d2.Epoch != sub.Epoch+2 {
		t.Fatalf("second diff epoch %d, want %d", d2.Epoch, sub.Epoch+2)
	}
	// Deleting edge(1,2) retracts it and tc(1,2), tc(1,3).
	if len(d2.Adds) != 0 || len(d2.Removes) != 3 {
		t.Fatalf("second diff: %d adds / %d removes, want 0/3", len(d2.Adds), len(d2.Removes))
	}
	f1 := <-tcOnly.C
	if len(f1.Adds) != 3 {
		t.Fatalf("filtered first diff: %d adds, want 3 tc facts", len(f1.Adds))
	}
	for _, f := range f1.Adds {
		if f.Pred != "tc" {
			t.Fatalf("filtered diff leaked predicate %q", f.Pred)
		}
	}
	sub.Close()
	if _, ok := <-sub.C; ok && func() bool { _, ok2 := <-sub.C; return ok2 }() {
		t.Fatal("closed subscription kept delivering")
	}
	if sub.Err() != nil {
		t.Fatalf("closed subscription err = %v, want nil", sub.Err())
	}
	tcOnly.Close()
	if db.Subscribers() != 0 {
		t.Fatalf("%d subscribers after close, want 0", db.Subscribers())
	}
}

// TestSubscribeRequiresIncremental pins the typed rejection.
func TestSubscribeRequiresIncremental(t *testing.T) {
	db, err := Open(ivmMatrixSchema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SubscribeView(SubscribeOptions{}); !errors.Is(err, ErrNotIncremental) {
		t.Fatalf("err = %v, want ErrNotIncremental", err)
	}
}

// TestSlowConsumerDisconnect pins the backpressure contract: a
// subscriber whose buffer is full when a commit fans out is detached
// with a typed *SlowConsumerError and its channel closes; commits are
// never blocked.
func TestSlowConsumerDisconnect(t *testing.T) {
	db, err := Open(ivmMatrixSchema, WithIncremental(true))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := db.SubscribeView(SubscribeOptions{Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Three commits against a buffer of two, with nobody receiving: the
	// third fan-out must disconnect the subscriber.
	for i := 0; i < 3; i++ {
		src := fmt.Sprintf("mode ridv.\nrules\n  node(n: %d).\nend.\n", i)
		if _, err := db.Exec(src); err != nil {
			t.Fatal(err)
		}
	}
	var got []ViewDiff
	for d := range sub.C {
		got = append(got, d)
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d diffs before disconnect, want 2", len(got))
	}
	var slow *SlowConsumerError
	if !errors.As(sub.Err(), &slow) {
		t.Fatalf("err = %v, want *SlowConsumerError", sub.Err())
	}
	if slow.Buffer != 2 {
		t.Fatalf("SlowConsumerError.Buffer = %d, want 2", slow.Buffer)
	}
	if db.Subscribers() != 0 {
		t.Fatalf("%d subscribers after disconnect, want 0", db.Subscribers())
	}
}

// TestIncrementalRuleChangeRebuild pins the fingerprint fallback: a
// rule-changing commit (RADV) rebuilds the maintenance state and still
// delivers the exact diff to subscribers.
func TestIncrementalRuleChangeRebuild(t *testing.T) {
	db, err := Open(ivmMatrixSchema, WithIncremental(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("mode ridv.\nrules\n  edge(src: 1, dst: 2).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	sub, err := db.SubscribeView(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ivmMatrixPrograms[1].rules); err != nil { // install closure rules
		t.Fatal(err)
	}
	d := <-sub.C
	if len(d.Adds) != 1 || d.Adds[0].Pred != "tc" {
		t.Fatalf("rebuild diff = %d adds (%v), want the single tc fact", len(d.Adds), d.Adds)
	}
	got, err := db.InstanceString()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Open(ivmMatrixSchema, rowOracle()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Exec("mode ridv.\nrules\n  edge(src: 1, dst: 2).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Exec(ivmMatrixPrograms[1].rules); err != nil {
		t.Fatal(err)
	}
	want, err := plain.InstanceString()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("instance after rule-change rebuild diverges from scratch")
	}
}

// TestIncrementalQueryAndRegister covers the remaining commit shapes:
// option-free queries serve from the maintained set, and a module
// registration (which bumps the epoch without touching the instance)
// delivers its empty per-epoch diff.
func TestIncrementalQueryAndRegister(t *testing.T) {
	db, err := Open(ivmMatrixSchema, WithIncremental(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ivmMatrixPrograms[1].rules); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("mode ridv.\nrules\n  edge(src: 1, dst: 2).\n  edge(src: 2, dst: 3).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	ans, err := db.Query(`?- tc(src: 1, dst: X).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 2 {
		t.Fatalf("query over maintained set: %d rows, want 2", len(ans.Rows))
	}
	sub, err := db.SubscribeView(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register("module m1.\nrules\ngoal\n  ?- tc(src: X, dst: Y).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	d := <-sub.C
	if len(d.Adds) != 0 || len(d.Removes) != 0 {
		t.Fatalf("registration diff not empty: %d adds / %d removes", len(d.Adds), len(d.Removes))
	}
	if d.Epoch != sub.Epoch+1 {
		t.Fatalf("registration diff epoch %d, want %d", d.Epoch, sub.Epoch+1)
	}
}

// TestRejectedCommitKeepsMaintainer: a commit whose propagation fails
// (its recursive negation suffix exhausts the facts budget between
// rounds), and which the attempt's derivation from scratch then rejects
// on the same budget, publishes nothing: the maintainer of the unchanged state
// keeps serving it, so a subscription opens and the next commit
// propagates instead of rebuilding.
func TestRejectedCommitKeepsMaintainer(t *testing.T) {
	db, err := Open(ivmMatrixSchema, WithIncremental(true), WithBudget(Budget{MaxFacts: 40}))
	if err != nil {
		t.Fatal(err)
	}
	var nodes, chain strings.Builder
	nodes.WriteString("mode ridv.\nrules\n  edge(src: 0, dst: 1).\n")
	chain.WriteString("mode ridv.\nrules\n")
	for n := 0; n < 13; n++ {
		fmt.Fprintf(&nodes, "  node(n: %d).\n", n)
		if n > 0 && n < 12 {
			fmt.Fprintf(&chain, "  edge(src: %d, dst: %d).\n", n, n+1)
		}
	}
	nodes.WriteString("end.\n")
	chain.WriteString("end.\n")
	ivmMatrixInstall(t, db, nodes.String(), `
mode radv.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
  unreach(a: X, b: Y) <- node(n: X), edge(src: X, dst: Y), not tc(src: Y, dst: X).
  unreach(a: X, b: Z) <- unreach(a: X, b: Y), edge(src: Y, dst: Z).
end.
`)
	rt := &recordingTracer{}
	db.SetTracer(rt)
	_, err = db.Exec(chain.String())
	var be *BudgetError
	if !errors.As(err, &be) || be.Axis != AxisFacts {
		t.Fatalf("err = %v, want a facts-axis *BudgetError", err)
	}
	if n := rt.count(obs.KindIVMPropagate) + rt.count(obs.KindIVMRebuild); n != 0 {
		t.Fatalf("the rejected commit reported %d maintenance steps", n)
	}
	sub, err := db.SubscribeView(SubscribeOptions{})
	if err != nil {
		t.Fatalf("the rejected commit left the maintainer failed: %v", err)
	}
	defer sub.Close()
	if _, err := db.Exec("mode ridv.\nrules\n  edge(src: 1, dst: 0).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	if n := rt.count(obs.KindIVMPropagate); n != 1 || rt.count(obs.KindIVMRebuild) != 0 {
		t.Fatalf("%d propagations and %d rebuilds, want the commit propagated", n, rt.count(obs.KindIVMRebuild))
	}
}
