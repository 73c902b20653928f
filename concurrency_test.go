package logres

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"logres/internal/module"
)

// Concurrent readers and a writer on one Database, exercised under -race:
// read-only methods load the published snapshot without a lock and must
// never observe a half-published state or race on the frozen extensional
// fact set.
func TestConcurrentReadersAndWriter(t *testing.T) {
	db, err := Open(`
domains NAME = string;
associations
  EDGE = (src: NAME, dst: NAME);
  TC = (src: NAME, dst: NAME);
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
mode radi.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
end.
`); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	readErr := make(chan error, 64)

	// Writer: keeps appending edge facts (data-variant applications).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			src := fmt.Sprintf(`
mode radv.
rules edge(src: "n%d", dst: "n%d").
end.
`, i, i+1)
			if _, err := db.Exec(src); err != nil {
				readErr <- fmt.Errorf("writer: %v", err)
				break
			}
		}
		close(stop)
	}()

	// Readers: queries, counts, instance renders, snapshots, explains.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch g % 5 {
				case 0:
					_, err = db.Query(`?- tc(src: X, dst: Y).`)
				case 1:
					_, err = db.Count("tc")
				case 2:
					_, err = db.InstanceString()
				case 3:
					err = db.Save(&bytes.Buffer{})
				case 4:
					db.EDBCount("edge")
					db.RuleCount()
					db.Schema()
					db.Modules()
				}
				if err != nil {
					readErr <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(readErr)
	for err := range readErr {
		t.Error(err)
	}

	// The final state must be intact and queryable.
	n, err := db.Count("tc")
	if err != nil {
		t.Fatal(err)
	}
	if want := 25 * 26 / 2; n != want {
		t.Fatalf("tc count = %d, want %d", n, want)
	}
}

// Mixed writer/reader stress: N goroutines interleave Exec on their own
// predicates, a colliding writer's Exec on all of them, and QueryContext
// for a fixed wall budget. Invariants checked under -race: no lost
// updates (each successfully committed fact is present at the end,
// counted per predicate), and every failed application is a typed guard
// error — never an untyped one, never a corrupted state.
func TestConcurrentModuleMixedStress(t *testing.T) {
	db, err := Open(`
associations
  S0 = (x: integer);
  S1 = (x: integer);
  S2 = (x: integer);
  S3 = (x: integer);
`)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	deadline := time.Now().Add(150 * time.Millisecond)
	var wg sync.WaitGroup
	fatal := make(chan error, 16)
	successes := make([]int, writers)
	collided := make([]int, writers)

	// Owning writers: each owns a predicate and commits unique facts;
	// conflicts retry inside Exec, and exhaustion is a typed, tolerated
	// abort.
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); {
				src := fmt.Sprintf("mode ridv.\nrules s%d(x: %d).\nend.\n", g, i)
				_, err := db.Exec(src)
				switch {
				case err == nil:
					successes[g]++
					i++
				case isTypedGuardError(err):
					// Conflict-retry exhaustion or a budget trip: retry the
					// same fact so the success count matches the EDB.
				default:
					fatal <- fmt.Errorf("writer %d: untyped error %v", g, err)
					return
				}
			}
		}(g)
	}

	// Colliding writer: paced commits into the owners' predicates in
	// turn, with values no owner writes, so owners' commits conflict with
	// it and retry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			g := i % writers
			src := fmt.Sprintf("mode ridv.\nrules s%d(x: %d).\nend.\n", g, -1-i)
			_, err := db.Exec(src)
			switch {
			case err == nil:
				collided[g]++
			case isTypedGuardError(err):
			default:
				fatal <- fmt.Errorf("colliding writer: untyped error %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Readers: context queries and snapshots against the moving state.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			for time.Now().Before(deadline) {
				var err error
				if r == 0 {
					_, err = db.QueryContext(ctx, `?- s0(x: X).`)
				} else {
					err = db.Save(&bytes.Buffer{})
				}
				if err != nil {
					fatal <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(fatal)
	for err := range fatal {
		t.Error(err)
	}

	// No lost updates: every acknowledged commit is in the final state.
	for g := 0; g < writers; g++ {
		if got, want := db.EDBCount(fmt.Sprintf("s%d", g)), successes[g]+collided[g]; got != want {
			t.Errorf("s%d: committed %d facts, EDB has %d", g, want, got)
		}
	}
	if err := db.CheckConsistency(); err != nil {
		t.Errorf("final state inconsistent: %v", err)
	}
}

// isTypedGuardError reports whether err is one of the typed abort errors
// an application is allowed to fail with under contention.
func isTypedGuardError(err error) bool {
	var conflict *ConflictError
	var budget *BudgetError
	var canceled *CanceledError
	return errors.As(err, &conflict) || errors.As(err, &budget) || errors.As(err, &canceled)
}

// A snapshot round-trip must preserve behaviour with the state frozen at
// rest on both sides.
func TestSaveLoadFrozenState(t *testing.T) {
	db, err := Open(`
associations E = (x: integer);
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
mode radv.
rules e(x: 1). e(x: 2).
end.
`); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.EDBCount("e"); got != 2 {
		t.Fatalf("loaded EDB count = %d, want 2", got)
	}
	// The loaded database must still accept writes.
	if _, err := db2.Exec(`
mode radv.
rules e(x: 3).
end.
`); err != nil {
		t.Fatal(err)
	}
	if got := db2.EDBCount("e"); got != 3 {
		t.Fatalf("after write EDB count = %d, want 3", got)
	}
}

// TestConcurrentGoalsBindPrivately answers goals from four goroutines over
// one published snapshot on the row engine, whose rules reach every site
// where the matcher binds a variable: a candidate fact, a candidate that
// fails part-way (loop), negation's active-domain enumeration (sink), =
// with a pattern side (next), member, the built-ins that unify an output
// (union, count) and the object upgrade of a plain oid (aged). The goals
// share the state's compiled program, so a binding kept on it would leak
// between goroutines: each answer must equal the serial one.
func TestConcurrentGoalsBindPrivately(t *testing.T) {
	db, err := Open(`
domains N = integer;
classes
  PERSON = (name: string, age: N);
associations
  INTAKE = (name: string, age: N);
  EDGE = (src: N, dst: N);
  BAG = (id: N, s: {N});
  OWNS = (owner: PERSON, n: N);
  PATH = (src: N, dst: N);
  LOOP = (n: N);
  SINK = (n: N);
  NEXT = (a: N, b: N);
  ELEM = (id: N, n: N);
  MERGED = (id: N, s: {N});
  SIZE = (id: N, n: N);
  AGED = (name: string, n: N);
`, rowOracle()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{`
mode ridv.
rules
  edge(src: 1, dst: 2). edge(src: 2, dst: 3). edge(src: 3, dst: 1).
  edge(src: 3, dst: 4). edge(src: 5, dst: 5). edge(src: 4, dst: 6).
  bag(id: 1, s: {1, 2, 3}). bag(id: 2, s: {4}). bag(id: 3, s: {}).
  intake(name: "ann", age: 30). intake(name: "bob", age: 40).
  person(self: P, name: N, age: A) <- intake(name: N, age: A).
end.
`, `
mode ridv.
rules
  owns(owner: P, n: A) <- person(self: P, age: A).
end.
`, `
mode radi.
rules
  path(src: X, dst: Y) <- edge(src: X, dst: Y).
  path(src: X, dst: Z) <- path(src: X, dst: Y), edge(src: Y, dst: Z).
  loop(n: X) <- path(src: X, dst: X).
  sink(n: X) <- not edge(src: X).
  next(a: X, b: Z) <- edge(src: X, dst: Y), Z = Y + 1.
  elem(id: I, n: X) <- bag(id: I, s: S), member(X, S).
  merged(id: I, s: U) <- bag(id: I, s: S), union(S, {0}, U).
  size(id: I, n: K) <- bag(id: I, s: S), count(S, K).
  aged(name: M, n: K) <- owns(owner: P, n: K), person(P), person(self: P, name: M).
end.
`} {
		if _, err := db.Exec(m); err != nil {
			t.Fatal(err)
		}
	}
	goals := []string{
		"?- path(src: X, dst: Y).",
		"?- loop(n: X).",
		"?- sink(n: X).",
		"?- next(a: X, b: Y).",
		"?- elem(id: I, n: X).",
		"?- merged(id: I, s: S).",
		"?- size(id: I, n: K).",
		"?- aged(name: M, n: K).",
		"?- bag(id: I, s: S), member(X, S), X > 1, Y = X * 2.",
	}
	want := make([]string, len(goals))
	for i, g := range goals {
		ans, err := db.Query(g)
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		if len(ans.Rows) == 0 {
			t.Fatalf("%s: no answer", g)
		}
		want[i] = fmt.Sprint(ans.Rows)
	}
	const goroutines, rounds = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range goals {
					i := (k + w) % len(goals) // each goroutine starts elsewhere
					ans, err := db.Query(goals[i])
					if err != nil {
						errs <- fmt.Errorf("%s: %v", goals[i], err)
						return
					}
					if got := fmt.Sprint(ans.Rows); got != want[i] {
						errs <- fmt.Errorf("%s: %s beside other goals, %s alone", goals[i], got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReportsShareCompiledAuditBesideWrites runs registrar_http's
// transcript report from two goroutines against the published snapshot
// while a writer commits enrolments, drops and new student objects (delta
// and full audits). The readers alternate two forms of the report: as
// registrar_http sends it, a rule-bearing RIDI whose rules no persistent
// rule reads, so it audits only what they add (the delta audit), and under
// `semantics noninflationary.`, which re-derives R's part under other
// semantics and so takes the full Definition 4 audit. Every attempt shares
// the one validated schema and the check Validate compiled for it, so a
// write to either would race: each report must still answer as it does
// alone.
func TestReportsShareCompiledAuditBesideWrites(t *testing.T) {
	db := registrarPreload(t, registrarReportSchema, 1)
	schema := db.snap.Load().st.S
	checks := schema.Checks()
	report := func(student int) (string, error) {
		name := fmt.Sprintf("s%04d", student)
		semantics, audit := "", module.AuditDelta
		if student%2 == 1 {
			semantics, audit = "semantics noninflationary.\n", "full: module semantics"
		}
		var p Profile
		res, err := db.Exec(fmt.Sprintf(`mode ridi.
%srules
  member(C, passed(N)) <- student(self: S, name: N), N = %q, mark(student: S, code: C, grade: G), G >= 18.
  transcript(name: N, passed: P) <- student(name: N), N = %q, P = passed(N).
goal
  ?- transcript(name: %q, passed: P).
end.
`, semantics, name, name, name), WithCallProfile(&p))
		if err != nil {
			return "", fmt.Errorf("report on %s: %v", name, err)
		}
		if p.Audit != audit {
			return "", fmt.Errorf("report on %s: audit %q, want %q", name, p.Audit, audit)
		}
		return fmt.Sprint(res.Answer.Rows), nil
	}
	const readers, reports, writes = 2, 6, 12
	student := func(w, i int) int { return 7*w + i }
	want := map[int]string{}
	for w := 0; w < readers; w++ {
		for i := 0; i < reports; i++ {
			ans, err := report(student(w, i))
			if err != nil {
				t.Fatal(err)
			}
			want[student(w, i)] = ans
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reports; i++ {
				got, err := report(student(w, i))
				if err == nil && got != want[student(w, i)] {
					err = fmt.Errorf("report on student %d: %s beside the writer, %s alone", student(w, i), got, want[student(w, i)])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			var src string
			switch s := 100 + i/3; i % 3 {
			case 0:
				src = registrarEnrol(s, (s+1)%15)
			case 1:
				src = "  not " + strings.TrimPrefix(registrarEnrol(s, (s+1)%15), "  ")
			default:
				src = fmt.Sprintf("  intake(name: \"w%02d\", kind: \"student\", detail: \"\").\n", i) +
					fmt.Sprintf("  student(self: S, name: N, year: 2) <- intake(name: N), N = \"w%02d\".\n", i)
			}
			if _, err := db.Exec("mode ridv.\nrules\n" + src + "end.\n"); err != nil {
				errs <- fmt.Errorf("write %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := db.snap.Load().st; st.S != schema || st.S.Checks() != checks {
		t.Fatal("the commits replaced the schema or recompiled its check")
	}
}
