package logres

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"logres/internal/engine"
	"logres/internal/hooks"
	"logres/internal/module"
	"logres/internal/obs"
	"logres/internal/parser"
	"logres/internal/storage"
	"logres/internal/value"
)

const durableSchema = `
associations
  Q0 = (x: integer);
  Q1 = (x: integer);
  Q2 = (x: integer);
  Q3 = (x: integer);
`

func durableMod(pred string, v int) string {
	return fmt.Sprintf("mode ridv.\nrules\n  %s(x: %d).\nend.\n", pred, v)
}

// ---------------------------------------------------------------------------
// Reopen equivalence: recovery reproduces Save bytes exactly
// ---------------------------------------------------------------------------

func TestDurableReopenReproducesState(t *testing.T) {
	dir := t.TempDir()
	db, rec, err := OpenDurable(durableSchema, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatalf("fresh directory reported a recovery: %+v", rec)
	}
	if !db.Durable() {
		t.Fatal("OpenDurable database is not durable")
	}

	// Exercise every commit shape: a data commit by the locked attempt,
	// an optimistic delta commit, rule-adding replacement, module
	// registration, a call of the registered module, and materialization.
	execLocked(t, db, durableMod("q0", 1))
	if _, err := db.Exec(durableMod("q1", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("mode radv.\nrules\n  q2(x: X) <- q0(x: X).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("module fill.\nmode ridv.\nrules\n  q3(x: 7).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Call("fill"); err != nil {
		t.Fatal(err)
	}
	if err := db.Materialize(); err != nil {
		t.Fatal(err)
	}
	want := saveBytesDurable(t, db)
	wantEpoch := db.CommitEpoch()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, rec2, err := OpenDurable(durableSchema, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rec2 == nil || rec2.Tail != nil {
		t.Fatalf("reopen recovery = %+v", rec2)
	}
	if got := saveBytesDurable(t, db2); !bytes.Equal(got, want) {
		t.Fatal("recovered Save bytes differ from pre-close state")
	}
	if db2.CommitEpoch() != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", db2.CommitEpoch(), wantEpoch)
	}
	if rep := db2.Recovery(); rep == nil || rep.Epoch != wantEpoch {
		t.Fatalf("Recovery() = %+v", rep)
	}
	// The recovered library works.
	if _, err := db2.Call("fill"); err != nil {
		t.Fatal(err)
	}
	// The recovered database keeps committing durably.
	if _, err := db2.Exec(durableMod("q0", 50)); err != nil {
		t.Fatal(err)
	}
}

func saveBytesDurable(t *testing.T, db *Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSerialCommitsLogDeltas: a data-variant commit — Exec or Call,
// optimistic or the locked attempt — logs a fact delta; rule changes and
// Materialize still log whole-state replacements. Recovery reproduces
// the state, oid counter included: an inventing commit afterwards gives
// the Save bytes an in-memory twin that never crashed gives.
func TestSerialCommitsLogDeltas(t *testing.T) {
	const schema = `
domains NAME = string;
classes PERSON = (name: NAME);
associations
  TAG = (t: NAME);
  Q0 = (x: integer);
`
	dir := t.TempDir()
	rec := &eventRecorder{}
	db, _, err := OpenDurable(schema, Durability{Dir: dir, Fsync: FsyncOff}, WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Open(schema)
	if err != nil {
		t.Fatal(err)
	}
	exec := func(src string) func(*Database) error {
		return func(d *Database) error { _, err := d.Exec(src); return err }
	}
	steps := []struct {
		name string
		do   func(*Database) error
		want string // the record type of the commit's WAL append
	}{
		{"ridv exec", exec("mode ridv.\nrules\n  tag(t: \"a\"). tag(t: \"b\").\nend.\n"), "delta"},
		{"inventing ridv exec", exec("mode ridv.\nrules\n  person(self: P, name: N) <- tag(t: N).\nend.\n"), "delta"},
		{"register", func(d *Database) error { return d.Register("module fill.\nmode ridv.\nrules\n  q0(x: 7).\nend.\n") }, "register"},
		{"call", func(d *Database) error { _, err := d.Call("fill"); return err }, "delta"},
		{"radi exec", exec("mode radi.\nrules\n  q0(x: 1) <- tag(t: \"a\").\nend.\n"), "replace"},
		{"materialize", (*Database).Materialize, "replace"},
	}
	for _, st := range steps {
		if err := st.do(db); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if err := st.do(twin); err != nil {
			t.Fatalf("%s on the twin: %v", st.name, err)
		}
		appends := rec.byKind(obs.KindWALAppend)
		if last := appends[len(appends)-1]; last.Pred != st.want || uint64(last.Round) != db.CommitEpoch() {
			t.Fatalf("%s: last WAL append = %s at epoch %d, want %s at epoch %d",
				st.name, last.Pred, last.Round, st.want, db.CommitEpoch())
		}
	}
	want := saveBytesDurable(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, _, err = OpenDurable(schema, Durability{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := saveBytesDurable(t, db); !bytes.Equal(got, want) {
		t.Fatal("recovered Save bytes differ from the pre-close state")
	}
	invent := []struct {
		name string
		do   func(*Database) error
	}{
		{"locked", func(d *Database) error {
			hooks.LockedApply.Store(true)
			defer hooks.LockedApply.Store(false)
			_, err := d.Exec("mode ridv.\nrules\n  tag(t: \"c\"). person(self: P, name: N) <- tag(t: N), N = \"c\".\nend.\n")
			return err
		}},
		{"optimistic", exec("mode ridv.\nrules\n  tag(t: \"d\"). person(self: P, name: N) <- tag(t: N), N = \"d\".\nend.\n")},
	}
	for _, inv := range invent {
		if err := inv.do(db); err != nil {
			t.Fatalf("%s: %v", inv.name, err)
		}
		if err := inv.do(twin); err != nil {
			t.Fatalf("%s on the twin: %v", inv.name, err)
		}
		if !bytes.Equal(saveBytesDurable(t, db), saveBytesDurable(t, twin)) {
			t.Fatalf("%s inventing commit: recovered database and in-memory twin differ", inv.name)
		}
	}
	if n := db.EDBCount("person"); n != 4 {
		t.Fatalf("person holds %d objects, want 4 invented", n)
	}
}

// ---------------------------------------------------------------------------
// Open-time audit: a state that enters without a commit is audited once
// ---------------------------------------------------------------------------

// inconsistentState builds, past every audit, a state no commit would
// have accepted: its instance violates a persistent denial, or holds a
// reference to an oid no class contains.
func inconsistentState(t *testing.T, dangling bool) *module.State {
	t.Helper()
	m, err := parser.ParseModule(`
domains NAME = string;
classes
  SCHOOL = (sname: NAME);
associations
  ENROLL = (school: SCHOOL, who: NAME);
  ITALIAN = (name: NAME);
  ROMAN = (name: NAME);
`)
	if err != nil {
		t.Fatal(err)
	}
	st := module.NewState(m.Schema)
	name := func(s string) value.Tuple {
		return value.NewTuple(value.Field{Label: "name", Value: value.Str(s)})
	}
	if dangling {
		st.E.Add(engine.Fact{Pred: "enroll", Tuple: value.NewTuple(
			value.Field{Label: "school", Value: value.Ref(99)},
			value.Field{Label: "who", Value: value.Str("sara")},
		)})
		return st
	}
	st.E.Add(engine.Fact{Pred: "italian", Tuple: name("sara")})
	st.E.Add(engine.Fact{Pred: "roman", Tuple: name("sara")})
	if st.R, err = parser.ParseProgram(`<- italian(name: X), roman(name: X).`); err != nil {
		t.Fatal(err)
	}
	return st
}

// Reads trust that every published state was audited, so Load and
// OpenDurable's recovery audit the decoded state before publishing it
// and refuse to open one whose instance is inconsistent.
func TestLoadRejectsInconsistentSnapshot(t *testing.T) {
	for _, c := range []struct {
		name      string
		dangling  bool
		violation string
	}{{"denial", false, "integrity violation"}, {"dangling", true, "dangling"}} {
		// The WithIncremental leg audits the set of the maintainer it
		// builds instead of deriving again, with Load's and recovery's
		// error text exactly as the scratch leg's.
		var scratch [2]string
		for _, incremental := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/incremental=%v", c.name, incremental), func(t *testing.T) {
				st := inconsistentState(t, c.dangling)
				var buf bytes.Buffer
				if err := storage.SaveState(&buf, st); err != nil {
					t.Fatal(err)
				}
				_, loadErr := Load(&buf, WithIncremental(incremental))
				if loadErr == nil || !strings.Contains(loadErr.Error(), c.violation) {
					t.Fatalf("Load = %v, want an error naming %q", loadErr, c.violation)
				}
				dir := filepath.Join(t.TempDir(), "db")
				store, err := storage.Create(dir, st, storage.StoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := store.Close(); err != nil {
					t.Fatal(err)
				}
				_, _, err = OpenDurable("", Durability{Dir: dir}, WithIncremental(incremental))
				if err == nil || !strings.Contains(err.Error(), c.violation) {
					t.Fatalf("OpenDurable recovery = %v, want an error naming %q", err, c.violation)
				}
				got := [2]string{loadErr.Error(), err.Error()}
				if !incremental {
					scratch = got
				} else if got != scratch {
					t.Fatalf("Load and recovery failed with %q, want the scratch leg's %q", got, scratch)
				}
			})
		}
	}
}

// An OpenDurable whose initialisation fails after the store recovered —
// here the open-time audit, or under WithIncremental the maintainer
// build whose set it audits, exceeding a tight budget — closes the WAL it
// opened; a normal reopen then recovers the directory.
func TestDurableFailedRecoveryClosesWAL(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts open descriptors through /proc/self/fd")
	}
	dir := t.TempDir()
	db, _, err := OpenDurable(durableSchema, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := db.Exec(durableMod("q0", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("mode radi.\nrules\n  q1(x: X) <- q0(x: X).\n  q2(x: X) <- q1(x: X).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	openFDs := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	before := openFDs()
	// The WithIncremental leg fails in its maintainer build, the scratch
	// leg in its audit's derivation: the same run, with the same error.
	scratch := ""
	for _, incremental := range []bool{false, true} {
		for i := 0; i < 3; i++ {
			_, _, err := OpenDurable("", Durability{Dir: dir}, WithIncremental(incremental), WithBudget(Budget{MaxFacts: 1}))
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("incremental=%v: reopen under a one-fact budget = %v, want a *BudgetError", incremental, err)
			}
			if !incremental {
				scratch = err.Error()
			} else if err.Error() != scratch {
				t.Fatalf("incremental reopen failed with %q, want the scratch leg's %q", err, scratch)
			}
		}
	}
	if after := openFDs(); after != before {
		t.Fatalf("open descriptors %d after six failed reopens, %d before", after, before)
	}
	db2, rec, err := OpenDurable("", Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rec == nil || rec.Epoch != 5 {
		t.Fatalf("recovery = %+v, want epoch 5", rec)
	}
	if n, err := db2.Count("q1"); err != nil || n != 4 {
		t.Fatalf("recovered q1 count = %d, %v; want 4", n, err)
	}
}

func TestDurableStatusAndSync(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(durableSchema, Durability{Dir: dir, Fsync: FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(durableMod("q0", 1)); err != nil {
		t.Fatal(err)
	}
	st, ok := db.Durability()
	if !ok || st.Dir != dir || st.Epoch != 1 || st.WALRecords != 1 || st.Fsync != FsyncInterval {
		t.Fatalf("Durability() = %+v, %v", st, ok)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	// Non-durable databases answer negatively but never error.
	mem, err := Open(durableSchema)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Durable() {
		t.Fatal("in-memory database claims durability")
	}
	if _, ok := mem.Durability(); ok {
		t.Fatal("in-memory database has a durability status")
	}
	if err := mem.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.AsOf(0); err == nil {
		t.Fatal("AsOf on an in-memory database succeeded")
	}
}

// ---------------------------------------------------------------------------
// Point-in-time reads
// ---------------------------------------------------------------------------

func TestDurableAsOf(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(durableSchema, Durability{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var byEpoch [][]byte
	byEpoch = append(byEpoch, saveBytesDurable(t, db))
	for i := 0; i < 4; i++ {
		if _, err := db.Exec(durableMod("q0", i)); err != nil {
			t.Fatal(err)
		}
		byEpoch = append(byEpoch, saveBytesDurable(t, db))
	}
	for e := uint64(0); e <= 4; e++ {
		past, err := db.AsOf(e)
		if err != nil {
			t.Fatalf("AsOf(%d): %v", e, err)
		}
		if got := saveBytesDurable(t, past); !bytes.Equal(got, byEpoch[e]) {
			t.Fatalf("AsOf(%d) differs from the live state at that epoch", e)
		}
		// The past view answers queries.
		n, err := past.EDBCount("q0"), error(nil)
		if err != nil || n != int(e) {
			t.Fatalf("AsOf(%d) q0 count = %d", e, n)
		}
	}
	if _, err := db.AsOf(99); err == nil {
		t.Fatal("AsOf(future) succeeded")
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AsOf(1); !errors.Is(err, storage.ErrCompacted) {
		t.Fatalf("AsOf(pre-checkpoint) = %v, want ErrCompacted", err)
	}
}

func TestDurableAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(durableSchema, Durability{Dir: dir, Fsync: FsyncOff, CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 7; i++ {
		if _, err := db.Exec(durableMod("q0", i)); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := db.Durability()
	if st.CheckpointEpoch == 0 {
		t.Fatalf("no automatic compaction after 7 commits with CompactEvery=3: %+v", st)
	}
	if st.WALRecords >= 7 {
		t.Fatalf("WAL never truncated: %+v", st)
	}
	// Recovery from the compacted directory reproduces the state.
	want := saveBytesDurable(t, db)
	db.Close()
	db2, _, err := OpenDurable(durableSchema, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !bytes.Equal(saveBytesDurable(t, db2), want) {
		t.Fatal("post-compaction recovery differs")
	}
}

// Registrations are commits like any other: they count towards
// CompactEvery, and recovery from the compacted directory keeps the
// library.
func TestRegistrationsTriggerCompaction(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(durableSchema, Durability{Dir: dir, Fsync: FsyncOff, CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 3; i++ {
		if err := db.Register(fmt.Sprintf("module fill%d.\nmode ridv.\nrules\n  q0(x: %d).\nend.\n", i, i)); err != nil {
			t.Fatal(err)
		}
		st, _ := db.Durability()
		if i == 1 && (st.CheckpointEpoch != 2 || st.WALRecords != 0) {
			t.Fatalf("after 2 registrations with CompactEvery=2: %+v, want a checkpoint at epoch 2", st)
		}
	}
	want := saveBytesDurable(t, db)
	db.Close()
	db2, _, err := OpenDurable(durableSchema, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !bytes.Equal(saveBytesDurable(t, db2), want) {
		t.Fatal("post-compaction recovery differs")
	}
	if got := len(db2.Modules()); got != 3 {
		t.Fatalf("recovered library holds %d modules, want 3", got)
	}
}

// ---------------------------------------------------------------------------
// Crash matrix: kill at every durability boundary under concurrency
// ---------------------------------------------------------------------------

// durableOps is the commutative workload of the crash matrix: each op
// adds one distinct fact to its own predicate, so the correct recovered
// state is determined by the SET of committed ops alone — an oracle
// that needs no ordering information from the concurrent run.
type durableOp struct {
	pred string
	val  int
}

func durableOps() []durableOp {
	var ops []durableOp
	for i := 0; i < 12; i++ {
		ops = append(ops, durableOp{pred: fmt.Sprintf("q%d", i%4), val: 1000 + i})
	}
	return ops
}

// runCrashWorkload applies ops concurrently against a durable database
// and returns which ops were acked (committed without error). The
// database is abandoned afterwards, as a crashed process would.
func runCrashWorkload(t *testing.T, dir string) (acked map[durableOp]bool) {
	t.Helper()
	db, _, err := OpenDurable(durableSchema,
		Durability{Dir: dir, Fsync: FsyncAlways, CompactEvery: 5},
		WithWorkers(1), WithShards(1))
	if err != nil {
		// The injected fault can land in Create/Open itself.
		return map[durableOp]bool{}
	}
	ops := durableOps()
	acked = make(map[durableOp]bool, len(ops))
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4)
	for _, op := range ops {
		op := op
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := db.Exec(durableMod(op.pred, op.val)); err == nil {
				mu.Lock()
				acked[op] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return acked
}

func TestDurableCrashMatrix(t *testing.T) {
	// The one accepted Workers × Shards value, passed by name as
	// benchmark/oracle.go passes it.
	t.Run("w1xs1", func(t *testing.T) {
		// Pass 1: count fault-point crossings in a clean run. Under
		// concurrency the exact count varies slightly run to run
		// (compaction timing); the clean count is a good census of
		// the interesting window.
		var mu sync.Mutex
		crossings := 0
		hooks.StorageFault = func(string) error {
			mu.Lock()
			crossings++
			mu.Unlock()
			return nil
		}
		runCrashWorkload(t, t.TempDir())
		hooks.StorageFault = nil
		if crossings == 0 {
			t.Fatal("workload crossed no fault points")
		}

		// Pass 2: kill at every crossing.
		for k := 0; k < crossings; k++ {
			k := k
			dir := t.TempDir()
			n := 0
			var killed string
			hooks.StorageFault = func(point string) error {
				mu.Lock()
				defer mu.Unlock()
				n++
				if n-1 == k {
					killed = point
					return errors.New("injected crash")
				}
				return nil
			}
			acked := runCrashWorkload(t, dir)
			hooks.StorageFault = nil

			if ok, err := storage.Exists(dir); err != nil || !ok {
				if len(acked) != 0 {
					t.Fatalf("kill@%d(%s): acked %d ops but nothing durable", k, killed, len(acked))
				}
				continue
			}
			db, _, err := OpenDurable(durableSchema, Durability{Dir: dir})
			if err != nil {
				t.Fatalf("kill@%d(%s): recovery failed: %v", k, killed, err)
			}

			// Which ops' facts survived?
			present := map[durableOp]bool{}
			extra := 0
			for _, op := range durableOps() {
				ans, err := db.Query(fmt.Sprintf("?- %s(x: %d).", op.pred, op.val))
				if err != nil {
					t.Fatalf("kill@%d(%s): query: %v", k, killed, err)
				}
				if len(ans.Rows) > 0 {
					present[op] = true
					if !acked[op] {
						extra++
					}
				}
			}
			// Durability: every acked op survived the crash.
			for op := range acked {
				if !present[op] {
					t.Fatalf("kill@%d(%s): acked op %v lost", k, killed, op)
				}
			}
			// Atomicity: at most the single in-flight op may appear
			// beyond the acked set (WAL write completed, ack lost).
			if extra > 1 {
				t.Fatalf("kill@%d(%s): %d unacked ops surfaced", k, killed, extra)
			}

			// Exactness: the recovered Save bytes equal a serial
			// re-application of exactly the present ops on the row
			// oracle.
			ref, err := Open(durableSchema, rowOracle()...)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range durableOps() {
				if present[op] {
					if _, err := ref.Exec(durableMod(op.pred, op.val)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !bytes.Equal(saveBytesDurable(t, db), saveBytesDurable(t, ref)) {
				t.Fatalf("kill@%d(%s): recovered state differs from the committed-set replay", k, killed)
			}
			db.Close()
		}
	})
}

// ---------------------------------------------------------------------------
// Real-process kill: re-exec the test binary and SIGKILL it mid-commit
// ---------------------------------------------------------------------------

// TestDurableKillProcess re-executes the test binary as a child that
// commits in a loop and self-SIGKILLs at a WAL boundary, then recovers
// the directory in this process — the end-to-end version of the
// in-process matrix (the page cache survives a process kill, so the
// unsynced suffix is still expected to be readable).
func TestDurableKillProcess(t *testing.T) {
	if os.Getenv("LOGRES_CRASH_CHILD") == "1" {
		crashChildMain(t)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestDurableKillProcess$")
	cmd.Env = append(os.Environ(), "LOGRES_CRASH_CHILD=1", "LOGRES_CRASH_DIR="+dir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child exited cleanly, expected SIGKILL; output:\n%s", out)
	}

	db, rec, err := OpenDurable(durableSchema, Durability{Dir: dir})
	if err != nil {
		t.Fatalf("recovery after real kill failed: %v\nchild output:\n%s", err, out)
	}
	defer db.Close()
	if rec == nil {
		t.Fatal("no recovery report after kill")
	}
	// The child acked epochs 1..5 before raising SIGKILL mid-commit of
	// the sixth; every acked epoch must have survived.
	if rec.Epoch < 5 {
		t.Fatalf("recovered epoch %d, child acked 5; report %+v\nchild output:\n%s", rec.Epoch, rec, out)
	}
	n := db.EDBCount("q0")
	if n != int(rec.Epoch) {
		t.Fatalf("recovered %d facts at epoch %d", n, rec.Epoch)
	}
}

// crashChildMain is the child side: commit five modules, then install a
// fault hook that SIGKILLs this process at the next WAL append — a real
// crash between two durability syscalls.
func crashChildMain(t *testing.T) {
	dir := os.Getenv("LOGRES_CRASH_DIR")
	db, _, err := OpenDurable(durableSchema, Durability{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Exec(durableMod("q0", i)); err != nil {
			t.Fatalf("child exec: %v", err)
		}
	}
	hooks.StorageFault = func(point string) error {
		if point == "wal.fsync" {
			p, _ := os.FindProcess(os.Getpid())
			p.Kill()
			select {} // never observed: the signal lands first
		}
		return nil
	}
	_, _ = db.Exec(durableMod("q0", 99))
	t.Fatal("child survived its own SIGKILL")
}
