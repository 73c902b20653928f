package logres

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logres/internal/hooks"
	"logres/internal/obs"
)

// parker parks the first event it sees once armed: an eval.begin trace
// event, or a write to it.
type parker struct {
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func newParker() *parker {
	return &parker{parked: make(chan struct{}), release: make(chan struct{})}
}

func (p *parker) park() {
	if p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.release
	}
}

func (p *parker) Event(ev TraceEvent) {
	if ev.Kind == obs.KindEvalBegin {
		p.park()
	}
}

func (p *parker) Write(b []byte) (int, error) {
	p.park()
	return len(b), nil
}

// TestReadsHoldNoLockThroughEvaluation: a read holds the database lock
// only while it copies its snapshot. While a read is parked inside its
// evaluation (or inside the caller's writer, for Save), a disjoint Exec
// commits.
func TestReadsHoldNoLockThroughEvaluation(t *testing.T) {
	legs := []struct {
		name string
		opts []Option
		read func(db *Database, w io.Writer) error
	}{
		{"query", nil, func(db *Database, _ io.Writer) error {
			_, err := db.Query("?- p2(x: X).")
			return err
		}},
		{"query-profile", []Option{WithIncremental(true)}, func(db *Database, _ io.Writer) error {
			var p Profile
			_, err := db.Query("?- p2(x: X).", WithCallProfile(&p))
			return err
		}},
		{"count", nil, func(db *Database, _ io.Writer) error {
			_, err := db.Count("p2")
			return err
		}},
		{"instance-string", nil, func(db *Database, _ io.Writer) error {
			_, err := db.InstanceString()
			return err
		}},
		{"check-consistency", nil, func(db *Database, _ io.Writer) error {
			return db.CheckConsistency()
		}},
		{"explain", nil, func(db *Database, _ io.Writer) error {
			_, err := db.Explain()
			return err
		}},
		{"save", nil, func(db *Database, w io.Writer) error {
			return db.Save(w)
		}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			p := newParker()
			db, err := Open(concurrentSchema, append(leg.opts, WithTracer(p))...)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []string{
				"mode radi.\nrules p2(x: X) <- p0(x: X).\nend.\n",
				"mode ridv.\nrules p0(x: 1).\nend.\n",
			} {
				if _, err := db.Exec(m); err != nil {
					t.Fatal(err)
				}
			}
			p.armed.Store(true)
			done := make(chan error, 1)
			go func() { done <- leg.read(db, p) }()
			select {
			case <-p.parked:
			case err := <-done:
				t.Fatalf("the read finished (err = %v) without parking", err)
			}
			committed := make(chan error, 1)
			go func() {
				_, err := db.Exec("mode ridv.\nrules p1(x: 2).\nend.\n")
				committed <- err
			}()
			select {
			case err := <-committed:
				if err != nil {
					t.Error(err)
				}
			case <-time.After(2 * time.Second):
				t.Error("a disjoint Exec waited for the parked read")
				close(p.release)
				<-committed
				<-done
				return
			}
			close(p.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadsBesideAParkedWriter: a read takes no lock, and a
// materialization evaluates outside the write lock. While a writer is
// parked inside an evaluation — Materialize, or the retry budget's
// locked last attempt, which holds the write lock — a Count returns,
// with the count of the state the writer has not replaced yet. While
// Materialize is parked, an Exec commits, and the materialization
// retries over it: E holds the instance that includes the Exec's fact.
func TestReadsBesideAParkedWriter(t *testing.T) {
	count := func(db *Database) error {
		n, err := db.Count("p2")
		if err == nil && n != 1 {
			err = fmt.Errorf("count = %d, want 1", n)
		}
		return err
	}
	legs := []struct {
		name   string
		write  func(db *Database) error
		beside func(db *Database) error // must return while the writer is parked
		after  func(db *Database) error // checks the state the writer left; may be nil
	}{
		{"materialize", (*Database).Materialize, count, nil},
		{"locked-exec", func(db *Database) error {
			hooks.LockedApply.Store(true)
			defer hooks.LockedApply.Store(false)
			_, err := db.Exec("mode ridv.\nrules p1(x: 2).\nend.\n")
			return err
		}, count, nil},
		{"materialize-beside-exec", (*Database).Materialize, func(db *Database) error {
			_, err := db.Exec("mode ridv.\nrules p0(x: 2).\nend.\n")
			return err
		}, func(db *Database) error {
			if n, rules := db.EDBCount("p2"), db.RuleCount(); n != 2 || rules != 0 {
				return fmt.Errorf("E holds %d p2 facts and %d rules, want 2 and 0", n, rules)
			}
			return nil
		}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			p := newParker()
			db, err := Open(concurrentSchema, WithTracer(p))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []string{
				"mode radi.\nrules p2(x: X) <- p0(x: X).\nend.\n",
				"mode ridv.\nrules p0(x: 1).\nend.\n",
			} {
				if _, err := db.Exec(m); err != nil {
					t.Fatal(err)
				}
			}
			p.armed.Store(true)
			done := make(chan error, 1)
			go func() { done <- leg.write(db) }()
			select {
			case <-p.parked:
			case err := <-done:
				t.Fatalf("the writer finished (err = %v) without parking", err)
			}
			besideDone := make(chan error, 1)
			go func() { besideDone <- leg.beside(db) }()
			select {
			case err := <-besideDone:
				if err != nil {
					t.Error(err)
				}
			case <-time.After(2 * time.Second):
				t.Error("the call beside waited for the parked writer")
				close(p.release)
				<-besideDone
				<-done
				return
			}
			close(p.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if leg.after != nil {
				if err := leg.after(db); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// epochSchema and epochRules give a maintained stratum (out) and a
// negation stratum (sink) that a maintainer recomputes on top of it.
const epochSchema = `
associations
  NODE = (a: integer);
  EDGE = (a: integer, b: integer);
  OUT = (a: integer);
  SINK = (a: integer);
`

const epochRules = `
mode radi.
rules
  out(a: X) <- edge(a: X, b: Y).
  sink(a: X) <- node(a: X), not out(a: X).
end.
`

// epochDeltas returns n one-fact commits over six nodes, inserting
// (RIDV) or deleting (RDDV) a node or an edge.
func epochDeltas(n int) []string {
	r := rand.New(rand.NewSource(1))
	out := make([]string, n)
	for i := range out {
		mode := "ridv"
		if r.Intn(3) == 0 {
			mode = "rddv"
		}
		fact := fmt.Sprintf("node(a: %d)", r.Intn(6))
		if r.Intn(2) == 0 {
			fact = fmt.Sprintf("edge(a: %d, b: %d)", r.Intn(6), r.Intn(6))
		}
		out[i] = fmt.Sprintf("mode %s.\nrules\n  %s.\nend.\n", mode, fact)
	}
	return out
}

// epochReads are the reads the epoch test compares, each rendered as a
// string.
var epochReads = []func(db *Database) (string, error){
	func(db *Database) (string, error) {
		ans, err := db.Query("?- sink(a: X).")
		if err != nil {
			return "", err
		}
		return fmt.Sprint(ans.Rows), nil
	},
	func(db *Database) (string, error) { return db.InstanceString() },
	func(db *Database) (string, error) {
		n, err := db.Count("out")
		return fmt.Sprint(n), err
	},
}

// TestReadsSeeOnePublishedEpoch: readers loop Query, InstanceString and
// Count beside a writer committing one delta after another. Every answer
// is the one a serial replay gives at some epoch, and the epochs one
// reader sees never go back.
func TestReadsSeeOnePublishedEpoch(t *testing.T) {
	const commits, readers = 200, 3
	deltas := epochDeltas(commits)
	open := func(t *testing.T, incremental bool) *Database {
		db, err := Open(epochSchema, WithIncremental(incremental))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(epochRules); err != nil {
			t.Fatal(err)
		}
		return db
	}
	// want[k][e] is read k's answer after the first e deltas.
	want := make([][]string, len(epochReads))
	replay := open(t, false)
	for e := 0; e <= commits; e++ {
		if e > 0 {
			if _, err := replay.Exec(deltas[e-1]); err != nil {
				t.Fatal(err)
			}
		}
		for k, read := range epochReads {
			got, err := read(replay)
			if err != nil {
				t.Fatal(err)
			}
			want[k] = append(want[k], got)
		}
	}
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			db := open(t, incremental)
			if incremental {
				explain, err := db.Explain()
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(explain, "maintenance: DRed") || !strings.Contains(explain, "maintenance: none") {
					t.Fatalf("want a maintained stratum and a recomputed one:\n%s", explain)
				}
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, readers)
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					lo := 0 // the earliest epoch this reader can still be at
					for n := 0; !stop.Load() || n < len(epochReads); n++ {
						k := (i + n) % len(epochReads)
						got, err := epochReads[k](db)
						if err != nil {
							errs <- err
							return
						}
						e := lo
						for e <= commits && want[k][e] != got {
							e++
						}
						if e > commits {
							errs <- fmt.Errorf("read %d gave %q, which no epoch from %d on gives", k, got, lo)
							return
						}
						lo = e
					}
				}(i)
			}
			for _, d := range deltas {
				if _, err := db.Exec(d); err != nil {
					t.Error(err)
					break
				}
			}
			stop.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
