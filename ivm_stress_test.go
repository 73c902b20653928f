package logres

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"logres/internal/engine"
	"logres/internal/hooks"
	"logres/internal/module"
	"logres/internal/obs"
)

// Subscription stress: N subscribers receiving concurrently with M
// optimistic appliers committing and a registrar storing modules. Every
// subscriber must observe the exact same per-epoch diff sequence —
// contiguous epochs, no lost, duplicated, or reordered diffs, an empty
// diff for each registration and only for it — and replaying any
// subscriber's sequence onto the initial derived set must reproduce the
// final one.
// A deliberately unread subscriber with a tiny buffer must be detached
// with the typed *SlowConsumerError without ever blocking a commit.

func TestSubscriptionStress(t *testing.T) {
	const (
		subscribers   = 4
		appliers      = 4
		commits       = 6 // per applier
		registrations = 6
	)
	db, err := Open(ivmMatrixSchema, WithIncremental(true), WithMaxRetries(1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ivmMatrixPrograms[1].rules); err != nil { // closure
		t.Fatal(err)
	}

	total := appliers*commits + registrations
	subs := make([]*Subscription, subscribers)
	for i := range subs {
		subs[i], err = db.SubscribeView(SubscribeOptions{Buffer: total + 8})
		if err != nil {
			t.Fatal(err)
		}
	}
	slow, err := db.SubscribeView(SubscribeOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	startEpoch := subs[0].Epoch

	before := map[string]Fact{}
	initial, err := db.Instance()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range initial {
		before[f.Key()] = f
	}

	// Receivers drain concurrently with the appliers (the -race half of
	// the contract: fan-out under commit locks vs. channel receives).
	received := make([][]ViewDiff, subscribers)
	var rg sync.WaitGroup
	for i, s := range subs {
		i, s := i, s
		rg.Add(1)
		go func() {
			defer rg.Done()
			for d := range s.C {
				received[i] = append(received[i], d)
				if len(received[i]) == total {
					s.Close()
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for a := 0; a < appliers; a++ {
		a := a
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < commits; c++ {
				// Disjoint chains per applier; every commit extends one
				// chain by an edge, deriving fresh closure facts.
				src := fmt.Sprintf("mode ridv.\nrules\n  edge(src: %d, dst: %d).\nend.\n",
					a*100+c, a*100+c+1)
				if _, err := db.Exec(src); err != nil {
					t.Errorf("applier %d commit %d: %v", a, c, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < registrations; r++ {
			src := fmt.Sprintf("module grow%d.\nmode ridv.\nrules\n  edge(src: %d, dst: %d).\nend.\n", r, 900+r, 901+r)
			if err := db.Register(src); err != nil {
				t.Errorf("registration %d: %v", r, err)
				return
			}
		}
	}()
	wg.Wait()
	rg.Wait()

	// Exactness: every subscriber saw every epoch exactly once, in
	// order, and all sequences agree.
	for i, got := range received {
		if len(got) != total {
			t.Fatalf("subscriber %d: %d diffs, want %d", i, len(got), total)
		}
		empty := 0
		for j, d := range got {
			if d.Epoch != startEpoch+uint64(j)+1 {
				t.Fatalf("subscriber %d diff %d: epoch %d, want %d (lost/reordered)",
					i, j, d.Epoch, startEpoch+uint64(j)+1)
			}
			if len(d.Adds)+len(d.Removes) == 0 {
				empty++ // a registration: every application derives facts
			}
			ref := received[0][j]
			if len(d.Adds) != len(ref.Adds) || len(d.Removes) != len(ref.Removes) {
				t.Fatalf("subscriber %d diff %d disagrees with subscriber 0", i, j)
			}
			for k := range d.Adds {
				if d.Adds[k].Key() != ref.Adds[k].Key() {
					t.Fatalf("subscriber %d diff %d add %d disagrees with subscriber 0", i, j, k)
				}
			}
		}
		if empty != registrations {
			t.Fatalf("subscriber %d: %d empty diffs, want one per registration (%d)", i, empty, registrations)
		}
		if err := subs[i].Err(); err != nil {
			t.Fatalf("subscriber %d ended with %v", i, err)
		}
	}

	// Replaying subscriber 0's sequence reproduces the final derived set.
	state := map[string]Fact{}
	for k, f := range before {
		state[k] = f
	}
	for _, d := range received[0] {
		for _, f := range d.Removes {
			if _, ok := state[f.Key()]; !ok {
				t.Fatalf("diff at epoch %d removes absent fact %s", d.Epoch, f.Key())
			}
			delete(state, f.Key())
		}
		for _, f := range d.Adds {
			if _, ok := state[f.Key()]; ok {
				t.Fatalf("diff at epoch %d adds present fact %s", d.Epoch, f.Key())
			}
			state[f.Key()] = f
		}
	}
	final, err := db.Instance()
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != len(state) {
		t.Fatalf("replayed %d facts, final instance has %d", len(state), len(final))
	}
	for _, f := range final {
		if _, ok := state[f.Key()]; !ok {
			t.Fatalf("replay misses final fact %s", f.Key())
		}
	}

	// The unread subscriber was disconnected with the typed error, and
	// no commit ever blocked on it (the appliers all finished).
	drained := 0
	for range slow.C {
		drained++
	}
	if drained > 1 {
		t.Fatalf("slow subscriber drained %d diffs from a 1-buffer", drained)
	}
	var se *SlowConsumerError
	if !errors.As(slow.Err(), &se) {
		t.Fatalf("slow subscriber err = %v, want *SlowConsumerError", slow.Err())
	}
	if db.Subscribers() != 0 {
		t.Fatalf("%d subscribers left registered", db.Subscribers())
	}
}

// Two closures over disjoint predicates, and a suffix stratum over the
// first that maintenance recomputes (negation), so that concurrent
// attempts step one published maintainer in both its parts.
const twoWriterSchema = `
associations
  NODE1 = (n: integer);
  EDGE1 = (src: integer, dst: integer);
  TC1 = (src: integer, dst: integer);
  UNREACH1 = (a: integer, b: integer);
  EDGE2 = (src: integer, dst: integer);
  TC2 = (src: integer, dst: integer);
`

const twoWriterClosures = `
  tc1(src: X, dst: Y) <- edge1(src: X, dst: Y).
  tc1(src: X, dst: Z) <- tc1(src: X, dst: Y), edge1(src: Y, dst: Z).
  tc2(src: X, dst: Y) <- edge2(src: X, dst: Y).
  tc2(src: X, dst: Z) <- tc2(src: X, dst: Y), edge2(src: Y, dst: Z).
`

var twoWriterPrograms = []struct{ name, rules string }{
	{"maintained", "mode radi.\nrules" + twoWriterClosures + "end.\n"},
	{"suffix", "mode radi.\nrules" + twoWriterClosures +
		"  unreach1(a: X, b: Y) <- node1(n: X), node1(n: Y), not tc1(src: X, dst: Y).\nend.\n"},
}

// twoWriterCommit is commit c of writer w: an edge of its own closure,
// inserted on even commits and deleted again on the odd one after, so a
// writer's commits alternate a propagation that derives and one that
// removes.
func twoWriterCommit(w, c int) string {
	e := c / 2 % 8
	if c%2 == 0 {
		return fmt.Sprintf("mode ridv.\nrules\n  edge%d(src: %d, dst: %d).\nend.\n", w, e, e+1)
	}
	return fmt.Sprintf("mode ridv.\nrules\n  not edge%d(src: %d, dst: %d) <- edge%d(src: %d, dst: %d).\nend.\n", w, e, e+1, w, e, e+1)
}

// TestConcurrentMaintainedAttempts runs two writers committing to
// disjoint predicates of one WithIncremental database: their attempts
// step the maintainer of the snapshot they read outside the write lock,
// often the same one, and a commit that lands second merges and
// propagates again. The maintained set must end equal to a fresh
// derivation, and each subscriber's diffs must replay onto the initial
// set to it.
func TestConcurrentMaintainedAttempts(t *testing.T) {
	const commits = 24 // per writer
	for _, prog := range twoWriterPrograms {
		t.Run(prog.name, func(t *testing.T) {
			db, err := Open(twoWriterSchema, WithIncremental(true), WithMaxRetries(1000))
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range []string{
				"mode ridv.\nrules\n  node1(n: 0). node1(n: 3). node1(n: 6). edge1(src: 8, dst: 0). edge2(src: 8, dst: 0).\nend.\n",
				prog.rules,
			} {
				if _, err := db.Exec(src); err != nil {
					t.Fatal(err)
				}
			}
			initial, err := db.Instance()
			if err != nil {
				t.Fatal(err)
			}
			subs := make([]*Subscription, 2)
			for i := range subs {
				if subs[i], err = db.SubscribeView(SubscribeOptions{Buffer: 2*commits + 1}); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for w := 1; w <= 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for c := 0; c < commits; c++ {
						if _, err := db.Exec(twoWriterCommit(w, c)); err != nil {
							t.Errorf("writer %d commit %d: %v", w, c, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			s := db.snap.Load()
			if s.maint == nil {
				t.Fatalf("no maintainer serves the final state (%v)", s.maintErr)
			}
			fresh, err := s.st.Derive(s.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !s.maint.Full().Equal(fresh) {
				t.Fatal("the maintained set differs from a fresh derivation")
			}
			want := map[string]bool{}
			for _, f := range fresh.AppendAll(nil) {
				want[f.Key()] = true
			}
			for i, sub := range subs {
				sub.Close()
				state := map[string]bool{}
				for _, f := range initial {
					state[f.Key()] = true
				}
				n := 0
				for d := range sub.C {
					n++
					if d.Epoch != sub.Epoch+uint64(n) {
						t.Fatalf("subscriber %d: diff %d at epoch %d, want %d", i, n, d.Epoch, sub.Epoch+uint64(n))
					}
					for _, f := range d.Removes {
						if !state[f.Key()] {
							t.Fatalf("subscriber %d: epoch %d removes absent %s", i, d.Epoch, f.Key())
						}
						delete(state, f.Key())
					}
					for _, f := range d.Adds {
						if state[f.Key()] {
							t.Fatalf("subscriber %d: epoch %d adds present %s", i, d.Epoch, f.Key())
						}
						state[f.Key()] = true
					}
				}
				if n != 2*commits {
					t.Fatalf("subscriber %d: %d diffs, want %d", i, n, 2*commits)
				}
				if !maps.Equal(state, want) {
					t.Fatalf("subscriber %d: the replayed diffs hold %d facts, a fresh derivation %d", i, len(state), len(want))
				}
			}
		})
	}
}

// TestIncrementalMergeAndEarlyRejection pins where an incremental
// commit maintains and audits. A disjoint commit landing between an
// attempt and its commit makes the commit take the merge path: it drops
// the attempt's maintainer step, which missed that commit, propagates
// the merged delta instead, and the subscriber gets the exact diff. A
// rejected data commit fails in its attempt, before it ever reaches the
// commit critical section.
func TestIncrementalMergeAndEarlyRejection(t *testing.T) {
	db, err := Open(ivmMatrixSchema, WithIncremental(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		ivmMatrixPrograms[1].rules, // closure
		"mode radi.\nrules\n  <- edge(src: 9, dst: 9).\nend.\n",
		"mode ridv.\nrules\n  edge(src: 1, dst: 2). edge(src: 2, dst: 3).\nend.\n",
	} {
		if _, err := db.Exec(src); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := db.SubscribeView(SubscribeOptions{Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	rt := &recordingTracer{}
	db.SetTracer(rt)
	defer func() { hooks.ConcurrentPreCommit = nil }()

	// A same fact is outside every footprint the closure couples.
	var landed *stateSnapshot
	hooks.ConcurrentPreCommit = func(attempt int) {
		if attempt == 0 {
			execLocked(t, db, "mode ridv.\nrules\n  same(a: 7, b: 7).\nend.\n")
			landed = db.snap.Load()
		}
	}
	var p Profile
	if _, err := db.Exec("mode ridv.\nrules\n  edge(src: 3, dst: 4).\nend.\n", WithCallProfile(&p)); err != nil {
		t.Fatal(err)
	}
	hooks.ConcurrentPreCommit = nil
	if p.CommitPath != "merge" || p.Audit != module.AuditDelta {
		t.Fatalf("commit path %q, audit %q; want merge after a delta audit", p.CommitPath, p.Audit)
	}
	s := db.snap.Load()
	if s.maint == nil || s.maint == landed.maint {
		t.Fatalf("the merge published no new maintainer (%v)", s.maintErr)
	}
	fresh, err := s.st.Derive(s.opts)
	if err != nil {
		t.Fatal(err)
	}
	if !s.maint.Full().Equal(fresh) {
		t.Fatal("the merge's maintainer differs from a derivation of the committed state")
	}
	var epochs []int
	for _, ev := range rt.events {
		if ev.Kind == obs.KindIVMPropagate {
			epochs = append(epochs, ev.Round)
		} else if ev.Kind == obs.KindIVMRebuild {
			t.Fatalf("a commit rebuilt: %s", ev.Detail)
		}
	}
	if !slices.Equal(epochs, []int{int(landed.epoch), int(s.epoch)}) {
		t.Fatalf("propagations at epochs %v, want %d and %d", epochs, landed.epoch, s.epoch)
	}
	<-sub.C // the disjoint commit's
	d := <-sub.C
	adds, removes := diffFrozen(landed.maint.Full(), fresh)
	engine.SortFactsByKey(adds)
	engine.SortFactsByKey(removes)
	if d.Epoch != s.epoch || !reflect.DeepEqual(d.Adds, adds) || len(d.Removes)+len(removes) != 0 {
		t.Fatalf("the merge's diff at epoch %d is %v − %v, want %v at %d", d.Epoch, d.Adds, d.Removes, adds, s.epoch)
	}

	ran := 0
	hooks.ConcurrentPreCommit = func(int) { ran++ }
	rt.mu.Lock()
	rt.events = nil
	rt.mu.Unlock()
	_, err = db.Exec("mode ridv.\nrules\n  edge(src: 9, dst: 9).\nend.\n")
	if err == nil || !strings.HasPrefix(err.Error(), "module: rejected: engine: integrity violation") {
		t.Fatalf("err = %v, want the denial's rejection", err)
	}
	if ran != 0 {
		t.Fatal("the rejected attempt reached its commit")
	}
	if db.CommitEpoch() != s.epoch || rt.count(obs.KindIVMPropagate)+rt.count(obs.KindIVMRebuild) != 0 {
		t.Fatal("the rejected attempt committed or maintained")
	}
}
