package logres

import (
	"context"
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
				t.Fatalf("no maintainer serves the final state")
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
		t.Fatalf("the merge published no new maintainer")
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
	adds, removes := factDiff(landed.maint.Full(), fresh)
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

// TestMergedPropagationFailureIsAConflict pins what a commit does when
// the propagation of its merged delta fails: the merge does not land,
// its conflict names the failure, and the retry builds the maintainer in
// its own attempt, so no state is published without one and the
// subscription lives on. No database budget makes a merged step fail
// where the attempt's own step fit: a merge validates only when the
// commits its attempt missed wrote nothing the persistent program reads,
// so the merged step recomputes what the attempt's did, and only the
// wall-clock axis can tell the two apart. So the hooked commit
// republishes its state with its maintainer forked under a one-fact
// budget, which the merged step's negation suffix exceeds.
func TestMergedPropagationFailureIsAConflict(t *testing.T) {
	const (
		hooked = "mode ridv.\nrules\n  same(a: 7, b: 7).\nend.\n"
		merged = "mode ridv.\nrules\n  edge(src: 2, dst: 3).\nend.\n"
	)
	setup := []string{
		ivmMatrixPrograms[2].rules, // closure and a negation suffix
		"mode ridv.\nrules\n  node(n: 1). node(n: 2). node(n: 3). edge(src: 1, dst: 2).\nend.\n",
	}
	db, err := Open(ivmMatrixSchema, WithIncremental(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range setup {
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
	var landed *stateSnapshot
	hooks.ConcurrentPreCommit = func(attempt int) {
		if attempt != 0 {
			return
		}
		execLocked(t, db, hooked)
		db.mu.Lock()
		s := db.snap.Load()
		opts := s.maint.Program().Options()
		opts.Budget.MaxFacts = 1
		db.publish(s.st, s.maint.Fork(opts))
		landed = db.snap.Load()
		db.mu.Unlock()
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()
	if _, err := db.Exec(merged); err != nil {
		t.Fatal(err)
	}
	hooks.ConcurrentPreCommit = nil

	var conflicts, paths, rebuilds []string
	for _, ev := range rt.events {
		switch ev.Kind {
		case obs.KindModuleConflict:
			conflicts = append(conflicts, ev.Pred)
		case obs.KindModuleCommit:
			paths = append(paths, ev.Detail)
		case obs.KindIVMRebuild:
			rebuilds = append(rebuilds, fmt.Sprintf("%d %s", ev.Round, ev.Detail))
		}
	}
	if len(conflicts) != 1 || !strings.HasPrefix(conflicts[0], "maintenance: ") || !strings.Contains(conflicts[0], "fact budget exhausted") {
		t.Fatalf("conflicts %q, want one naming the merged step's budget abort", conflicts)
	}
	if !slices.Equal(paths, []string{"fast", "fast"}) {
		t.Fatalf("commit paths %q, want the hooked commit and the retry, both fast", paths)
	}
	s := db.snap.Load()
	if s.epoch != landed.epoch+1 || len(rebuilds) != 1 || !strings.HasPrefix(rebuilds[0], fmt.Sprintf("%d fallback: ", s.epoch)) {
		t.Fatalf("epoch %d after the hooked commit's %d, rebuilds %q; want the retry to land, built in its attempt", s.epoch, landed.epoch, rebuilds)
	}
	if s.maint == nil {
		t.Fatal("no maintainer serves the published state")
	}
	fresh, err := s.st.Derive(s.opts)
	if err != nil {
		t.Fatal(err)
	}
	if !s.maint.Full().Equal(fresh) {
		t.Fatal("the retry's maintainer differs from a derivation of the committed state")
	}
	serial, err := Open(ivmMatrixSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range append(setup, hooked, merged) {
		if _, err := serial.Exec(src); err != nil {
			t.Fatal(err)
		}
	}
	var got, want strings.Builder
	if err := db.Save(&sb2{&got}); err != nil {
		t.Fatal(err)
	}
	if err := serial.Save(&sb2{&want}); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("Save bytes differ from the serial replay")
	}
	for e := landed.epoch; e <= s.epoch; e++ {
		if d := <-sub.C; d.Epoch != e {
			t.Fatalf("diff for epoch %d, want %d", d.Epoch, e)
		}
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("the subscription ended: %v", err)
	}
}

// TestReplacementsBuiltBesideWriters runs a rule changer beside two data
// writers on one WithIncremental database. The changer alternates a RADI
// and an RDDI of a negation rule, so each of its attempts builds the
// maintainer of the state it replaces, outside the write lock, while the
// writers' attempts step theirs. Every landed epoch emits exactly one
// ivm.propagate or ivm.rebuild; the subscriber's diffs replay onto the
// initial set to the final maintained set, which equals a derivation;
// and no commit after a build emits into the tracer of the call that
// built: the maintainer is handed over under the database's options.
func TestReplacementsBuiltBesideWriters(t *testing.T) {
	const (
		changes = 8
		commits = 16 // per writer
		rule    = "  unreach1(a: X, b: Y) <- node1(n: X), node1(n: Y), not tc1(src: X, dst: Y).\n"
	)
	db, err := Open(twoWriterSchema, WithIncremental(true), WithMaxRetries(1000))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"mode ridv.\nrules\n  node1(n: 0). node1(n: 3). node1(n: 6). edge1(src: 8, dst: 0). edge2(src: 8, dst: 0).\nend.\n",
		twoWriterPrograms[0].rules,
	} {
		if _, err := db.Exec(src); err != nil {
			t.Fatal(err)
		}
	}
	initial, err := db.Instance()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := db.SubscribeView(SubscribeOptions{Buffer: changes + 2*commits + 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	rt := &recordingTracer{}
	db.SetTracer(rt)
	change := func(i int, req string) error {
		mode := "radi"
		if i%2 == 1 {
			mode = "rddi"
		}
		ctx := obs.ContextWithSpan(context.Background(), obs.NewSpan(req, "", ""))
		_, err := db.ExecContext(ctx, "mode "+mode+".\nrules\n"+rule+"end.\n")
		return err
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < changes; i++ {
			if err := change(i, fmt.Sprintf("change-%d", i)); err != nil {
				t.Errorf("change %d: %v", i, err)
				return
			}
		}
	}()
	for w := 1; w <= 2; w++ {
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
	steps := map[int]int{}
	rt.mu.Lock()
	for _, ev := range rt.events {
		if ev.Kind == obs.KindIVMPropagate || ev.Kind == obs.KindIVMRebuild {
			steps[ev.Round]++
		}
	}
	rt.mu.Unlock()
	if len(steps) != int(s.epoch-sub.Epoch) {
		t.Fatalf("maintenance events at %d epochs, want the %d landed", len(steps), s.epoch-sub.Epoch)
	}
	for e := sub.Epoch + 1; e <= s.epoch; e++ {
		if steps[int(e)] != 1 {
			t.Fatalf("epoch %d emitted %d maintenance events, want 1", e, steps[int(e)])
		}
	}
	fresh, err := s.st.Derive(s.opts)
	if err != nil {
		t.Fatal(err)
	}
	if !s.maint.Full().Equal(fresh) {
		t.Fatal("the maintained set differs from a fresh derivation")
	}
	replay := map[string]bool{}
	for _, f := range initial {
		replay[f.Key()] = true
	}
	for e := sub.Epoch + 1; e <= s.epoch; e++ {
		d := <-sub.C
		if d.Epoch != e {
			t.Fatalf("diff for epoch %d, want %d", d.Epoch, e)
		}
		for _, f := range d.Removes {
			delete(replay, f.Key())
		}
		for _, f := range d.Adds {
			replay[f.Key()] = true
		}
	}
	want := map[string]bool{}
	for _, f := range s.maint.Full().AppendAll(nil) {
		want[f.Key()] = true
	}
	if !maps.Equal(replay, want) {
		t.Fatalf("the diffs replay to %d facts, want the maintained %d", len(replay), len(want))
	}

	// A build, then commits stepping what it built through the suffix.
	if err := change(0, "built"); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	built := len(rt.events)
	rt.mu.Unlock()
	for c := commits; c < commits+2; c++ {
		if _, err := db.Exec(twoWriterCommit(1, c)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range rt.events[built:] {
		if ev.Req == "built" {
			t.Fatalf("a later commit emitted %s into the building call's tracer", ev.Kind)
		}
	}
}

// factDiff is the fact-level difference between two fact sets, each side
// sorted by fact key, as a ViewDiff carries it.
func factDiff(before, after *engine.FactSet) (adds, removes []Fact) {
	for _, f := range after.AppendAll(nil) {
		if !before.Has(f) {
			adds = append(adds, f)
		}
	}
	for _, f := range before.AppendAll(nil) {
		if !after.Has(f) {
			removes = append(removes, f)
		}
	}
	engine.SortFactsByKey(adds)
	engine.SortFactsByKey(removes)
	return adds, removes
}
