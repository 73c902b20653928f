package logres

import (
	"errors"
	"fmt"
	"sync"
	"testing"
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
