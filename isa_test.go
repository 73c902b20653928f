package logres

import (
	"fmt"
	"testing"

	"logres/internal/hooks"
	"logres/internal/obs"
)

// withIsaFullPass runs fn with every isa pass walking its whole sub
// class: the reference the Δ-local isa pass is held to.
func withIsaFullPass(fn func()) {
	hooks.IsaFullPass = true
	defer func() { hooks.IsaFullPass = false }()
	fn()
}

// A registrar enrol or drop commit writes one association fact, so no
// student or instructor object differs from the state it starts from:
// neither the update program's run nor the persistent program's visits an
// object in an isa step. Both programs hold one rule of their own, rule
// 0 (the update rule; the denial), and the generated isa steps after it.
// The first commit after the preload's RADI, which copies S, takes one
// full pass; from then on each commit's E is closed under the schema the
// next one runs under, at the gated size and at 16 times its sections.
func TestRegistrarCommitVisitsNoIsaObject(t *testing.T) {
	for _, scale := range []int{1, 16} {
		t.Run(fmt.Sprintf("enrolled=x%d", scale), func(t *testing.T) {
			db := registrarPreload(t, scale)
			registrarEnrolDrop(t, db, 0)
			for i := 1; i <= 4; i++ {
				rt := &recordingTracer{}
				db.SetTracer(rt)
				registrarEnrolDrop(t, db, i)
				db.SetTracer(nil)
				update, isa := 0, 0
				for _, ev := range rt.events {
					switch {
					case ev.Kind != obs.KindRuleFire:
					case ev.Rule == 0:
						update += ev.Count
					default:
						isa += ev.Count
					}
				}
				if update == 0 || isa != 0 {
					t.Fatalf("commit %d: the update rule fired %d times and the isa steps %d, want some and 0", i, update, isa)
				}
			}
		})
	}
}
