package bench

import (
	"testing"

	"logres/internal/ast"
)

// Correctness tests of the harness itself: every runner must return the
// expected counts before its timings mean anything.

func TestGenerators(t *testing.T) {
	if got := len(Chain(5)); got != 5 {
		t.Fatalf("chain = %d edges", got)
	}
	tr := Tree(2, 3)
	if len(tr) != 2+4+8 {
		t.Fatalf("tree = %d edges", len(tr))
	}
	r1 := Random(10, 20, 42)
	r2 := Random(10, 20, 42)
	if len(r1) != 20 || len(r2) != 20 {
		t.Fatal("random size wrong")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("random generator not deterministic")
		}
	}
	for _, e := range r1 {
		if e.From == e.To {
			t.Fatal("self loop generated")
		}
	}
}

func TestAllTCSystemsAgree(t *testing.T) {
	edges := Chain(8)
	want := 8 * 9 / 2 // closure of a chain

	lg, err := NewLogresTC(edges, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := lg.Run(); err != nil || got != want {
		t.Fatalf("logres semi = %d (%v), want %d", got, err, want)
	}
	lgN, err := NewLogresTC(edges, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := lgN.Run(); err != nil || got != want {
		t.Fatalf("logres naive = %d (%v)", got, err)
	}
}

func TestSameGenerationWorkload(t *testing.T) {
	sg, err := NewLogresSG(Tree(2, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sg.RunSG()
	if err != nil {
		t.Fatal(err)
	}
	// 7 reflexive + 2 (siblings at level 1) + 12 (pairs at level 2) = 21.
	if got != 21 {
		t.Fatalf("sg = %d, want 21", got)
	}
}

func TestInventionWorkload(t *testing.T) {
	inv, err := NewInvention(10, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := inv.Run("item"); err != nil || got != 10 {
		t.Fatalf("invention = %d (%v)", got, err)
	}
	flat, err := NewInvention(10, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := flat.Run("flat"); err != nil || got != 10 {
		t.Fatalf("flat = %d (%v)", got, err)
	}
}

func TestIsaChainWorkload(t *testing.T) {
	for _, depth := range []int{0, 3} {
		s, leaf, err := NewIsaChain(depth, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.Run(leaf); err != nil || got != 5 {
			t.Fatalf("depth %d: leaf = %d (%v)", depth, got, err)
		}
		if depth > 0 {
			if got, err := s.Run("c0"); err != nil || got != 5 {
				t.Fatalf("depth %d: root = %d (%v)", depth, got, err)
			}
		}
	}
}

func TestPowersetWorkload(t *testing.T) {
	s, err := NewPowerset(4)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Run(); err != nil || got != 16 {
		t.Fatalf("powerset = %d (%v), want 16", got, err)
	}
}

func TestWinLoseWorkload(t *testing.T) {
	edges := Chain(4) // reach 0..4; all reachable
	s, err := NewWinLose(edges, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RunPred("unreach")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("stratified: unreach = %d", got)
	}
	// Whole-program inflationary evaluation checks the negation against
	// the initial (empty) reach relation in step 1, so every node lands in
	// unreach — exactly the semantic gap E7 demonstrates.
	u, err := NewWinLose(edges, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err = u.RunPred("unreach")
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("whole-program: unreach = %d, want 5", got)
	}
}

func TestDescendantsWorkload(t *testing.T) {
	s, err := NewDescendants(Chain(3)) // 0->1->2->3
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RunPred("ancestor")
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("ancestor = %d", got)
	}
}

func TestModeWorkloads(t *testing.T) {
	for _, mode := range []ast.Mode{ast.RIDI, ast.RADI, ast.RIDV, ast.RADV} {
		s, err := NewModeWorkload(6, mode)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Run()
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if got != 6 {
			t.Fatalf("mode %s: copyrel = %d", mode, got)
		}
	}
}

func TestSnapshotWorkload(t *testing.T) {
	s, err := NewSnapshot(20)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Encode()
	if err != nil || n == 0 {
		t.Fatalf("encode = %d (%v)", n, err)
	}
	facts, err := s.Decode()
	if err != nil || facts != 39 { // 20 items + 19 links
		t.Fatalf("decode = %d (%v)", facts, err)
	}
}
