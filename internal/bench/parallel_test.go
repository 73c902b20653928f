package bench

import (
	"testing"

	"logres/internal/engine"
)

// runWorkers evaluates a workload's program on the row engine at a given
// worker count (the columnar default has no worker pool) and returns the
// full derived fact set.
func runWorkers(t *testing.T, s *TCSetup, workers int) *engine.FactSet {
	t.Helper()
	s.Program.SetVectorize(false)
	s.Program.SetWorkers(workers)
	counter := int64(0)
	f, err := s.Program.Run(s.EDB, &counter)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// The experiment workloads (E1 closure, E2 same-generation, E7 stratified
// negation) must derive identical fact sets at Workers=1 and Workers=8.
func TestWorkloadsParallelDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		setup func() (*TCSetup, error)
	}{
		{"E1-chain", func() (*TCSetup, error) { return NewLogresTC(Chain(48), true) }},
		{"E1-random", func() (*TCSetup, error) { return NewLogresTC(Random(24, 96, 5), true) }},
		{"E2-sg", func() (*TCSetup, error) { return NewLogresSG(Tree(2, 4), true) }},
		{"E7-winlose", func() (*TCSetup, error) { return NewWinLose(Chain(32), true) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s1, err := tc.setup()
			if err != nil {
				t.Fatal(err)
			}
			s8, err := tc.setup()
			if err != nil {
				t.Fatal(err)
			}
			f1 := runWorkers(t, s1, 1)
			f8 := runWorkers(t, s8, 8)
			if !f1.Equal(f8) {
				t.Fatalf("Workers=8 diverged from serial: %d vs %d facts",
					f8.TotalSize(), f1.TotalSize())
			}
			if f1.TotalSize() == 0 {
				t.Fatal("workload derived nothing")
			}
		})
	}
}
