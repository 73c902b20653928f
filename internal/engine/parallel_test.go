package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"logres/internal/value"
)

// Tests of the parallel semi-naive engine and of the frozen FactSet it
// reads (the cache maintenance tests are in facts_test.go).

// Parallel evaluation must be bit-identical to serial for every worker
// count, on both random graphs and deep chains (many rounds, small deltas).
func TestParallelDeterminism(t *testing.T) {
	opts := Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 1}
	serial, err := tryBuild(edgeSchema, closureRules, opts)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := tryBuild(edgeSchema, closureRules, opts)
	if err != nil {
		t.Fatal(err)
	}

	edbs := map[string]*FactSet{
		"chain":  chainEdgeFacts(40),
		"random": randomEdgeFacts(12, 40, 7),
		"dense":  randomEdgeFacts(6, 60, 11),
		"empty":  NewFactSet(),
	}
	for name, edb := range edbs {
		for _, workers := range []int{2, 3, 8} {
			c1, c2 := int64(0), int64(0)
			serial.SetWorkers(1)
			fS, err := serial.Run(edb.Clone(), &c1)
			if err != nil {
				t.Fatalf("%s serial: %v", name, err)
			}
			parallel.SetWorkers(workers)
			fP, err := parallel.Run(edb.Clone(), &c2)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !fS.Equal(fP) {
				t.Fatalf("%s: workers=%d diverged from serial (%d vs %d facts)",
					name, workers, fS.TotalSize(), fP.TotalSize())
			}
			if c1 != c2 {
				t.Fatalf("%s: oid counters diverged: %d vs %d", name, c1, c2)
			}
		}
	}
}

// A stratified program with negation: the negated stratum still runs
// delta iteration (fully bound negation carries no adVars), and the
// parallel result must match serial exactly.
func TestParallelDeterminismNegation(t *testing.T) {
	rules := closureRules + `
same(a: X, b: Y) <- edge(src: X, dst: Y), not tc(src: Y, dst: X).
`
	opts := Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 1}
	p, err := tryBuild(edgeSchema, rules, opts)
	if err != nil {
		t.Fatal(err)
	}
	edb := randomEdgeFacts(10, 35, 3)
	c1 := int64(0)
	p.SetWorkers(1)
	fS, err := p.Run(edb.Clone(), &c1)
	if err != nil {
		t.Fatal(err)
	}
	c2 := int64(0)
	p.SetWorkers(8)
	fP, err := p.Run(edb.Clone(), &c2)
	if err != nil {
		t.Fatal(err)
	}
	if !fS.Equal(fP) {
		t.Fatalf("negation program diverged: %d vs %d facts", fS.TotalSize(), fP.TotalSize())
	}
}

// A program with oid invention: inventive strata stay on the serial
// one-step operator even when Workers > 1, so parallel runs remain
// bit-identical (same oids, same counter).
func TestParallelDeterminismInvention(t *testing.T) {
	schema := `
classes
  NODE = (tag: integer);
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`
	rules := closureRules + `
node(self: N, tag: X) <- tc(src: X, dst: Y).
`
	opts := Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 1}
	p, err := tryBuild(schema, rules, opts)
	if err != nil {
		t.Fatal(err)
	}
	edb := chainEdgeFacts(12)
	c1 := int64(0)
	p.SetWorkers(1)
	fS, err := p.Run(edb.Clone(), &c1)
	if err != nil {
		t.Fatal(err)
	}
	c2 := int64(0)
	p.SetWorkers(8)
	fP, err := p.Run(edb.Clone(), &c2)
	if err != nil {
		t.Fatal(err)
	}
	if !fS.Equal(fP) {
		t.Fatal("invention program diverged between serial and parallel")
	}
	if c1 != c2 {
		t.Fatalf("oid counters diverged: %d vs %d", c1, c2)
	}
	if fS.Size("node") == 0 {
		t.Fatal("expected invented node facts")
	}
}

// Workers and per-round timings must surface through Stats and Explain.
func TestParallelStats(t *testing.T) {
	opts := Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 4}
	p, err := tryBuild(edgeSchema, closureRules, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := int64(0)
	if _, err := p.Run(chainEdgeFacts(20), &c); err != nil {
		t.Fatal(err)
	}
	st := p.LastStats()
	if st.Workers != 4 {
		t.Fatalf("Stats.Workers = %d, want 4", st.Workers)
	}
	if len(st.RoundTimings) == 0 {
		t.Fatal("expected per-round timings for a parallel run")
	}
	if st.RoundTimings[0].Tasks == 0 {
		t.Fatal("round 0 recorded zero tasks")
	}
	out := p.Explain()
	if !strings.Contains(out, "workers: 4") {
		t.Fatalf("Explain missing worker count:\n%s", out)
	}
	if !strings.Contains(out, "parallel semi-naive") {
		t.Fatalf("Explain missing parallel round summary:\n%s", out)
	}
}

// SetWorkers normalizes non-positive counts to GOMAXPROCS and Compile
// applies the same default.
func TestWorkersNormalization(t *testing.T) {
	p, err := tryBuild(edgeSchema, closureRules, Options{MaxSteps: 100, SemiNaive: true, Stratify: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers() < 1 {
		t.Fatalf("default workers = %d, want >= 1", p.Workers())
	}
	p.SetWorkers(0)
	if p.Workers() < 1 {
		t.Fatalf("SetWorkers(0) left workers = %d, want >= 1", p.Workers())
	}
	p.SetWorkers(3)
	if p.Workers() != 3 {
		t.Fatalf("SetWorkers(3) left workers = %d", p.Workers())
	}
}

// A frozen FactSet must be safe for unsynchronized concurrent readers
// (validated under -race) and must reject mutation.
func TestFrozenConcurrentReaders(t *testing.T) {
	fs := randomEdgeFacts(20, 200, 5)
	fs.Freeze()
	if !fs.Frozen() {
		t.Fatal("Frozen() = false after Freeze")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := value.Int(int64((g*31 + i) % 20))
				_ = fs.Facts("edge")
				_ = fs.FactsByComponent("edge", "src", v)
				_ = fs.FactsByComponent("edge", "dst", v)
				_ = fs.FactsByComponent("edge", "missing", value.Null{})
				_ = fs.Has(edgeFact(i%20, (i+1)%20))
				_ = fs.Size("edge")
			}
		}(g)
	}
	wg.Wait()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Add on frozen set did not panic")
			}
		}()
		fs.Add(edgeFact(99, 99))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Remove on frozen set did not panic")
			}
		}()
		fs.Remove(edgeFact(0, 1))
	}()

	fs.Thaw()
	if !fs.Add(edgeFact(99, 99)) {
		t.Fatal("Add after Thaw failed")
	}
}

// Freeze on a frozen set is a no-op; a missing label on a frozen set routes
// null lookups to the whole extension.
func TestFrozenNullComponent(t *testing.T) {
	fs := chainEdgeFacts(5)
	fs.Freeze()
	fs.Freeze()
	all := fs.FactsByComponent("edge", "nolabel", value.Null{})
	if len(all) != 5 {
		t.Fatalf("null lookup on absent label returned %d facts, want 5", len(all))
	}
	if got := fs.FactsByComponent("edge", "nolabel", value.Int(1)); got != nil {
		t.Fatalf("non-null lookup on absent label returned %v, want nil", got)
	}
	if got := fs.Facts("ghost"); got != nil {
		t.Fatalf("Facts on absent pred of frozen set returned %v, want nil", got)
	}
}

// Parallel evaluation under the race detector: the full engine path with
// many workers sharing a frozen snapshot.
func TestParallelRace(t *testing.T) {
	opts := Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 8}
	p, err := tryBuild(edgeSchema, closureRules, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := int64(0)
	f, err := p.Run(randomEdgeFacts(15, 120, 9), &c)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size("tc") == 0 {
		t.Fatal("no closure facts derived")
	}
}

// BenchmarkFactSetIncremental measures interleaved Add + indexed lookup —
// the access pattern of a semi-naive round. Before incremental maintenance
// every Add discarded the sorted slice and component index, making each
// round O(n log n); now it is O(1) amortized per fact.
func BenchmarkFactSetIncremental(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fs := NewFactSet()
				fs.Facts("edge")
				for j := 0; j < n; j++ {
					fs.Add(edgeFact(j, j+1))
					_ = fs.FactsByComponent("edge", "src", value.Int(int64(j)))
				}
			}
		})
	}
}

// BenchmarkParallelClosure compares serial and parallel chain closure.
func BenchmarkParallelClosure(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := Options{MaxSteps: 100000, SemiNaive: true, Stratify: true, Workers: workers}
			p, err := tryBuild(edgeSchema, closureRules, opts)
			if err != nil {
				b.Fatal(err)
			}
			edb := chainEdgeFacts(128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := int64(0)
				if _, err := p.Run(edb.Clone(), &c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
