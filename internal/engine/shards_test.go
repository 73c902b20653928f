package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"logres/internal/value"
)

// Tests of the sharded FactSet: extensional equivalence with the unsharded
// layout under randomized operation interleavings, and bit-identical
// parallel evaluation across the worker × shard matrix.

// randomFact draws either an association or a class fact, from a small
// domain so Adds collide with Removes and class replacements actually
// happen.
func randomFact(r *rand.Rand) Fact {
	if r.Intn(3) == 0 {
		return classTagFact(int64(r.Intn(12)+1), int64(r.Intn(5)))
	}
	return edgeFact(r.Intn(24), r.Intn(24))
}

// assertSameFacts checks extensional equality and that every predicate
// enumerates in the same order on both layouts (the k-way shard merge must
// be transparent).
func assertSameFacts(t *testing.T, step int, ref, got *FactSet) {
	t.Helper()
	if !ref.Equal(got) || !got.Equal(ref) {
		t.Fatalf("step %d: sharded set diverged (%d vs %d facts)", step, ref.TotalSize(), got.TotalSize())
	}
	for _, p := range ref.Preds() {
		rf, gf := ref.Facts(p), got.Facts(p)
		if len(rf) != len(gf) {
			t.Fatalf("step %d: %s: %d vs %d facts", step, p, len(rf), len(gf))
		}
		for i := range rf {
			if rf[i].Key() != gf[i].Key() {
				t.Fatalf("step %d: %s[%d]: order diverged: %q vs %q", step, p, i, rf[i].Key(), gf[i].Key())
			}
		}
	}
}

// Property: a sharded FactSet is extensionally identical to the unsharded
// reference — same facts, same enumeration order — after any interleaving
// of Add, Remove, reads, Freeze/Thaw, Clone, Compose, Minus, and ordered
// parallel merges. Run under -race this also exercises the merge and
// freeze goroutines.
func TestFactSetShardEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 7, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(1000 + shards)))
			ref := NewFactSet()
			got := NewFactSetShards(shards)
			for step := 0; step < 600; step++ {
				switch op := r.Intn(12); {
				case op < 5: // add
					f := randomFact(r)
					ref.Add(f)
					got.Add(f)
				case op < 7: // remove
					f := randomFact(r)
					ref.Remove(f)
					got.Remove(f)
				case op == 7: // cached reads
					pred := []string{"edge", "node"}[r.Intn(2)]
					_ = ref.Facts(pred)
					_ = got.Facts(pred)
					v := value.Int(int64(r.Intn(24)))
					_ = ref.FactsByComponent("edge", "src", v)
					_ = got.FactsByComponent("edge", "src", v)
				case op == 8: // freeze (parallel on the sharded set), read, thaw
					ref.Freeze()
					got.FreezeParallel(1 + r.Intn(4))
					assertSameFacts(t, step, ref, got)
					ref.Thaw()
					got.Thaw()
				case op == 9: // clone (copy-on-write cache carry)
					ref, got = ref.Clone(), got.Clone()
				case op == 10: // compose ⊕ / minus with a small random set
					d := NewFactSet()
					for i := 0; i < r.Intn(6); i++ {
						d.Add(randomFact(r))
					}
					if r.Intn(2) == 0 {
						ref, got = ref.Compose(d), got.Compose(d)
					} else {
						ref, got = ref.Minus(d), got.Minus(d)
					}
				default: // ordered parallel merge of several task deltas
					var refDeltas, gotDeltas []*FactSet
					for i := 0; i < 3; i++ {
						rd, gd := NewFactSet(), NewFactSetShards(shards)
						for j := 0; j < r.Intn(8); j++ {
							f := randomFact(r)
							rd.Add(f)
							gd.Add(f)
						}
						refDeltas = append(refDeltas, rd)
						gotDeltas = append(gotDeltas, gd)
					}
					for _, d := range refDeltas {
						ref.Merge(d)
					}
					ms := got.MergeOrdered(gotDeltas)
					if want := shards > 1; (ms.Shards > 1) != want {
						t.Fatalf("step %d: MergeOrdered used %d shards on a %d-shard set", step, ms.Shards, shards)
					}
				}
				if step%50 == 0 {
					assertSameFacts(t, step, ref, got)
				}
			}
			assertSameFacts(t, 600, ref, got)
			if got.ShardCount() != shards {
				t.Fatalf("shard count drifted to %d", got.ShardCount())
			}
		})
	}
}

// The full worker × shard matrix must be bit-identical to serial
// evaluation — same facts, same oid counters — on eligible (semi-naive)
// and negation-bearing programs.
func TestParallelDeterminismMatrix(t *testing.T) {
	programs := map[string]string{
		"closure": closureRules,
		"negation": closureRules + `
same(a: X, b: Y) <- edge(src: X, dst: Y), not tc(src: Y, dst: X).
`,
	}
	for name, rules := range programs {
		p, err := tryBuild(edgeSchema, rules, Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		edb := randomEdgeFacts(12, 60, 21)
		c0 := int64(0)
		want, err := p.Run(edb.Clone(), &c0)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			for _, shards := range []int{1, 4, 16} {
				p.SetWorkers(workers)
				p.SetShards(shards)
				c := int64(0)
				got, err := p.Run(edb.Clone(), &c)
				if err != nil {
					t.Fatalf("%s workers=%d shards=%d: %v", name, workers, shards, err)
				}
				if !want.Equal(got) {
					t.Fatalf("%s: workers=%d shards=%d diverged (%d vs %d facts)",
						name, workers, shards, want.TotalSize(), got.TotalSize())
				}
				if c != c0 {
					t.Fatalf("%s: workers=%d shards=%d counter %d, want %d", name, workers, shards, c, c0)
				}
			}
		}
		p.SetWorkers(1)
		p.SetShards(1)
	}
}

// Non-eligible strata — oid invention and deletion heads — now run their
// matching passes on the worker pool (round-0 parallel matching) with
// effects sequenced at merge; results must stay bit-identical to serial.
func TestParallelDeterminismDeletion(t *testing.T) {
	schema := `
classes C = (v: integer);
associations
  SEED = (v: integer);
  KILL = (v: integer);
`
	rules := `
c(v: V) <- seed(v: V), not kill(v: V).
not c(v: V) <- kill(v: V).
`
	p, err := tryBuild(schema, rules, Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(pred string, v int) Fact {
		return Fact{Pred: pred, Tuple: value.NewTuple(
			value.Field{Label: "v", Value: value.Int(int64(v))},
		)}
	}
	edb := NewFactSet()
	for i := 0; i < 40; i++ {
		edb.Add(mk("seed", i))
		if i%3 == 0 {
			edb.Add(mk("kill", i))
		}
	}
	c0 := int64(0)
	want, err := p.Run(edb.Clone(), &c0)
	if err != nil {
		t.Fatal(err)
	}
	if want.Size("c") == 0 || c0 == 0 {
		t.Fatal("deletion program derived nothing")
	}
	for _, workers := range []int{2, 4, 8} {
		p.SetWorkers(workers)
		c := int64(0)
		got, err := p.Run(edb.Clone(), &c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !want.Equal(got) {
			t.Fatalf("workers=%d: deletion program diverged (%d vs %d facts)",
				workers, want.TotalSize(), got.TotalSize())
		}
		if c != c0 {
			t.Fatalf("workers=%d: oid counter %d, want %d", workers, c, c0)
		}
	}
}

// BenchmarkFactSetMergeParallel measures the contended step of parallel
// evaluation: folding many worker deltas into the current extension. With
// one shard the merge serializes on the single merged view; with several
// the deltas apply concurrently, one goroutine per shard.
func BenchmarkFactSetMergeParallel(b *testing.B) {
	const baseN, deltas, perDelta = 20000, 8, 1000
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			base := NewFactSetShards(shards)
			for i := 0; i < baseN; i++ {
				base.Add(edgeFact(i, i+1))
			}
			base.FreezeParallel(shards) // warm caches: the steady state between rounds
			base.Thaw()
			ds := make([]*FactSet, deltas)
			for d := range ds {
				ds[d] = NewFactSetShards(shards)
				for j := 0; j < perDelta; j++ {
					ds[d].Add(edgeFact(baseN+d*perDelta+j, j))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cur := base.Clone()
				cur.Facts("edge") // realistic: the view exists before the round
				b.StartTimer()
				cur.MergeOrdered(ds)
			}
		})
	}
}
