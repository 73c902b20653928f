package pmap

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// model is the reference: a Go map, read in sort.Strings order.
type model map[string]int

func (m model) sortedKeys() []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// check fails t unless p holds exactly the entries of want, in key order,
// and satisfies the B-tree invariants: keys strictly ascending, every
// leaf at one depth, every node but the root at least minItems full, no
// stale entry past a node's last item.
func check(t *testing.T, what string, p Map[string, int], want model) {
	t.Helper()
	if p.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", what, p.Len(), len(want))
	}
	var got []string
	p.Ascend(func(k string, v int) bool {
		if want[k] != v {
			t.Fatalf("%s: %q = %d, want %d", what, k, v, want[k])
		}
		got = append(got, k)
		return true
	})
	if keys := want.sortedKeys(); !slices.Equal(got, keys) {
		t.Fatalf("%s: keys\n got %v\nwant %v", what, got, keys)
	}
	for k, v := range want {
		if g, ok := p.Get(k); !ok || g != v {
			t.Fatalf("%s: Get(%q) = %d, %v; want %d", what, k, g, ok, v)
		}
	}
	if k, _, ok := p.Max(); ok != (len(got) > 0) || ok && k != got[len(got)-1] {
		t.Fatalf("%s: Max = %q, %v", what, k, ok)
	}
	if p.root == nil {
		return
	}
	leafDepth := -1
	var walk func(nd *node[string, int], depth int, root bool)
	walk = func(nd *node[string, int], depth int, root bool) {
		if nd.n > maxItems || !root && nd.n < minItems || root && nd.n == 0 {
			t.Fatalf("%s: node of %d items at depth %d", what, nd.n, depth)
		}
		for i := 1; i < nd.n; i++ {
			if nd.keys[i-1] >= nd.keys[i] {
				t.Fatalf("%s: keys out of order in a node", what)
			}
		}
		for i := nd.n; i < maxItems; i++ {
			if nd.keys[i] != "" || nd.vals[i] != 0 || nd.kids[i+1] != nil {
				t.Fatalf("%s: stale slot %d in a node of %d items", what, i, nd.n)
			}
		}
		if nd.leaf() {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("%s: leaves at depths %d and %d", what, leafDepth, depth)
			}
			return
		}
		for i := 0; i <= nd.n; i++ {
			if nd.kids[i] == nil {
				t.Fatalf("%s: internal node lacks child %d", what, i)
			}
			walk(nd.kids[i], depth+1, false)
		}
	}
	walk(p.root, 0, true)
}

// naiveDiff is the reference for Diff: the keys of exactly one side, in
// order, with the side that holds them.
func naiveDiff(a, b model) []string {
	var out []string
	for _, k := range a.sortedKeys() {
		if _, ok := b[k]; !ok {
			out = append(out, "+"+k)
		}
	}
	for _, k := range b.sortedKeys() {
		if _, ok := a[k]; !ok {
			out = append(out, "-"+k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][1:] < out[j][1:] })
	return out
}

func diffOf(t *testing.T, a, b Map[string, int], ma, mb model) []string {
	t.Helper()
	var out []string
	Diff(a, b, func(k string, v int, inA bool) bool {
		sign, want := "-", mb[k]
		if inA {
			sign, want = "+", ma[k]
		}
		if v != want {
			t.Fatalf("Diff yields %s%q = %d, want %d", sign, k, v, want)
		}
		out = append(out, sign+k)
		return true
	})
	return out
}

// version is one side of a clone: a map, the owner it writes with, and
// its model.
type version struct {
	p Map[string, int]
	o *Owner
	m model
}

// clone copies v and retires its owner: both sides write with fresh ones.
func (v *version) clone() *version {
	v.o = NewOwner()
	m := make(model, len(v.m))
	for k, x := range v.m {
		m[k] = x
	}
	return &version{p: v.p, o: NewOwner(), m: m}
}

func (v *version) set(k string, x int) {
	prev, replaced := v.p.Set(v.o, k, x)
	if old, ok := v.m[k]; ok != replaced || ok && old != prev {
		panic(fmt.Sprintf("Set(%q) replaced %d, %v; model held %d, %v", k, prev, replaced, old, ok))
	}
	v.m[k] = x
}

func (v *version) del(k string) {
	prev, ok := v.p.Delete(v.o, k)
	if old, had := v.m[k]; ok != had || ok && old != prev {
		panic(fmt.Sprintf("Delete(%q) = %d, %v; model held %d, %v", k, prev, ok, old, had))
	}
	delete(v.m, k)
}

// TestMapDifferential drives random sets and deletes through a family of
// clones, each written on its own, against one Go map per version: every
// version must keep exactly its own entries, and Diff between any two
// must equal the naive diff of their models.
func TestMapDifferential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keySpace := 1 + rng.Intn(600)
		vs := []*version{{o: NewOwner(), m: model{}}}
		for step := 0; step < 1500; step++ {
			v := vs[rng.Intn(len(vs))]
			switch r := rng.Intn(100); {
			case r < 2 && len(vs) < 8:
				vs = append(vs, v.clone())
			case r < 55:
				v.set(fmt.Sprintf("k%04d", rng.Intn(keySpace)), rng.Intn(1000))
			default:
				v.del(fmt.Sprintf("k%04d", rng.Intn(keySpace)))
			}
		}
		for i, v := range vs {
			check(t, fmt.Sprintf("seed %d version %d", seed, i), v.p, v.m)
			for j, w := range vs {
				if got, want := diffOf(t, v.p, w.p, v.m, w.m), naiveDiff(v.m, w.m); !slices.Equal(got, want) {
					t.Fatalf("seed %d: Diff(v%d, v%d)\n got %v\nwant %v", seed, i, j, got, want)
				}
			}
		}
	}
}

// TestMapBuild checks Build against one Set per entry at every size up to
// a few levels, and a map built then written both ways.
func TestMapBuild(t *testing.T) {
	for n := 0; n <= 700; n += 1 + n/16 {
		keys := make([]string, n)
		m := model{}
		for i := range keys {
			keys[i] = fmt.Sprintf("k%05d", i*3)
			m[keys[i]] = i
		}
		o := NewOwner()
		p := Build(o, n, func(i int) (string, int) { return keys[i], i })
		check(t, fmt.Sprintf("Build(%d)", n), p, m)
		v := &version{p: p, o: o, m: m}
		w := v.clone()
		for i := 0; i < n; i += 2 {
			w.del(keys[i])
			w.set(fmt.Sprintf("k%05d", i*3+1), -i)
		}
		check(t, fmt.Sprintf("Build(%d) after writes", n), w.p, w.m)
		check(t, fmt.Sprintf("Build(%d) source", n), v.p, v.m)
		if got, want := diffOf(t, w.p, v.p, w.m, v.m), naiveDiff(w.m, v.m); !slices.Equal(got, want) {
			t.Fatalf("Build(%d): Diff\n got %v\nwant %v", n, got, want)
		}
	}
}

// nodes returns every node reachable from p's root.
func nodes(p Map[string, int]) map[*node[string, int]]bool {
	seen := map[*node[string, int]]bool{}
	var walk func(nd *node[string, int])
	walk = func(nd *node[string, int]) {
		if nd == nil || seen[nd] {
			return
		}
		seen[nd] = true
		for i := 0; i <= nd.n; i++ {
			walk(nd.kids[i])
		}
	}
	walk(p.root)
	return seen
}

// TestDiffSkipsSharedSubtrees diffs a large map against a clone with two
// writes after poisoning every node the two share (an item count past
// the node's arrays): opening any of them would panic, so Diff must find
// both changes on the copied paths alone, and allocate nothing.
func TestDiffSkipsSharedSubtrees(t *testing.T) {
	const n = 20000
	a := Build(NewOwner(), n, func(i int) (string, int) { return fmt.Sprintf("k%06d", 2*i), i })
	b := a
	o := NewOwner()
	b.Set(o, "k010001", -1)
	b.Delete(o, "k000000")
	inB := nodes(b)
	var shared []*node[string, int]
	for nd := range nodes(a) {
		if inB[nd] {
			shared = append(shared, nd)
		}
	}
	if len(shared) < n/maxItems/2 {
		t.Fatalf("only %d nodes shared after two writes", len(shared))
	}
	counts := make([]int, len(shared))
	for i, nd := range shared {
		counts[i], nd.n = nd.n, maxItems+1
	}
	var got []string
	Diff(a, b, func(k string, _ int, inA bool) bool {
		got = append(got, fmt.Sprintf("%s %v", k, inA))
		return true
	})
	allocs := testing.AllocsPerRun(20, func() {
		Diff(a, b, func(string, int, bool) bool { return true })
	})
	for i, nd := range shared {
		nd.n = counts[i]
	}
	if want := []string{"k000000 true", "k010001 false"}; !slices.Equal(got, want) {
		t.Fatalf("Diff = %v, want %v", got, want)
	}
	if allocs > 0 {
		t.Fatalf("Diff of two writes allocates %.0f times", allocs)
	}
}

// TestMapConcurrentReadersOfClonedSource runs eight readers over a map
// whose owner has retired while a clone of it is written: under -race,
// any write through a shared node is reported, and each reader must see
// the source's entries throughout.
func TestMapConcurrentReadersOfClonedSource(t *testing.T) {
	src := &version{o: NewOwner(), m: model{}}
	for i := 0; i < 3000; i++ {
		src.set(fmt.Sprintf("k%05d", i), i)
	}
	w := src.clone()
	frozen := src.p
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				n := 0
				frozen.Ascend(func(k string, v int) bool {
					if src.m[k] != v {
						panic(fmt.Sprintf("reader %d: %q = %d", r, k, v))
					}
					n++
					return true
				})
				if n != len(src.m) {
					panic(fmt.Sprintf("reader %d: %d entries, want %d", r, n, len(src.m)))
				}
				k := fmt.Sprintf("k%05d", (r*997+round*31)%3000)
				if v, ok := frozen.Get(k); !ok || v != src.m[k] {
					panic(fmt.Sprintf("reader %d: Get(%q) = %d, %v", r, k, v, ok))
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("k%05d", rng.Intn(4000))
		if rng.Intn(2) == 0 {
			w.p.Set(w.o, k, -i)
		} else {
			w.p.Delete(w.o, k)
		}
	}
	wg.Wait()
	check(t, "source after the clone's writes", frozen, src.m)
}

// FuzzPMap runs an arbitrary program of sets, deletes and clones against
// Go maps and checks every version and every pairwise Diff at the end.
func FuzzPMap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("\x00\x10\x20\x30\x40\xff\x81\x82\x83\x84\x85\x86\x87\x88"))
	f.Add(bytes.Repeat([]byte{0x11, 0x92, 0x23, 0xf4}, 200))
	f.Fuzz(func(t *testing.T, prog []byte) {
		vs := []*version{{o: NewOwner(), m: model{}}}
		for i := 0; i+1 < len(prog); i += 2 {
			op, arg := prog[i], prog[i+1]
			v := vs[int(op>>4)%len(vs)]
			k := fmt.Sprintf("%03d", arg)
			switch op & 0x0f {
			case 0x0f:
				if len(vs) < 6 {
					vs = append(vs, v.clone())
				}
			case 0, 1, 2, 3, 4, 5, 6, 7:
				v.set(k, int(op))
			default:
				v.del(k)
			}
		}
		for i, v := range vs {
			check(t, fmt.Sprintf("version %d", i), v.p, v.m)
			for j, w := range vs {
				if got, want := diffOf(t, v.p, w.p, v.m, w.m), naiveDiff(v.m, w.m); !slices.Equal(got, want) {
					t.Fatalf("Diff(v%d, v%d)\n got %v\nwant %v", i, j, got, want)
				}
			}
		}
	})
}
