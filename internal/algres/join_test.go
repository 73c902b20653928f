package algres

import (
	"fmt"
	"testing"

	"logres/internal/value"
)

// Regression tests for the smaller-side-build hash join: the result —
// contents and canonical Tuples() order — must be identical whichever
// relation the index is built on, must match a nested-loop reference,
// and must be stable across worker counts.

// nestedLoopJoin is the quadratic reference implementation.
func nestedLoopJoin(l, r *Relation) *Relation {
	var shared []string
	for _, a := range l.attrs {
		if r.HasAttr(a) {
			shared = append(shared, a)
		}
	}
	attrs := append([]string{}, l.attrs...)
	for _, a := range r.attrs {
		if !l.HasAttr(a) {
			attrs = append(attrs, a)
		}
	}
	out := NewRelation(attrs...)
	for _, lt := range l.Tuples() {
		for _, rt := range r.Tuples() {
			match := true
			for _, a := range shared {
				lv, _ := lt.Get(a)
				rv, _ := rt.Get(a)
				if !value.Equal(lv, rv) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			fields := make([]value.Field, 0, len(attrs))
			for i := 0; i < lt.Len(); i++ {
				fields = append(fields, lt.Field(i))
			}
			for i := 0; i < rt.Len(); i++ {
				f := rt.Field(i)
				if !l.HasAttr(f.Label) {
					fields = append(fields, f)
				}
			}
			out.Insert(value.NewTuple(fields...))
		}
	}
	return out
}

func joinCase(ln, rn int) (*Relation, *Relation) {
	l := NewRelation("a", "b")
	for i := 0; i < ln; i++ {
		l.InsertValues(value.Int(int64(i)), value.Int(int64(i%5)))
	}
	r := NewRelation("b", "c")
	for i := 0; i < rn; i++ {
		r.InsertValues(value.Int(int64(i%5)), value.Str(fmt.Sprintf("c%d", i)))
	}
	return l, r
}

func TestJoinSmallerSideBuild(t *testing.T) {
	cases := []struct {
		name   string
		ln, rn int
	}{
		{"left-smaller", 4, 40},
		{"right-smaller", 40, 4},
		{"equal", 8, 8},
		{"left-empty", 0, 8},
		{"right-empty", 8, 0},
		{"large-left", 600, 20},
	}
	for _, tc := range cases {
		l, r := joinCase(tc.ln, tc.rn)
		want := nestedLoopJoin(l, r)
		got := Join(l, r)
		if !got.Equal(want) {
			t.Fatalf("%s: join = %d tuples, reference = %d", tc.name, got.Len(), want.Len())
		}
		// Canonical order: Tuples() must enumerate identically.
		gt, wt := got.Tuples(), want.Tuples()
		for i := range wt {
			if gt[i].Key() != wt[i].Key() {
				t.Fatalf("%s: tuple order diverges at %d: %s vs %s", tc.name, i, gt[i], wt[i])
			}
		}
	}
}

// With no shared attributes the join degenerates to a Cartesian
// product; the build-side choice must not change that.
func TestJoinCartesianEitherBuildSide(t *testing.T) {
	small := NewRelation("a")
	small.InsertValues(value.Int(1))
	small.InsertValues(value.Int(2))
	big := NewRelation("z")
	for i := 0; i < 9; i++ {
		big.InsertValues(value.Str(fmt.Sprintf("v%d", i)))
	}
	ab := Join(small, big)
	ba := Join(big, small)
	if ab.Len() != 18 || ba.Len() != 18 {
		t.Fatalf("cartesian sizes = %d, %d, want 18", ab.Len(), ba.Len())
	}
	if !ab.Equal(nestedLoopJoin(small, big)) || !ba.Equal(nestedLoopJoin(big, small)) {
		t.Fatal("cartesian join diverged from nested-loop reference")
	}
}

// The output attribute order must stay left-then-right-extras even when
// the index is built on the left (smaller) side.
func TestJoinAttrOrderWithLeftBuild(t *testing.T) {
	l := NewRelation("x", "k")
	l.InsertValues(value.Int(1), value.Int(7))
	r := NewRelation("k", "y")
	for i := 0; i < 6; i++ {
		r.InsertValues(value.Int(7), value.Int(int64(i)))
	}
	out := Join(l, r)
	if got, want := fmt.Sprint(out.Attrs()), "[x k y]"; got != want {
		t.Fatalf("attrs = %s, want %s", got, want)
	}
	if out.Len() != 6 {
		t.Fatalf("len = %d, want 6", out.Len())
	}
}
