package colset

import (
	"fmt"
	"testing"

	"logres/internal/value"
)

func TestDictInterning(t *testing.T) {
	d := NewDict()
	a := d.Code(value.Int(5))
	b := d.Code(value.Int(5))
	if a != b {
		t.Fatalf("same value got codes %d and %d", a, b)
	}
	if c := d.Code(value.Str("5")); c == a {
		t.Fatal("int 5 and string \"5\" share a code")
	}
	// Int and Real with the same numeric rendering are distinct values.
	if d.Code(value.Real(5)) == a {
		t.Fatal("int 5 and real 5.0 share a code")
	}
	if !value.Equal(d.Value(a), value.Int(5)) {
		t.Fatalf("decode(%d) = %v", a, d.Value(a))
	}
	if _, ok := d.Lookup(value.Int(99)); ok {
		t.Fatal("Lookup interned a new value")
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
}

// Code on an interned value and Lookup allocate nothing; only a miss
// interns (and allocates) the key.
func TestDictHitAllocatesNothing(t *testing.T) {
	d := NewDict()
	vals := []value.Value{value.Int(1 << 40), value.Str("abc"), value.Null{},
		value.NewTuple(value.Field{Label: "a", Value: value.Int(1)})}
	for _, v := range vals {
		c := d.Code(v)
		if n := testing.AllocsPerRun(100, func() { d.Code(v) }); n != 0 {
			t.Errorf("Code(%v) hit: %v allocations, want 0", v, n)
		}
		if n := testing.AllocsPerRun(100, func() { d.Lookup(v) }); n != 0 {
			t.Errorf("Lookup(%v): %v allocations, want 0", v, n)
		}
		if got, ok := d.Lookup(v); !ok || got != c {
			t.Errorf("Lookup(%v) = %d, %v; want %d, true", v, got, ok, c)
		}
	}
}

func TestBatchAndSlice(t *testing.T) {
	b := NewBatch(2)
	for i := uint32(0); i < 10; i++ {
		b.AppendRow([]uint32{i, i * i})
	}
	v := b.Slice(3, 7)
	if v.Len() != 4 || v.Col(0)[0] != 3 || v.Col(1)[3] != 36 {
		t.Fatalf("slice view wrong: len=%d", v.Len())
	}
	// Appending to the parent must not disturb the view.
	for i := uint32(10); i < 100; i++ {
		b.AppendRow([]uint32{i, i})
	}
	if v.Len() != 4 || v.Col(0)[0] != 3 || v.Col(1)[3] != 36 {
		t.Fatal("slice view corrupted by parent appends")
	}
}

func TestSelectKernels(t *testing.T) {
	col := []uint32{5, 1, 5, 2, 5}
	sel := SelectEq(col, len(col), nil, 5)
	if fmt.Sprint(sel) != "[0 2 4]" {
		t.Fatalf("SelectEq = %v", sel)
	}
	// Composing with a prior selection keeps input order.
	sel2 := SelectEq(col, len(col), []int32{1, 2, 3, 4}, 5)
	if fmt.Sprint(sel2) != "[2 4]" {
		t.Fatalf("composed SelectEq = %v", sel2)
	}
	a := []uint32{1, 2, 3, 4}
	b := []uint32{1, 0, 3, 0}
	if got := SelectColEq(a, b, 4, nil); fmt.Sprint(got) != "[0 2]" {
		t.Fatalf("SelectColEq = %v", got)
	}
}

// joinRef is the quadratic reference for the pair set.
func joinRef(lkeys [][]uint32, ln int, rkeys [][]uint32, rn int) map[[2]int32]bool {
	out := map[[2]int32]bool{}
	for i := 0; i < ln; i++ {
		for j := 0; j < rn; j++ {
			eq := true
			for c := range lkeys {
				if lkeys[c][i] != rkeys[c][j] {
					eq = false
					break
				}
			}
			if eq {
				out[[2]int32{int32(i), int32(j)}] = true
			}
		}
	}
	return out
}

func TestJoinKernelWidths(t *testing.T) {
	// Exercise all three index shapes: 1, 2, and 3 key columns, with
	// either side smaller.
	for _, w := range []int{1, 2, 3} {
		for _, sizes := range [][2]int{{4, 20}, {20, 4}, {7, 7}, {0, 5}, {5, 0}} {
			ln, rn := sizes[0], sizes[1]
			lkeys := make([][]uint32, w)
			rkeys := make([][]uint32, w)
			for c := 0; c < w; c++ {
				lkeys[c] = make([]uint32, ln)
				rkeys[c] = make([]uint32, rn)
				for i := 0; i < ln; i++ {
					lkeys[c][i] = uint32((i + c) % 3)
				}
				for j := 0; j < rn; j++ {
					rkeys[c][j] = uint32((j + c) % 3)
				}
			}
			lidx, ridx := Join(lkeys, ln, nil, rkeys, rn, nil)
			want := joinRef(lkeys, ln, rkeys, rn)
			if len(lidx) != len(want) {
				t.Fatalf("w=%d %v: %d pairs, want %d", w, sizes, len(lidx), len(want))
			}
			for k := range lidx {
				if !want[[2]int32{lidx[k], ridx[k]}] {
					t.Fatalf("w=%d %v: spurious pair (%d,%d)", w, sizes, lidx[k], ridx[k])
				}
			}
			// Anti-join complements the join on the left side.
			matched := map[int32]bool{}
			for _, l := range lidx {
				matched[l] = true
			}
			anti := AntiJoin(lkeys, ln, nil, rkeys, rn, nil)
			if len(anti)+len(matched) != ln {
				t.Fatalf("w=%d %v: anti %d + matched %d != %d", w, sizes, len(anti), len(matched), ln)
			}
			for _, l := range anti {
				if matched[l] {
					t.Fatalf("w=%d %v: row %d both matched and anti", w, sizes, l)
				}
			}
		}
	}
}

func TestJoinCrossProduct(t *testing.T) {
	lidx, ridx := Join(nil, 3, nil, nil, 4, nil)
	if len(lidx) != 12 || len(ridx) != 12 {
		t.Fatalf("cross product = %d pairs, want 12", len(lidx))
	}
	if anti := AntiJoin(nil, 3, nil, nil, 4, nil); len(anti) != 0 {
		t.Fatalf("0-key anti-join vs non-empty right kept %d rows", len(anti))
	}
	if anti := AntiJoin(nil, 3, nil, nil, 0, nil); len(anti) != 3 {
		t.Fatalf("0-key anti-join vs empty right kept %d rows, want 3", len(anti))
	}
}

func TestJoinRespectsSelections(t *testing.T) {
	lk := [][]uint32{{7, 8, 7, 9}}
	rk := [][]uint32{{7, 7, 8}}
	// Only left rows {0, 3} and right rows {1} are live.
	lidx, ridx := Join(lk, 4, []int32{0, 3}, rk, 3, []int32{1})
	if len(lidx) != 1 || lidx[0] != 0 || ridx[0] != 1 {
		t.Fatalf("selected join = %v/%v", lidx, ridx)
	}
}

func TestDedupRows(t *testing.T) {
	cols := [][]uint32{{1, 2, 1, 3, 2}, {0, 0, 0, 1, 0}}
	if got := DedupRows(cols, 5, nil); fmt.Sprint(got) != "[0 1 3]" {
		t.Fatalf("DedupRows = %v", got)
	}
	if got := DedupRows(nil, 5, nil); fmt.Sprint(got) != "[0]" {
		t.Fatalf("0-col DedupRows = %v", got)
	}
}

func TestCodeSetWidths(t *testing.T) {
	for _, w := range []int{0, 1, 2, 3, 5} {
		s := NewCodeSet(w)
		row := make([]uint32, w)
		if !s.Add(row) {
			t.Fatalf("w=%d: first Add reported duplicate", w)
		}
		if s.Add(row) {
			t.Fatalf("w=%d: duplicate Add reported new", w)
		}
		if w > 0 {
			row[w-1] = 42
			if !s.Add(row) {
				t.Fatalf("w=%d: distinct row reported duplicate", w)
			}
		}
		wantLen := 2
		if w == 0 {
			wantLen = 1
		}
		if s.Len() != wantLen {
			t.Fatalf("w=%d: Len = %d, want %d", w, s.Len(), wantLen)
		}
	}
}

func TestGather(t *testing.T) {
	col := []uint32{10, 11, 12, 13}
	if got := Gather(col, []int32{3, 0, 3}); fmt.Sprint(got) != "[13 10 13]" {
		t.Fatalf("Gather = %v", got)
	}
}
