package colset

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzJoinIndex holds the kernels' hash joins to nested loops: random
// key columns of width 0–3 over a few codes, random selections on both
// sides, and a kept index built over the right side in random append
// chunks. Join's pairs must be the reference's as a multiset; the kept
// index's probe must give exactly the nested loop's pairs in its order —
// probe rows in selection order, each one's matches in build order — and
// its Missing the rows the reference leaves unmatched.
func FuzzJoinIndex(f *testing.F) {
	f.Add([]byte{1, 6, 9, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{0, 3, 5, 1, 1, 0, 1, 0, 1, 1, 2})
	f.Add([]byte{2, 12, 12, 3, 3, 3, 1, 0, 2, 2, 1, 0, 3, 1, 1, 0, 0, 2, 1, 3, 0, 2, 1})
	f.Add([]byte{3, 15, 4, 0, 0, 0, 1, 1, 1, 0, 0, 0, 2, 2, 2, 1, 1, 1, 3})
	f.Add([]byte{2, 0, 7, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		w, ln, rn := next()%4, next()%16, next()%16
		cols := func(n int) [][]uint32 {
			keys := make([][]uint32, w)
			for c := range keys {
				keys[c] = make([]uint32, n)
				for r := range keys[c] {
					keys[c][r] = uint32(next() % 3)
				}
			}
			return keys
		}
		lkeys, rkeys := cols(ln), cols(rn)
		selection := func(n int) []int32 {
			if next()%2 == 0 {
				return nil
			}
			sel := []int32{}
			for r := 0; r < n; r++ {
				if next()%3 != 0 {
					sel = append(sel, int32(r))
				}
			}
			return sel
		}
		lsel, rsel := selection(ln), selection(rn)
		ix := NewIndex(w)
		for lo := 0; lo < rn; {
			hi := min(rn, lo+1+next()%5)
			var chunk []int32
			if rsel != nil {
				chunk = []int32{}
				for _, r := range rsel {
					if int(r) >= lo && int(r) < hi {
						chunk = append(chunk, r)
					}
				}
			}
			ix.Extend(rkeys, lo, hi, chunk)
			lo = hi
		}

		var wantL, wantR, wantAnti []int32
		for i := 0; i < selCount(ln, lsel); i++ {
			l := selAt(lsel, i)
			matched := false
			for j := 0; j < selCount(rn, rsel); j++ {
				r := selAt(rsel, j)
				eq := true
				for c := 0; c < w; c++ {
					eq = eq && lkeys[c][l] == rkeys[c][r]
				}
				if eq {
					wantL, wantR = append(wantL, l), append(wantR, r)
					matched = true
				}
			}
			if !matched {
				wantAnti = append(wantAnti, l)
			}
		}
		pairs := func(lidx, ridx []int32) []string {
			out := make([]string, len(lidx))
			for k := range lidx {
				out[k] = fmt.Sprint(lidx[k], ridx[k])
			}
			return out
		}
		want := pairs(wantL, wantR)

		if got := pairs(ix.Probe(lkeys, ln, lsel)); !slices.Equal(got, want) {
			t.Fatalf("kept index probe = %v, want %v", got, want)
		}
		got := pairs(Join(lkeys, ln, lsel, rkeys, rn, rsel))
		slices.Sort(got)
		sorted := slices.Clone(want)
		slices.Sort(sorted)
		if !slices.Equal(got, sorted) {
			t.Fatalf("Join pairs = %v, want %v", got, sorted)
		}
		if got := ix.Missing(lkeys, ln, lsel); !slices.Equal(got, wantAnti) {
			t.Fatalf("kept index Missing = %v, want %v", got, wantAnti)
		}
	})
}
