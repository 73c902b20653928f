package colset

import (
	"fmt"
	"testing"
)

// FuzzCodeSet holds a membership set made by NewCodeSet, dense or
// map as its sizes choose, to a map of rows: rows of width 0–3 whose
// codes straddle the set's domain D, added one at a time through Add or
// AddRow. Every answer and the final Len must be the reference's.
func FuzzCodeSet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3})
	f.Add([]byte{1, 3, 1, 0, 1, 2, 3, 4, 5, 2, 3, 1, 0})
	f.Add([]byte{2, 4, 2, 1, 0, 2, 3, 3, 2, 2, 5, 3, 3, 4, 0, 1, 2})
	f.Add([]byte{2, 30, 0, 4, 5, 1, 3, 4, 5, 0, 0, 1, 5})
	f.Add([]byte{3, 2, 3, 0, 1, 2, 0, 1, 2, 1, 1, 2, 5})
	// D=3, dense: (0,2) and (1,0) are bits 2 and 3, not one bit; (0,4)
	// holds a code past D and must not alias bit 0·3+4, which is (1,1).
	f.Add([]byte{2, 3, 7, 0, 2, 0, 1, 0, 1, 0, 4, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		w, d, bound := next()%4, next()%40, next()%8
		base := max(d-3, 0)
		s := NewCodeSet(w, d, bound)
		seen := map[string]bool{}
		cols := make([][]uint32, w)
		for r := int32(0); len(data) > 0; r++ {
			row := make([]uint32, w)
			for c := range row {
				row[c] = uint32(base + next()%6)
				cols[c] = append(cols[c], row[c])
			}
			var added bool
			if next()%2 == 0 {
				added = s.Add(row)
			} else {
				added = s.AddRow(cols, r)
			}
			k := fmt.Sprint(row)
			if added == seen[k] {
				t.Fatalf("w=%d D=%d: Add(%v) = %v, reference holds it: %v", w, d, row, added, seen[k])
			}
			seen[k] = true
		}
		if s.Len() != len(seen) {
			t.Fatalf("w=%d D=%d: Len = %d, want %d", w, d, s.Len(), len(seen))
		}
	})
}
