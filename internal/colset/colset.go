// Package colset implements the columnar snapshot layout and the
// vectorized kernels behind the engine's vectorized evaluation path.
//
// A Batch holds one predicate extension (or one relation) as
// fixed-width columns of uint32 codes — one column per attribute — with
// every value dictionary-encoded through a Dict: two codes are equal
// iff the values they encode are equal (value equality is Key equality,
// so interning by Key is exact, not a hash). Kernels operate on code
// slices and selection vectors; values are decoded back into tuples
// only where a result leaves code space (in the engine, a read that
// fixes an argument decodes only the rows it matches, and only a walk
// of the predicate decodes all of it).
//
// The layout follows the type-structuring idea of deriving flat
// relational shapes from the declared predicate schema: the engine
// already projects every association fact onto its effective tuple, so
// a null-free fixed-width column per effective label is always
// available (absent components encode the null value's code).
//
// Determinism: every kernel is a pure function of its inputs, and
// outputs preserve probe-side row order, so evaluation over batches
// built in canonical (key-sorted) order is deterministic. Joins build
// their hash index on the smaller input and probe the larger one; the
// result pair set is order-insensitive for the set-semantics callers.
package colset

import (
	"encoding/binary"

	"logres/internal/value"
)

// Dict interns values to dense uint32 codes. Interning is by canonical
// Key, so code equality is exactly value equality.
type Dict struct {
	codes map[string]uint32
	vals  []value.Value
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{codes: make(map[string]uint32)}
}

// Code interns v and returns its code. Only a miss allocates (the
// interned key).
func (d *Dict) Code(v value.Value) uint32 {
	var buf [value.KeyBufSize]byte
	k := value.AppendKey(buf[:0], v)
	if c, ok := d.codes[string(k)]; ok {
		return c
	}
	c := uint32(len(d.vals))
	d.codes[string(k)] = c
	d.vals = append(d.vals, v)
	return c
}

// Lookup returns v's code without interning it. ok is false when v has
// never been seen — useful for constant filters, where an unseen
// constant means an empty selection.
func (d *Dict) Lookup(v value.Value) (uint32, bool) {
	var buf [value.KeyBufSize]byte
	c, ok := d.codes[string(value.AppendKey(buf[:0], v))]
	return c, ok
}

// Value decodes a code back to its value.
func (d *Dict) Value(code uint32) value.Value { return d.vals[code] }

// Len reports the number of interned values.
func (d *Dict) Len() int { return len(d.vals) }

// Batch is a columnar batch: len(Cols) attribute columns of equal
// length. The zero-column batch is legal (it still has a row count).
type Batch struct {
	cols [][]uint32
	n    int
}

// NewBatch returns an empty batch with ncols columns.
func NewBatch(ncols int) *Batch {
	return &Batch{cols: make([][]uint32, ncols)}
}

// Len reports the number of rows.
func (b *Batch) Len() int { return b.n }

// Col returns the i-th column (not to be mutated).
func (b *Batch) Col(i int) []uint32 { return b.cols[i] }

// AppendRow appends one row; len(row) must equal the column count.
func (b *Batch) AppendRow(row []uint32) {
	for i, c := range row {
		b.cols[i] = append(b.cols[i], c)
	}
	b.n++
}

// Slice returns a view of rows [i, j): the view shares the column
// backing arrays, so it stays valid across later AppendRow calls on the
// parent (appends never move the [i, j) window) but must not be
// appended to itself.
func (b *Batch) Slice(i, j int) *Batch {
	cols := make([][]uint32, len(b.cols))
	for c := range b.cols {
		cols[c] = b.cols[c][i:j:j]
	}
	return &Batch{cols: cols, n: j - i}
}

// selCount returns the effective row count of a (rows, sel) pair: nil
// sel selects every row.
func selCount(rows int, sel []int32) int {
	if sel == nil {
		return rows
	}
	return len(sel)
}

// selAt returns the i-th selected row index.
func selAt(sel []int32, i int) int32 {
	if sel == nil {
		return int32(i)
	}
	return sel[i]
}

// SelectEq filters (rows, sel) down to rows whose col value equals
// code. The result is a fresh selection vector in input order.
func SelectEq(col []uint32, rows int, sel []int32, code uint32) []int32 {
	n := selCount(rows, sel)
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		r := selAt(sel, i)
		if col[r] == code {
			out = append(out, r)
		}
	}
	return out
}

// SelectColEq filters (rows, sel) down to rows where columns a and b
// hold equal codes (the intra-tuple duplicate-variable filter).
func SelectColEq(a, b []uint32, rows int, sel []int32) []int32 {
	n := selCount(rows, sel)
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		r := selAt(sel, i)
		if a[r] == b[r] {
			out = append(out, r)
		}
	}
	return out
}

// Gather materializes col at the given row indices.
func Gather(col []uint32, idx []int32) []uint32 {
	out := make([]uint32, len(idx))
	for i, r := range idx {
		out[i] = col[r]
	}
	return out
}

// hashIndex maps packed key codes to build-side row indices. Three key
// widths get three map shapes: one column keys by the code itself, two
// columns pack into a uint64, wider keys pack 4-byte little-endian
// codes into a reused byte buffer keyed as a string.
type hashIndex struct {
	w  int
	m1 map[uint32][]int32
	m2 map[uint64][]int32
	mn map[string][]int32

	buf []byte
}

func buildIndex(keys [][]uint32, rows int, sel []int32) *hashIndex {
	ix := &hashIndex{w: len(keys)}
	n := selCount(rows, sel)
	switch ix.w {
	case 1:
		ix.m1 = make(map[uint32][]int32, n)
		col := keys[0]
		for i := 0; i < n; i++ {
			r := selAt(sel, i)
			ix.m1[col[r]] = append(ix.m1[col[r]], r)
		}
	case 2:
		ix.m2 = make(map[uint64][]int32, n)
		a, b := keys[0], keys[1]
		for i := 0; i < n; i++ {
			r := selAt(sel, i)
			k := uint64(a[r])<<32 | uint64(b[r])
			ix.m2[k] = append(ix.m2[k], r)
		}
	default:
		ix.mn = make(map[string][]int32, n)
		ix.buf = make([]byte, 4*ix.w)
		for i := 0; i < n; i++ {
			r := selAt(sel, i)
			ix.pack(keys, r)
			ix.mn[string(ix.buf)] = append(ix.mn[string(ix.buf)], r)
		}
	}
	return ix
}

func (ix *hashIndex) pack(keys [][]uint32, r int32) {
	for c, col := range keys {
		binary.LittleEndian.PutUint32(ix.buf[4*c:], col[r])
	}
}

// probe returns the build rows matching probe row r of keys. The
// map[string] lookup form avoids allocating for the probe key.
func (ix *hashIndex) probe(keys [][]uint32, r int32) []int32 {
	switch ix.w {
	case 1:
		return ix.m1[keys[0][r]]
	case 2:
		return ix.m2[uint64(keys[0][r])<<32|uint64(keys[1][r])]
	default:
		ix.pack(keys, r)
		return ix.mn[string(ix.buf)]
	}
}

// Join hash-joins the selected rows of two key-column sets and returns
// matching row-index pairs. The index is built on the smaller input and
// the larger side is probed in selection order; the pair set is
// identical either way. Zero key columns mean a cross product.
func Join(lkeys [][]uint32, lrows int, lsel []int32,
	rkeys [][]uint32, rrows int, rsel []int32) (lidx, ridx []int32) {

	ln, rn := selCount(lrows, lsel), selCount(rrows, rsel)
	if ln == 0 || rn == 0 {
		return nil, nil
	}
	if len(lkeys) == 0 {
		lidx = make([]int32, 0, ln*rn)
		ridx = make([]int32, 0, ln*rn)
		for i := 0; i < ln; i++ {
			l := selAt(lsel, i)
			for j := 0; j < rn; j++ {
				lidx = append(lidx, l)
				ridx = append(ridx, selAt(rsel, j))
			}
		}
		return lidx, ridx
	}
	if ln <= rn {
		ix := buildIndex(lkeys, lrows, lsel)
		for j := 0; j < rn; j++ {
			r := selAt(rsel, j)
			for _, l := range ix.probe(rkeys, r) {
				lidx = append(lidx, l)
				ridx = append(ridx, r)
			}
		}
		return lidx, ridx
	}
	ix := buildIndex(rkeys, rrows, rsel)
	for i := 0; i < ln; i++ {
		l := selAt(lsel, i)
		for _, r := range ix.probe(lkeys, l) {
			lidx = append(lidx, l)
			ridx = append(ridx, r)
		}
	}
	return lidx, ridx
}

// AntiJoin returns the selected left rows whose key has no match among
// the selected right rows. Zero key columns mean "drop everything when
// the right side is non-empty".
func AntiJoin(lkeys [][]uint32, lrows int, lsel []int32,
	rkeys [][]uint32, rrows int, rsel []int32) []int32 {

	ln := selCount(lrows, lsel)
	rn := selCount(rrows, rsel)
	if len(lkeys) == 0 {
		if rn > 0 {
			return nil
		}
		out := make([]int32, 0, ln)
		for i := 0; i < ln; i++ {
			out = append(out, selAt(lsel, i))
		}
		return out
	}
	ix := buildIndex(rkeys, rrows, rsel)
	out := make([]int32, 0, ln)
	for i := 0; i < ln; i++ {
		l := selAt(lsel, i)
		if len(ix.probe(lkeys, l)) == 0 {
			out = append(out, l)
		}
	}
	return out
}

// DedupRows returns the first occurrence of each distinct packed row
// among the selected rows, in selection order. With zero columns every
// row is the same row, so at most one survives.
func DedupRows(cols [][]uint32, rows int, sel []int32) []int32 {
	n := selCount(rows, sel)
	if len(cols) == 0 {
		if n == 0 {
			return nil
		}
		return []int32{selAt(sel, 0)}
	}
	seen := newCodeSet(len(cols), n)
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		r := selAt(sel, i)
		if seen.addRow(cols, r) {
			out = append(out, r)
		}
	}
	return out
}

// CodeSet is a set of packed code rows, used for membership tests at
// the emit boundary (is this derived row already in the base
// extension?). Key packing mirrors hashIndex: one/two columns pack into
// integers, wider rows into a reused byte buffer.
type CodeSet struct {
	w  int
	m1 map[uint32]struct{}
	m2 map[uint64]struct{}
	mn map[string]struct{}

	buf []byte
}

// NewCodeSet returns an empty set for rows of the given width.
func NewCodeSet(width int) *CodeSet { return newCodeSet(width, 0) }

func newCodeSet(width, hint int) *CodeSet {
	s := &CodeSet{w: width}
	switch {
	case width <= 1:
		s.m1 = make(map[uint32]struct{}, hint)
	case width == 2:
		s.m2 = make(map[uint64]struct{}, hint)
	default:
		s.mn = make(map[string]struct{}, hint)
		s.buf = make([]byte, 4*width)
	}
	return s
}

// Len reports the number of distinct rows added.
func (s *CodeSet) Len() int {
	switch {
	case s.w <= 1:
		return len(s.m1)
	case s.w == 2:
		return len(s.m2)
	}
	return len(s.mn)
}

// Add inserts the packed row and reports whether it was new.
// len(row) must equal the set's width (zero-width rows are all equal).
func (s *CodeSet) Add(row []uint32) bool {
	switch {
	case s.w == 0:
		if _, ok := s.m1[0]; ok {
			return false
		}
		s.m1[0] = struct{}{}
		return true
	case s.w == 1:
		if _, ok := s.m1[row[0]]; ok {
			return false
		}
		s.m1[row[0]] = struct{}{}
		return true
	case s.w == 2:
		k := uint64(row[0])<<32 | uint64(row[1])
		if _, ok := s.m2[k]; ok {
			return false
		}
		s.m2[k] = struct{}{}
		return true
	}
	for c, v := range row {
		binary.LittleEndian.PutUint32(s.buf[4*c:], v)
	}
	if _, ok := s.mn[string(s.buf)]; ok {
		return false
	}
	s.mn[string(s.buf)] = struct{}{}
	return true
}

// addRow is Add over one row of a column set.
func (s *CodeSet) addRow(cols [][]uint32, r int32) bool {
	switch {
	case s.w == 0:
		if _, ok := s.m1[0]; ok {
			return false
		}
		s.m1[0] = struct{}{}
		return true
	case s.w == 1:
		c := cols[0][r]
		if _, ok := s.m1[c]; ok {
			return false
		}
		s.m1[c] = struct{}{}
		return true
	case s.w == 2:
		k := uint64(cols[0][r])<<32 | uint64(cols[1][r])
		if _, ok := s.m2[k]; ok {
			return false
		}
		s.m2[k] = struct{}{}
		return true
	}
	for c, col := range cols {
		binary.LittleEndian.PutUint32(s.buf[4*c:], col[r])
	}
	if _, ok := s.mn[string(s.buf)]; ok {
		return false
	}
	s.mn[string(s.buf)] = struct{}{}
	return true
}
