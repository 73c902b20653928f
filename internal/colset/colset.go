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
// built in canonical (key-sorted) order is deterministic. A join probes
// a hash index (Index) with one input: Join indexes the smaller of its
// two inputs for the one call, while the engine keeps an index over a
// batch that only grows for a whole evaluation and extends it by the
// rows appended since (Extend). The result pair set is the same either
// way, and order-insensitive for the set-semantics callers.
//
// The engine's duplicate filter at the emit boundary is a CodeSet. Where
// the evaluation's code domain is small enough (NewCodeSet) it is a
// bitmap indexed by the packed row of codes, so a test is one bit and
// the set never rehashes; otherwise it is a map of packed rows.
package colset

import (
	"encoding/binary"
	"slices"

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

// Index is a hash index over rows of a key-column set, in a flat
// layout: a map from each packed key to its slot, per slot the first and
// last position indexed under it, and per position its row and the next
// position under the same key. So no key has a slice of its own, and a
// probe yields a key's rows in the order they were indexed. Keys pack as
// in CodeSet: one column by the code itself, two into a uint64, wider
// keys into 4-byte little-endian codes in a reused buffer; with zero
// columns every row has the one empty key. Extend only appends, so an
// index over a batch that only grows is built once and extended by the
// rows added since.
type Index struct {
	w   int
	m1  map[uint32]int32
	m2  map[uint64]int32
	mn  map[string]int32
	buf []byte

	first, last []int32 // per slot: its first and last position
	rows, next  []int32 // per position: its row, and the next position under its key (-1: none)
}

// NewIndex returns an empty index over keys of the given width.
func NewIndex(width int) *Index {
	return &Index{w: width, buf: make([]byte, 4*width)}
}

// Extend indexes the selected rows of keys after those already indexed:
// sel's rows in selection order, or, with a nil sel, every row in
// [lo, hi).
func (ix *Index) Extend(keys [][]uint32, lo, hi int, sel []int32) {
	n := hi - lo
	if sel != nil {
		n = len(sel)
	}
	if ix.m1 == nil && ix.m2 == nil && ix.mn == nil {
		switch {
		case ix.w <= 1:
			ix.m1 = make(map[uint32]int32, n)
		case ix.w == 2:
			ix.m2 = make(map[uint64]int32, n)
		default:
			ix.mn = make(map[string]int32, n)
		}
	}
	ix.rows = slices.Grow(ix.rows, n)
	ix.next = slices.Grow(ix.next, n)
	ix.first = slices.Grow(ix.first, n)
	ix.last = slices.Grow(ix.last, n)
	for i := 0; i < n; i++ {
		r := int32(lo + i)
		if sel != nil {
			r = sel[i]
		}
		p := int32(len(ix.rows))
		ix.rows = append(ix.rows, r)
		ix.next = append(ix.next, -1)
		s := ix.slot(keys, r, true)
		if ix.first[s] < 0 {
			ix.first[s] = p
		} else {
			ix.next[ix.last[s]] = p
		}
		ix.last[s] = p
	}
}

// slot returns the slot of row r's key, adding an empty slot for an
// unseen key when add is set (and returning -1 for it otherwise). The
// map[string] lookup form avoids allocating for the probe key.
func (ix *Index) slot(keys [][]uint32, r int32, add bool) int32 {
	s := int32(len(ix.first))
	switch ix.w {
	case 0, 1:
		var k uint32
		if ix.w == 1 {
			k = keys[0][r]
		}
		if got, ok := ix.m1[k]; ok {
			return got
		}
		if !add {
			return -1
		}
		ix.m1[k] = s
	case 2:
		k := uint64(keys[0][r])<<32 | uint64(keys[1][r])
		if got, ok := ix.m2[k]; ok {
			return got
		}
		if !add {
			return -1
		}
		ix.m2[k] = s
	default:
		for c, col := range keys {
			binary.LittleEndian.PutUint32(ix.buf[4*c:], col[r])
		}
		if got, ok := ix.mn[string(ix.buf)]; ok {
			return got
		}
		if !add {
			return -1
		}
		ix.mn[string(ix.buf)] = s
	}
	ix.first = append(ix.first, -1)
	ix.last = append(ix.last, -1)
	return s
}

// Probe joins the selected rows of lkeys against the index and returns
// the matching (probe row, indexed row) pairs: probe rows in selection
// order, each one's matches in the order they were indexed. It looks
// every probe key up once and counts the matches before it fills the
// pairs, so each pair slice is allocated once, at its size.
func (ix *Index) Probe(lkeys [][]uint32, lrows int, lsel []int32) (lidx, ridx []int32) {
	n := selCount(lrows, lsel)
	slots := make([]int32, n)
	m := 0
	for i := range slots {
		s := ix.slot(lkeys, selAt(lsel, i), false)
		slots[i] = s
		if s >= 0 {
			for p := ix.first[s]; p >= 0; p = ix.next[p] {
				m++
			}
		}
	}
	if m == 0 {
		return nil, nil
	}
	lidx, ridx = make([]int32, 0, m), make([]int32, 0, m)
	for i, s := range slots {
		if s < 0 {
			continue
		}
		l := selAt(lsel, i)
		for p := ix.first[s]; p >= 0; p = ix.next[p] {
			lidx = append(lidx, l)
			ridx = append(ridx, ix.rows[p])
		}
	}
	return lidx, ridx
}

// Missing returns the selected rows of lkeys whose key has no match in
// the index, in selection order.
func (ix *Index) Missing(lkeys [][]uint32, lrows int, lsel []int32) []int32 {
	n := selCount(lrows, lsel)
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		l := selAt(lsel, i)
		if ix.slot(lkeys, l, false) < 0 {
			out = append(out, l)
		}
	}
	return out
}

// Join hash-joins the selected rows of two key-column sets and returns
// matching row-index pairs. It indexes the smaller input (Index) and
// probes it with the larger one in selection order; the pair set is
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
	ix := NewIndex(len(lkeys))
	if ln <= rn {
		ix.Extend(lkeys, 0, lrows, lsel)
		ridx, lidx = ix.Probe(rkeys, rrows, rsel)
		return lidx, ridx
	}
	ix.Extend(rkeys, 0, rrows, rsel)
	return ix.Probe(lkeys, lrows, lsel)
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
		if seen.AddRow(cols, r) {
			out = append(out, r)
		}
	}
	return out
}

// CodeSet is a set of packed code rows, used for membership tests at
// the emit boundary (is this derived row already in the base extension,
// or derived already?). It has two forms. The dense form is a bitmap
// over a domain of d codes: the width-0 row is bit 0, a width-1 row bit
// c, a width-2 row bit c0·d+c1. The map form packs rows as Index packs
// keys: one or two codes into an integer, wider rows into a reused byte
// buffer. A dense set keeps a row holding a code ≥ d in the map form,
// so every row is answered exactly.
type CodeSet struct {
	w    int
	n    int
	d    uint64   // the dense form's domain; 0 in the map form
	bits []uint64 // the dense form: bit i is packed row i

	m1  map[uint32]struct{}
	m2  map[uint64]struct{}
	mn  map[string]struct{}
	buf []byte
}

// maxDenseBits caps a dense set at 128 KiB.
const maxDenseBits = 1 << 20

// NewCodeSet returns an empty set for rows of the given width whose
// codes lie below domain, in an evaluation that bound rows rows. The
// set is dense when the row is at most two codes wide and domain^width
// bits are at most max(512, 256·rows) and at most 2^20; otherwise it is
// the map form. The reason: a map holds a row in about 32 bytes over
// its life (slots at most 7/8 full, plus the tables it outgrew), so a
// bitmap of 256 bits per bound row costs no more than the map would
// once the set holds as many rows as the evaluation bound, and 512
// bits cost less than an empty map. The cap keeps a set whose rows stay
// few from costing more than 128 KiB.
func NewCodeSet(width, domain, rows int) *CodeSet {
	if width == 0 {
		domain = 1
	}
	bits := 1
	for i := 0; i < width && bits <= maxDenseBits; i++ {
		bits *= domain
	}
	if width > 2 || bits > maxDenseBits || bits > max(512, 256*rows) {
		return newCodeSet(width, 0)
	}
	return &CodeSet{w: width, d: uint64(domain), bits: make([]uint64, (bits+63)/64)}
}

// newCodeSet returns an empty map-form set with room for hint rows.
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
func (s *CodeSet) Len() int { return s.n }

// Add inserts the packed row and reports whether it was new.
// len(row) must equal the set's width (zero-width rows are all equal).
func (s *CodeSet) Add(row []uint32) bool {
	switch s.w {
	case 0:
		return s.add(0, 0)
	case 1:
		return s.add(row[0], 0)
	case 2:
		return s.add(row[0], row[1])
	}
	for c, v := range row {
		binary.LittleEndian.PutUint32(s.buf[4*c:], v)
	}
	return s.addBuf()
}

// AddRow is Add over row r of a column set.
func (s *CodeSet) AddRow(cols [][]uint32, r int32) bool {
	switch s.w {
	case 0:
		return s.add(0, 0)
	case 1:
		return s.add(cols[0][r], 0)
	case 2:
		return s.add(cols[0][r], cols[1][r])
	}
	for c, col := range cols {
		binary.LittleEndian.PutUint32(s.buf[4*c:], col[r])
	}
	return s.addBuf()
}

// add inserts a row at most two codes wide, a and b (zero where the row
// has none): as a bit when its codes lie in the dense domain, else into
// the map.
func (s *CodeSet) add(a, b uint32) bool {
	if i := uint64(a); i < s.d && (s.w < 2 || uint64(b) < s.d) {
		if s.w == 2 {
			i = i*s.d + uint64(b)
		}
		word, bit := &s.bits[i/64], uint64(1)<<(i%64)
		if *word&bit != 0 {
			return false
		}
		*word |= bit
		s.n++
		return true
	}
	if s.w == 2 {
		k := uint64(a)<<32 | uint64(b)
		if _, ok := s.m2[k]; ok {
			return false
		}
		if s.m2 == nil {
			s.m2 = make(map[uint64]struct{})
		}
		s.m2[k] = struct{}{}
	} else {
		if _, ok := s.m1[a]; ok {
			return false
		}
		if s.m1 == nil {
			s.m1 = make(map[uint32]struct{})
		}
		s.m1[a] = struct{}{}
	}
	s.n++
	return true
}

// addBuf inserts the wide row packed in buf.
func (s *CodeSet) addBuf() bool {
	if _, ok := s.mn[string(s.buf)]; ok {
		return false
	}
	s.mn[string(s.buf)] = struct{}{}
	s.n++
	return true
}
