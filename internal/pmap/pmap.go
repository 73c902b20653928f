// Package pmap is a persistent ordered map: a copy-on-write B-tree whose
// nodes carry an owner tag.
//
// A Map is a value (a root and a length); copying it is O(1) and shares
// every node. A write names the Owner it writes with: a node tagged with
// that owner is changed in place, any other node on the path is copied
// and the copy tagged. Sharing is therefore safe without reference
// counts, provided one rule is kept: once a Map value is copied, neither
// copy writes again with the owner that wrote it (Clone is "copy the
// value and retire the owner"; each side then writes with a fresh one).
// A map no one writes may be read from any number of goroutines.
//
// Two maps that share structure are compared by a merge walk (Diff) that
// skips every subtree they share by pointer, so diffing a version against
// the one it was cloned from costs O(|Δ| log n), not O(n).
package pmap

import "cmp"

// maxItems is the most items a node holds. An insert into a full node
// splits its maxItems+1 items around their median, and every node but the
// root holds at least minItems, so a map of n entries is O(log n) nodes
// deep and a write copies O(log n) nodes of at most maxItems entries each.
const (
	maxItems = 15
	minItems = maxItems / 2
)

// Owner tags the nodes one writer may change in place. Its only property
// is its identity; the field keeps two owners from sharing an address.
type Owner struct{ _ byte }

// NewOwner returns a fresh owner: no node carries it yet.
func NewOwner() *Owner { return new(Owner) }

// Map is an ordered map from K to V. The zero Map is empty and ready to
// use. A Map value is a version: writing through a copy never changes
// another copy (see the package comment for the owner rule).
type Map[K cmp.Ordered, V any] struct {
	root *node[K, V]
	len  int
}

type node[K cmp.Ordered, V any] struct {
	owner *Owner
	n     int // items in use: keys[:n], vals[:n], and kids[:n+1] when internal
	keys  [maxItems]K
	vals  [maxItems]V
	kids  [maxItems + 1]*node[K, V] // all nil in a leaf
}

// Len reports the number of entries.
func (m Map[K, V]) Len() int { return m.len }

// Same reports whether m and o are one version (one root), so that they
// hold the same entries without a look. Two empty maps are the same.
func (m Map[K, V]) Same(o Map[K, V]) bool { return m.root == o.root }

// Get returns the value stored under k.
func (m Map[K, V]) Get(k K) (v V, ok bool) {
	for nd := m.root; nd != nil; {
		i, found := nd.search(k)
		if found {
			return nd.vals[i], true
		}
		nd = nd.kids[i]
	}
	return v, false
}

// Max returns the largest key and its value.
func (m Map[K, V]) Max() (k K, v V, ok bool) {
	nd := m.root
	if nd == nil {
		return k, v, false
	}
	for nd.kids[nd.n] != nil {
		nd = nd.kids[nd.n]
	}
	return nd.keys[nd.n-1], nd.vals[nd.n-1], true
}

// Ascend calls fn on every entry in ascending key order until fn returns
// false; it reports whether it saw every entry.
func (m Map[K, V]) Ascend(fn func(K, V) bool) bool {
	return m.root == nil || m.root.ascend(fn)
}

func (nd *node[K, V]) ascend(fn func(K, V) bool) bool {
	for i := 0; i < nd.n; i++ {
		if c := nd.kids[i]; c != nil && !c.ascend(fn) {
			return false
		}
		if !fn(nd.keys[i], nd.vals[i]) {
			return false
		}
	}
	if c := nd.kids[nd.n]; c != nil {
		return c.ascend(fn)
	}
	return true
}

// Set stores v under k, writing with owner o, and returns the value it
// replaced.
func (m *Map[K, V]) Set(o *Owner, k K, v V) (prev V, replaced bool) {
	return m.put(o, k, v, true)
}

// Insert stores v under k unless k is present, writing with owner o, and
// reports whether it stored v. A present key copies nothing.
func (m *Map[K, V]) Insert(o *Owner, k K, v V) bool {
	_, had := m.put(o, k, v, false)
	return !had
}

// put finds k in one read-only descent, then copies the path it found
// (when it writes) and stores v at its end, splitting full nodes on the
// way back up.
func (m *Map[K, V]) put(o *Owner, k K, v V, replace bool) (prev V, had bool) {
	var buf [maxDepth]step[K, V]
	path := buf[:0]
	for nd := m.root; nd != nil; {
		i, found := nd.search(k)
		path = append(path, step[K, V]{nd: nd, i: i})
		if found {
			prev = nd.vals[i]
			if replace {
				m.own(o, path)
				path[len(path)-1].nd.vals[i] = v
			}
			return prev, true
		}
		nd = nd.kids[i]
	}
	m.len++
	if len(path) == 0 {
		r := &node[K, V]{owner: o, n: 1}
		r.keys[0], r.vals[0] = k, v
		m.root = r
		return prev, false
	}
	m.own(o, path)
	var kid *node[K, V] // the new right neighbour of the subtree below
	for j := len(path) - 1; j >= 0; j-- {
		nd, i := path[j].nd, path[j].i
		if nd.n < maxItems {
			nd.insertAt(i, k, v, kid)
			return prev, false
		}
		k, v, kid = nd.splitInsert(o, i, k, v, kid)
	}
	r := &node[K, V]{owner: o, n: 1}
	r.keys[0], r.vals[0] = k, v
	r.kids[0], r.kids[1] = m.root, kid
	m.root = r
	return prev, false
}

// maxDepth bounds a map's height: every node below the root has at least
// minItems+1 children, so 32 levels hold more entries than memory can.
const maxDepth = 32

// own makes every node on path, from the root down, one o may write:
// each is copied unless o owns it, and its parent is pointed at the copy.
func (m *Map[K, V]) own(o *Owner, path []step[K, V]) {
	for j := range path {
		c := path[j].nd.mut(o)
		if j == 0 {
			m.root = c
		} else {
			path[j-1].nd.kids[path[j-1].i] = c
		}
		path[j].nd = c
	}
}

// Delete removes k, writing with owner o, and returns the value it held.
// Deleting an absent key copies nothing.
func (m *Map[K, V]) Delete(o *Owner, k K) (prev V, ok bool) {
	if _, ok = m.Get(k); !ok {
		return prev, false
	}
	r := m.root.mut(o)
	prev = r.remove(o, k)
	m.len--
	if r.n == 0 {
		r = r.kids[0] // the one child left, or nil when the map is empty
	}
	m.root = r
	return prev, true
}

// Build returns the map of the n entries at(0), …, at(n-1), which must
// come in strictly ascending key order, written with owner o. It calls at
// once per entry, in order, and packs the nodes full, so it costs O(n)
// and allocates about n/maxItems nodes.
func Build[K cmp.Ordered, V any](o *Owner, n int, at func(i int) (K, V)) Map[K, V] {
	if n == 0 {
		return Map[K, V]{}
	}
	next := 0
	take := func() (K, V) {
		k, v := at(next)
		next++
		return k, v
	}
	// c leaves hold n-(c-1) entries; the c-1 between them go up a level.
	c := (n + maxItems + 1) / (maxItems + 1)
	level := make([]*node[K, V], c)
	sepK, sepV := make([]K, 0, c-1), make([]V, 0, c-1)
	per, extra := (n-c+1)/c, (n-c+1)%c
	for j := range level {
		nd := &node[K, V]{owner: o, n: per}
		if j < extra {
			nd.n++
		}
		for i := 0; i < nd.n; i++ {
			nd.keys[i], nd.vals[i] = take()
		}
		level[j] = nd
		if j < c-1 {
			k, v := take()
			sepK, sepV = append(sepK, k), append(sepV, v)
		}
	}
	// Each further level groups the nodes below, up to maxItems+1 to a
	// parent, with the separators between them as the parent's items.
	for len(level) > 1 {
		p := (len(level) + maxItems) / (maxItems + 1)
		up := make([]*node[K, V], p)
		upK, upV := make([]K, 0, p-1), make([]V, 0, p-1)
		per, extra := len(level)/p, len(level)%p
		kid, sep := 0, 0
		for j := range up {
			kids := per
			if j < extra {
				kids++
			}
			nd := &node[K, V]{owner: o, n: kids - 1}
			for i := 0; i < kids; i++ {
				nd.kids[i] = level[kid]
				kid++
				if i < kids-1 {
					nd.keys[i], nd.vals[i] = sepK[sep], sepV[sep]
					sep++
				}
			}
			up[j] = nd
			if j < p-1 {
				upK, upV = append(upK, sepK[sep]), append(upV, sepV[sep])
				sep++
			}
		}
		level, sepK, sepV = up, upK, upV
	}
	return Map[K, V]{root: level[0], len: n}
}

// --- nodes ----------------------------------------------------------------

func (nd *node[K, V]) leaf() bool { return nd.kids[0] == nil }

// search returns the index of the first key ≥ k and whether it is k.
func (nd *node[K, V]) search(k K) (int, bool) {
	lo, hi := 0, nd.n
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if nd.keys[h] < k {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < nd.n && nd.keys[lo] == k
}

// mut returns nd ready for o to write: nd itself when o owns it, else a
// copy tagged with o.
func (nd *node[K, V]) mut(o *Owner) *node[K, V] {
	if nd.owner == o && o != nil {
		return nd
	}
	c := *nd
	c.owner = o
	return &c
}

// insertAt inserts k and v at item i of nd, which the writer owns and
// which is not full, with kid as the child right of them (nil in a leaf).
func (nd *node[K, V]) insertAt(i int, k K, v V, kid *node[K, V]) {
	copy(nd.keys[i+1:nd.n+1], nd.keys[i:nd.n])
	copy(nd.vals[i+1:nd.n+1], nd.vals[i:nd.n])
	copy(nd.kids[i+2:nd.n+2], nd.kids[i+1:nd.n+1])
	nd.keys[i], nd.vals[i], nd.kids[i+1] = k, v, kid
	nd.n++
}

// splitInsert inserts k and v (and kid, right of them) at item i of nd,
// which o owns and which is full, by splitting the maxItems+1 items
// around their median: nd keeps the lower half, a new node takes the
// upper one, and the median and the new node are returned for the parent
// to insert.
func (nd *node[K, V]) splitInsert(o *Owner, i int, k K, v V, kid *node[K, V]) (K, V, *node[K, V]) {
	const mid = (maxItems + 1) / 2 // the lower half's size
	r := &node[K, V]{owner: o}
	var mk K
	var mv V
	switch {
	case i < mid: // the median is the item before mid, and k goes left
		mk, mv = nd.keys[mid-1], nd.vals[mid-1]
		r.n = copy(r.keys[:], nd.keys[mid:])
		copy(r.vals[:], nd.vals[mid:])
		copy(r.kids[:], nd.kids[mid:])
		nd.truncate(mid - 1)
		nd.insertAt(i, k, v, kid)
	case i == mid: // k is the median
		mk, mv = k, v
		r.n = copy(r.keys[:], nd.keys[mid:])
		copy(r.vals[:], nd.vals[mid:])
		r.kids[0] = kid
		copy(r.kids[1:], nd.kids[mid+1:])
		nd.truncate(mid)
	default: // the median is the item at mid, and k goes right
		mk, mv = nd.keys[mid], nd.vals[mid]
		r.n = copy(r.keys[:], nd.keys[mid+1:])
		copy(r.vals[:], nd.vals[mid+1:])
		copy(r.kids[:], nd.kids[mid+1:])
		nd.truncate(mid)
		r.insertAt(i-mid-1, k, v, kid)
	}
	return mk, mv, r
}

// truncate keeps the first n items of nd (and their n+1 children) and
// clears the rest, so a copy of nd retains nothing it dropped.
func (nd *node[K, V]) truncate(n int) {
	clear(nd.keys[n:])
	clear(nd.vals[n:])
	clear(nd.kids[n+1:])
	nd.n = n
}

// remove deletes k, which is present, from the subtree of nd, which o
// owns. Every node it descends into first holds more than minItems, so a
// removal from it never leaves it short.
func (nd *node[K, V]) remove(o *Owner, k K) V {
	for {
		i, found := nd.search(k)
		if nd.leaf() {
			v := nd.vals[i]
			nd.removeAt(i)
			return v
		}
		if nd.kids[i].n <= minItems {
			nd.grow(o, i)
			continue
		}
		c := nd.kids[i].mut(o)
		nd.kids[i] = c
		if found {
			v := nd.vals[i]
			nd.keys[i], nd.vals[i] = c.removeMax(o)
			return v
		}
		nd = c
	}
}

// removeMax deletes and returns the largest entry of the subtree of nd,
// which o owns.
func (nd *node[K, V]) removeMax(o *Owner) (K, V) {
	for {
		if nd.leaf() {
			i := nd.n - 1
			k, v := nd.keys[i], nd.vals[i]
			nd.removeAt(i)
			return k, v
		}
		if nd.kids[nd.n].n <= minItems {
			nd.grow(o, nd.n)
			continue
		}
		c := nd.kids[nd.n].mut(o)
		nd.kids[nd.n] = c
		nd = c
	}
}

// removeAt removes item i of nd and the child right of it (none in a
// leaf), clearing the freed slots.
func (nd *node[K, V]) removeAt(i int) {
	copy(nd.keys[i:], nd.keys[i+1:nd.n])
	copy(nd.vals[i:], nd.vals[i+1:nd.n])
	copy(nd.kids[i+1:], nd.kids[i+2:nd.n+1])
	nd.truncate(nd.n - 1)
}

// grow gives nd's child i, which holds minItems, one more item: it takes
// one through nd from a sibling that can spare it, or else merges with a
// sibling around their separator. nd is owned by o and is the root or
// holds more than minItems.
func (nd *node[K, V]) grow(o *Owner, i int) {
	switch {
	case i > 0 && nd.kids[i-1].n > minItems:
		l, c := nd.kids[i-1].mut(o), nd.kids[i].mut(o)
		nd.kids[i-1], nd.kids[i] = l, c
		copy(c.keys[1:c.n+1], c.keys[:c.n])
		copy(c.vals[1:c.n+1], c.vals[:c.n])
		copy(c.kids[1:c.n+2], c.kids[:c.n+1])
		c.keys[0], c.vals[0], c.kids[0] = nd.keys[i-1], nd.vals[i-1], l.kids[l.n]
		c.n++
		nd.keys[i-1], nd.vals[i-1] = l.keys[l.n-1], l.vals[l.n-1]
		l.truncate(l.n - 1)
	case i < nd.n && nd.kids[i+1].n > minItems:
		c, r := nd.kids[i].mut(o), nd.kids[i+1].mut(o)
		nd.kids[i], nd.kids[i+1] = c, r
		c.keys[c.n], c.vals[c.n], c.kids[c.n+1] = nd.keys[i], nd.vals[i], r.kids[0]
		c.n++
		nd.keys[i], nd.vals[i] = r.keys[0], r.vals[0]
		copy(r.keys[:], r.keys[1:r.n])
		copy(r.vals[:], r.vals[1:r.n])
		copy(r.kids[:], r.kids[1:r.n+1])
		r.truncate(r.n - 1)
	default:
		if i == nd.n {
			i--
		}
		c, r := nd.kids[i].mut(o), nd.kids[i+1] // r is only read
		nd.kids[i] = c
		c.keys[c.n], c.vals[c.n] = nd.keys[i], nd.vals[i]
		copy(c.keys[c.n+1:], r.keys[:r.n])
		copy(c.vals[c.n+1:], r.vals[:r.n])
		copy(c.kids[c.n+1:], r.kids[:r.n+1])
		c.n += 1 + r.n
		nd.removeAt(i)
	}
}

// --- diff -----------------------------------------------------------------

// Diff calls yield, in ascending key order, on every key held by exactly
// one of a and b, with its value and whether a holds it, until yield
// returns false; it reports whether it saw every such key. Values under a
// key both hold are not compared. A subtree a and b share by pointer is
// skipped without a look, so two versions of one map are diffed in time
// proportional to the nodes the writes between them copied.
func Diff[K cmp.Ordered, V any](a, b Map[K, V], yield func(k K, v V, inA bool) bool) bool {
	if a.root == b.root {
		return true
	}
	var abuf, bbuf [16]run[K, V]
	ca, cb := a.cursor(abuf[:0]), b.cursor(bbuf[:0])
	for len(ca) > 0 && len(cb) > 0 {
		ta, tb := ca.head(), cb.head()
		switch {
		case ta.i < 0 && tb.i < 0:
			if ta.nd == tb.nd {
				ca, cb = ca.next(), cb.next()
				continue
			}
			// A subtree shared by both is as tall in each: open the
			// taller side until the heights meet.
			if ta.h >= tb.h {
				ca = ca.open()
			}
			if tb.h >= ta.h {
				cb = cb.open()
			}
		case ta.i < 0:
			// b's next key lies before all of a's subtree, or else the
			// subtree cannot be one b shares further on.
			if kb := tb.key(); kb < ta.nd.min() {
				if !yield(kb, tb.val(), false) {
					return false
				}
				cb = cb.next()
			} else {
				ca = ca.open()
			}
		case tb.i < 0:
			if ka := ta.key(); ka < tb.nd.min() {
				if !yield(ka, ta.val(), true) {
					return false
				}
				ca = ca.next()
			} else {
				cb = cb.open()
			}
		default:
			switch ka, kb := ta.key(), tb.key(); {
			case ka < kb:
				if !yield(ka, ta.val(), true) {
					return false
				}
				ca = ca.next()
			case kb < ka:
				if !yield(kb, tb.val(), false) {
					return false
				}
				cb = cb.next()
			default:
				ca, cb = ca.next(), cb.next()
			}
		}
	}
	return ca.drain(true, yield) && cb.drain(false, yield)
}

// cursor is a Diff position: a stack of runs, one per open node on the
// path from the root, the innermost on top.
type cursor[K cmp.Ordered, V any] []run[K, V]

// run is what is left of node nd, of height h: the whole subtree when
// whole is set, else its items and child subtrees from position pos on
// (in a leaf, item pos; in an internal node, child pos/2 at an even pos
// and item pos/2 at an odd one).
type run[K cmp.Ordered, V any] struct {
	nd    *node[K, V]
	h     int
	pos   int
	whole bool
}

// step is item i of nd, or, when i < 0, the whole subtree under nd, of
// height h: the next thing a cursor yields. A put's path is made of the
// same steps, i being the child it descended into.
type step[K cmp.Ordered, V any] struct {
	nd *node[K, V]
	i  int
	h  int
}

func (e step[K, V]) key() K { return e.nd.keys[e.i] }
func (e step[K, V]) val() V { return e.nd.vals[e.i] }

// cursor returns a cursor whose next step is m's whole tree.
func (m Map[K, V]) cursor(buf []run[K, V]) cursor[K, V] {
	if m.root == nil {
		return buf
	}
	h := 0
	for nd := m.root; !nd.leaf(); nd = nd.kids[0] {
		h++
	}
	return append(buf, run[K, V]{nd: m.root, h: h, whole: true})
}

// head returns the cursor's next step; the cursor must not be empty.
func (c cursor[K, V]) head() step[K, V] {
	r := c[len(c)-1]
	switch {
	case r.whole:
		return step[K, V]{nd: r.nd, i: -1, h: r.h}
	case r.h == 0:
		return step[K, V]{nd: r.nd, i: r.pos}
	case r.pos%2 == 0:
		return step[K, V]{nd: r.nd.kids[r.pos/2], i: -1, h: r.h - 1}
	default:
		return step[K, V]{nd: r.nd, i: r.pos / 2}
	}
}

// next moves past the head step. A run it exhausts is closed, and the
// run below, whose child it was, moves past that child in turn.
func (c cursor[K, V]) next() cursor[K, V] {
	for len(c) > 0 {
		r := &c[len(c)-1]
		end := r.nd.n
		if r.h > 0 {
			end = 2*r.nd.n + 1
		}
		if !r.whole {
			if r.pos++; r.pos < end {
				return c
			}
		}
		c = c[:len(c)-1]
	}
	return c
}

// open replaces the head step, a subtree, by its items and child
// subtrees.
func (c cursor[K, V]) open() cursor[K, V] {
	r := &c[len(c)-1]
	if r.whole {
		r.whole = false
		return c
	}
	kid := r.nd.kids[r.pos/2]
	return append(c, run[K, V]{nd: kid, h: r.h - 1})
}

// drain yields every item left on the cursor, in order.
func (c cursor[K, V]) drain(inA bool, yield func(K, V, bool) bool) bool {
	for len(c) > 0 {
		e := c.head()
		if e.i < 0 {
			c = c.open()
			continue
		}
		if !yield(e.key(), e.val(), inA) {
			return false
		}
		c = c.next()
	}
	return true
}

// min returns the smallest key of the subtree of nd.
func (nd *node[K, V]) min() K {
	for !nd.leaf() {
		nd = nd.kids[0]
	}
	return nd.keys[0]
}
