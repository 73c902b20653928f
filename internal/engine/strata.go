package engine

import (
	"sort"

	"logres/internal/ast"
	"logres/internal/hooks"
)

// Stratification (§3.1): LOGRES programs stratified with respect to
// negation and data functions are evaluated stratum by stratum (each
// stratum under inflationary semantics), which yields the perfect model;
// non-stratified programs fall back to whole-program inflationary
// evaluation, which the paper also admits ("it can also be assigned a
// meaning, by computing it as a whole still under inflationary semantics").
//
// The dependency graph has one node per predicate (classes, associations,
// data functions). A rule with head h and body literal over b contributes
// an edge h → b; the edge is *strict* when the body literal is negated,
// when the rule reads a data function's extension through a function
// application (the whole extension must be complete before use), or when
// the head is a deletion. A program is stratified iff no strict edge lies
// on a cycle.
//
// The components of one level share no edge, so any order of them gives
// the same result. A level's components that force the one-step
// operator (forcesRow) form a stratum of their own, after the level's
// others, which then keep delta iteration: no row-forcing rule makes a
// whole level step row by row. The others invent nothing, so oid
// numbering does not move. A level where a rule enumerates the active
// domain stays one stratum, since that rule reads every predicate's
// values, its level's included.

type depEdge struct {
	from, to string
	strict   bool
}

// computeStrata partitions p.rules into evaluation strata.
func (p *Program) computeStrata() {
	p.reference = hooks.PlanReference
	nodes := map[string]bool{}
	var edges []depEdge
	headOf := func(r *crule) string { return r.head.pred }

	for _, r := range p.rules {
		h := headOf(r)
		nodes[h] = true
		strictAll := r.head.negated // deletions depend strictly on their body
		for _, l := range r.body {
			switch l.kind {
			case pkClass, pkAssoc:
				nodes[l.pred] = true
				edges = append(edges, depEdge{from: h, to: l.pred, strict: strictAll || l.negated})
			}
		}
		// Data functions read anywhere in the rule are strict dependencies.
		for _, fn := range ruleFuncReads(r) {
			nodes[fn] = true
			edges = append(edges, depEdge{from: h, to: fn, strict: true})
		}
	}

	// Strongly connected components (iterative Tarjan).
	comp := sccs(nodes, edges)

	// A strict edge inside one component breaks stratification.
	p.stratified = true
	for _, e := range edges {
		if e.strict && comp[e.from] == comp[e.to] {
			p.stratified = false
			break
		}
	}
	if !p.stratified {
		p.strata = [][]*crule{append([]*crule{}, p.rules...)}
		return
	}

	// Topological order of components: stratum(c) = 1 + max over deps.
	level := map[int]int{}
	adj := map[int]map[int]bool{}
	for _, e := range edges {
		cf, ct := comp[e.from], comp[e.to]
		if cf == ct {
			continue
		}
		if adj[cf] == nil {
			adj[cf] = map[int]bool{}
		}
		adj[cf][ct] = true
	}
	var depth func(c int, visiting map[int]bool) int
	depth = func(c int, visiting map[int]bool) int {
		if l, ok := level[c]; ok {
			return l
		}
		if visiting[c] {
			return 0 // inter-component cycles cannot occur in a condensation
		}
		visiting[c] = true
		max := 0
		for d := range adj[c] {
			if l := depth(d, visiting) + 1; l > max {
				max = l
			}
		}
		delete(visiting, c)
		level[c] = max
		return max
	}
	maxLevel := 0
	for _, c := range comp {
		if l := depth(c, map[int]bool{}); l > maxLevel {
			maxLevel = l
		}
	}
	rowComp, whole := map[int]bool{}, map[int]bool{}
	for _, r := range p.rules {
		c := comp[headOf(r)]
		rowComp[c] = rowComp[c] || forcesRow(r)
		whole[level[c]] = whole[level[c]] || p.reference || enumeratesActiveDomain(r)
	}
	byLevel := make([][2][]*crule, maxLevel+1) // the level's others, then its row-forcing components
	for _, r := range p.rules {
		c := comp[headOf(r)]
		l, part := level[c], 0
		if rowComp[c] && !whole[l] {
			part = 1
		}
		byLevel[l][part] = append(byLevel[l][part], r)
	}
	for _, parts := range byLevel {
		for _, s := range parts {
			if len(s) > 0 {
				p.strata = append(p.strata, s)
			}
		}
	}
	if len(p.strata) == 0 {
		p.strata = [][]*crule{{}}
	}
}

// ruleFuncReads returns the data functions whose extension the rule reads
// through function-application terms (in body literals or the head). A
// recursive function definition's read of its own function is excluded:
// such recursion is an ordinary positive cycle (the member set grows
// monotonically under the inflationary operator), not a stratification
// violation — the paper's Example 3.2 relies on this. Use
// ruleFuncReadsAll when self-reads matter (semi-naive eligibility).
func ruleFuncReads(r *crule) []string {
	out := ruleFuncReadsAll(r)
	if r.head != nil && r.head.kind == hFunc {
		filtered := out[:0]
		for _, fn := range out {
			if fn != r.head.pred {
				filtered = append(filtered, fn)
			}
		}
		out = filtered
	}
	return out
}

// ruleFuncReadsAll is ruleFuncReads including a defining rule's read of its
// own function.
func ruleFuncReadsAll(r *crule) []string {
	seen := map[string]bool{}
	var walk func(t ast.Term)
	walk = func(t ast.Term) {
		switch x := t.(type) {
		case ast.FuncApp:
			seen[x.Name] = true
			for _, a := range x.Args {
				walk(a)
			}
		case ast.BinExpr:
			walk(x.L)
			walk(x.R)
		case ast.TupleTerm:
			for _, a := range x.Args {
				walk(a.Term)
			}
		case ast.SetTerm:
			for _, e := range x.Elems {
				walk(e)
			}
		case ast.MultisetTerm:
			for _, e := range x.Elems {
				walk(e)
			}
		case ast.SeqTerm:
			for _, e := range x.Elems {
				walk(e)
			}
		}
	}
	for _, l := range r.body {
		if l.selfTerm != nil {
			walk(l.selfTerm)
		}
		for _, c := range l.comps {
			walk(c.term)
		}
		for _, a := range l.args {
			walk(a)
		}
	}
	if h := r.head; h != nil {
		if h.selfTerm != nil {
			walk(h.selfTerm)
		}
		for _, c := range h.comps {
			walk(c.term)
		}
		if h.kind == hFunc {
			// The head literal member(X, f(a)) itself is a definition, not
			// a read, so the head's own FuncApp is never walked — only its
			// argument and member terms.
			if h.fnArg != nil {
				walk(h.fnArg)
			}
			walk(h.fnMember)
		}
	}
	var out []string
	for fn := range seen {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

// sccs computes strongly connected components; it returns a map from node
// to component id.
func sccs(nodes map[string]bool, edges []depEdge) map[string]int {
	adj := map[string][]string{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	comp := map[string]int{}
	counter, compID := 0, 0

	type frame struct {
		node string
		ei   int
	}
	var visit func(root string)
	visit = func(root string) {
		frames := []frame{{node: root}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.node]) {
				next := adj[f.node][f.ei]
				f.ei++
				if _, seen := index[next]; !seen {
					index[next] = counter
					low[next] = counter
					counter++
					stack = append(stack, next)
					onStack[next] = true
					frames = append(frames, frame{node: next})
				} else if onStack[next] {
					if index[next] < low[f.node] {
						low[f.node] = index[next]
					}
				}
				continue
			}
			// Pop.
			if low[f.node] == index[f.node] {
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp[top] = compID
					if top == f.node {
						break
					}
				}
				compID++
			}
			n := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[n] < low[parent.node] {
					low[parent.node] = low[n]
				}
			}
		}
	}
	for _, n := range order {
		if _, seen := index[n]; !seen {
			visit(n)
		}
	}
	return comp
}
