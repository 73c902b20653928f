package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// via says through which entry point of the system an operation goes.
type via int

const (
	viaExec   via = iota // write: a module through Exec / ExecConcurrent / client.Exec
	viaQuery             // read: a goal through Query / client.Query
	viaCount             // read: Count(pred)
	viaReport            // read: a RIDI module with a goal, through the exec path
)

// op is one generated operation and the reply the generator's model
// expects for it. The system under test sees only src.
type op struct {
	via  via
	kind string // label in the trace: enrol, drop, point, report, ...
	src  string // module source, goal source, or predicate name (viaCount)

	// Expected reply when check is set: for goals the sorted values of
	// column col (whole rows joined by "," when col is empty), for
	// viaCount the fact count.
	check bool
	col   string
	want  []string
	count int
}

func (o *op) write() bool { return o.via == viaExec }

// plan is everything a generator derives from the seed: how to set a
// database up, what each closed-loop client sends, and the state the
// model says the database must end in.
type plan struct {
	schema    string
	registers []string // named modules stored in the library during set-up
	preload   []string // modules applied serially during set-up: data, then rules
	warm      op       // the warm-up read that ends set-up
	clients   [][]op

	// goal, pred and toggle feed the traced run's one-off probes: a
	// goal for Program.Query on the closed set, a predicate for Count,
	// and (monitor_ivm) a module pair whose commits cancel out, for the
	// subscriber fan-out slope.
	goal   string
	pred   string
	toggle [2]string

	// final, applied to a fresh set-up, gives the state the model
	// expects after every operation of every client: the serial
	// scratch replay of the acknowledged operations, taken in bulk.
	final []string
}

func (p *plan) ops() int {
	n := 0
	for _, c := range p.clients {
		n += len(c)
	}
	return n
}

// interleaved returns the clients' operations in round-robin order: a
// serial schedule that keeps each client's own order.
func (p *plan) interleaved(limit int) []op {
	var out []op
	for i := 0; len(out) < limit; i++ {
		took := false
		for _, c := range p.clients {
			if i < len(c) && len(out) < limit {
				out = append(out, c[i])
				took = true
			}
		}
		if !took {
			break
		}
	}
	return out
}

// mixer deals operation kinds in shuffled blocks that hold each kind
// in its exact share, so the mix (and any state it drives, like the
// size of monitor_ivm's window) cannot wander from seed to seed the
// way independent draws would.
type mixer struct {
	r     *rand.Rand
	block []int
	next  int
}

// newMixer takes the number of slots each kind gets per block.
func newMixer(r *rand.Rand, shares ...int) *mixer {
	m := &mixer{r: r}
	for kind, n := range shares {
		for i := 0; i < n; i++ {
			m.block = append(m.block, kind)
		}
	}
	m.next = len(m.block)
	return m
}

func (m *mixer) kind() int {
	if m.next == len(m.block) {
		m.r.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
		m.next = 0
	}
	m.next++
	return m.block[m.next-1]
}

func moduleSrc(mode string, lines []string) string {
	return "mode " + mode + ".\nrules\n  " + strings.Join(lines, "\n  ") + "\nend.\n"
}

// ---------------------------------------------------------------- closure_batch

const closureSchema = `
classes
  VERTEX = (id: integer);
  ORIGIN = (VERTEX, rank: integer);
  ORIGIN isa VERTEX;
associations
  NODE = (n: integer);
  ROOT = (n: integer);
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
  PAR = (child: integer, parent: integer);
  SG = (a: integer, b: integer);
  UNREACH = (a: integer, b: integer);
`

// closureRules: linear closure, nonlinear same-generation, one
// stratified-negation rule over the closure, and a class-headed
// stratum (oid invention over the node set, isa propagation into
// VERTEX). The invention rule negates unreach so that it lands in a
// stratum of its own: in the closure's stratum it would switch the
// whole stratum off semi-naive evaluation.
var closureRules = []string{
	"tc(src: X, dst: Y) <- edge(src: X, dst: Y).",
	"tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).",
	"sg(a: X, b: X) <- node(n: X).",
	"sg(a: X, b: Y) <- par(child: X, parent: XP), sg(a: XP, b: YP), par(child: Y, parent: YP).",
	"unreach(a: X, b: Y) <- root(n: X), node(n: Y), not tc(src: X, dst: Y).",
	"origin(self: S, id: N, rank: 0) <- node(n: N), not unreach(a: 0, b: N).",
}

const (
	closureNodes = 64 // chain length; tc holds n(n+1)/2 facts
	closureExtra = 24 // forward edges beside the chain
)

// closureEdges is the seeded graph: the chain plus forward edges whose
// sources are stratified along it, one per stretch, each skipping 1 to
// 3 nodes. The closure rule fires once per (tc fact, out-edge of its
// end), and the number of semi-naive rounds is the longest shortest
// path, so the work a graph costs follows where its extra edges start
// and how far they reach: fixing both up to a jitter keeps that work,
// and with it every timing and allocation, the same from seed to seed
// while the edges themselves still differ. Short skips keep the delta
// curve long. The edges are drawn in two passes (16, then 8) so that
// stretches of both widths carry one.
func closureEdges(r *rand.Rand) [][2]int {
	n := closureNodes
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	seen := map[[2]int]bool{}
	for _, k := range []int{closureExtra * 2 / 3, closureExtra / 3} {
		width := (n - 4) / k
		for i := 0; i < k; i++ {
			for {
				a := i*width + r.Intn(width)
				e := [2]int{a, a + 2 + r.Intn(3)}
				if !seen[e] {
					seen[e] = true
					edges = append(edges, e)
					break
				}
			}
		}
	}
	return edges
}

func edgeFact(e [2]int) string { return fmt.Sprintf("edge(src: %d, dst: %d).", e[0], e[1]) }

func edgeDelete(e [2]int) string {
	return fmt.Sprintf("not edge(src: %d, dst: %d) <- edge(src: %d, dst: %d).", e[0], e[1], e[0], e[1])
}

// genClosure: goal queries over one graph, drawn from six shapes that
// between them read every stratum. The database is not incremental, so
// every query is a from-scratch derivation of the instance. Expected
// answers are filled in by closureOracle.
func genClosure(seed int64, ops int) *plan {
	r := rand.New(rand.NewSource(seed))
	n := closureNodes
	var data []string
	for i := 0; i <= n; i++ {
		data = append(data, fmt.Sprintf("node(n: %d).", i))
		if i > 0 {
			data = append(data, fmt.Sprintf("par(child: %d, parent: %d).", i, (i-1)/2))
		}
		if i%16 == 0 {
			data = append(data, fmt.Sprintf("root(n: %d).", i))
		}
	}
	for _, e := range closureEdges(r) {
		data = append(data, edgeFact(e))
	}
	p := &plan{
		schema:  closureSchema,
		preload: []string{moduleSrc("ridv", data), moduleSrc("radi", closureRules)},
		warm:    op{via: viaQuery, kind: "warm", src: "?- tc(src: 0, dst: Y)."},
		goal:    "?- tc(src: 0, dst: Y).",
		pred:    "tc",
	}
	goals := []func() string{
		func() string { return fmt.Sprintf("?- tc(src: %d, dst: Y).", r.Intn(n)) },
		func() string { return fmt.Sprintf("?- tc(src: X, dst: %d).", 1+r.Intn(n)) },
		func() string { return fmt.Sprintf("?- sg(a: %d, b: Y).", r.Intn(n+1)) },
		func() string { return fmt.Sprintf("?- unreach(a: %d, b: Y).", 16*r.Intn(n/16+1)) },
		func() string { return fmt.Sprintf("?- origin(self: S, id: %d).", 1+r.Intn(n)) },
		func() string { return fmt.Sprintf("?- vertex(self: S, id: %d).", 1+r.Intn(n)) },
	}
	seq := make([]op, ops)
	for i := range seq {
		seq[i] = op{via: viaQuery, kind: "goal", src: goals[r.Intn(len(goals))](), check: true}
	}
	p.clients = [][]op{seq}
	return p // no writes: the state the run must end in is the one it was set up in
}

// ---------------------------------------------------------------- registrar_http

// registrarSchema and registrarMethods are the §5 case study of
// examples/registrar.
const registrarSchema = `
domains
  NAME = string;
  CODE = string;
  GRADE = integer;
classes
  PERSON = (name: NAME);
  STUDENT = (PERSON, year: integer);
  INSTRUCTOR = (PERSON, field: string);
  STUDENT isa PERSON;
  INSTRUCTOR isa PERSON;
  SECTION = (code: CODE, teacher: INSTRUCTOR, capacity: integer);
associations
  ENROLLED = (student: STUDENT, section: SECTION);
  MARK = (student: STUDENT, code: CODE, grade: GRADE);
  INTAKE = (name: NAME, kind: string, detail: string);
  OFFERING = (code: CODE, teacher_name: NAME, capacity: integer);
  ENROLREQ = (name: NAME, code: CODE);
  DROPREQ = (name: NAME, code: CODE);
  TRANSCRIPT = (name: NAME, passed: {CODE});
  OVERLOADED = (code: CODE);
functions
  PASSED: NAME -> {CODE};
`

var registrarMethods = []string{`
module load_people.
mode ridv.
rules
  student(self: S, name: N, year: 1) <- intake(name: N, kind: "student").
  instructor(self: I, name: N, field: F) <- intake(name: N, kind: "instructor", detail: F).
end.
`, `
module open_sections.
mode ridv.
rules
  section(self: X, code: C, teacher: T, capacity: K)
      <- offering(code: C, teacher_name: TN, capacity: K),
         instructor(self: T, name: TN).
end.
`, `
module enrol.
mode ridv.
rules
  enrolled(student: S, section: X)
      <- enrolreq(name: N, code: C),
         student(self: S, name: N), section(self: X, code: C).
end.
`, `
module drop.
mode ridv.
rules
  not enrolled(student: S, section: X)
      <- dropreq(name: N, code: C),
         student(self: S, name: N), section(self: X, code: C),
         enrolled(student: S, section: X).
end.
`, `
module grade_report.
mode radi.
rules
  member(C, passed(N)) <- mark(student: S, code: C, grade: G), G >= 18,
                          student(self: S, name: N).
  transcript(name: N, passed: P) <- student(name: N), P = passed(N).
end.
`, `
module capacity_watch.
mode radi.
rules
  overloaded(code: C) <- section(self: X, code: C, capacity: K),
                         enrolled(section: X), K < 1.
end.
`}

const (
	registrarStudents    = 300
	registrarSections    = 15
	registrarInstructors = 5
	registrarInitial     = 3 // enrolments per student at preload
)

func studentName(i int) string { return fmt.Sprintf("s%04d", i) }
func sectionCode(i int) string { return fmt.Sprintf("c%03d", i) }

func enrolRule(s, c int) string {
	return fmt.Sprintf("enrolled(student: S, section: X) <- student(self: S, name: %q), section(self: X, code: %q).",
		studentName(s), sectionCode(c))
}

func quoted(codes []int) []string {
	out := make([]string, len(codes))
	for i, c := range codes {
		out[i] = fmt.Sprintf("%q", sectionCode(c))
	}
	sort.Strings(out)
	return out
}

// genRegistrar: client g owns the students whose index is g modulo
// the client count, so one client's operations commute with the
// other's and each client's model gives exact expected answers
// whatever the interleaving. Mix per client: 40 % enrol, 10 % drop-out
// (a deletion head removing all of a student's enrolments, which
// balances the enrols), 40 % point query, 10 % transcript report.
func genRegistrar(seed int64, ops int) *plan {
	const clients = 2
	r := rand.New(rand.NewSource(seed))
	p := &plan{schema: registrarSchema, registers: registrarMethods}

	var intake []string
	for i := 0; i < registrarStudents; i++ {
		intake = append(intake, fmt.Sprintf("intake(name: %q, kind: \"student\", detail: \"\").", studentName(i)))
	}
	for i := 0; i < registrarInstructors; i++ {
		intake = append(intake, fmt.Sprintf("intake(name: \"t%02d\", kind: \"instructor\", detail: \"field%d\").", i, i))
	}
	for i := 0; i < registrarSections; i++ {
		intake = append(intake, fmt.Sprintf("offering(code: %q, teacher_name: \"t%02d\", capacity: 1000).",
			sectionCode(i), i%registrarInstructors))
	}
	enrolled := make([]map[int]bool, registrarStudents) // the model
	passed := make([][]int, registrarStudents)
	var enrol, marks []string
	for s := 0; s < registrarStudents; s++ {
		enrolled[s] = map[int]bool{}
		for _, c := range r.Perm(registrarSections)[:registrarInitial] {
			enrolled[s][c] = true
			enrol = append(enrol, enrolRule(s, c))
			grade := 10 + r.Intn(21)
			marks = append(marks, fmt.Sprintf("mark(student: S, code: %q, grade: %d) <- student(self: S, name: %q).",
				sectionCode(c), grade, studentName(s)))
			if grade >= 18 {
				passed[s] = append(passed[s], c)
			}
		}
	}
	p.preload = []string{
		moduleSrc("ridv", intake),
		moduleSrc("ridv", []string{
			`student(self: S, name: N, year: 1) <- intake(name: N, kind: "student").`,
			`instructor(self: I, name: N, field: F) <- intake(name: N, kind: "instructor", detail: F).`,
		}),
		moduleSrc("ridv", []string{
			`section(self: X, code: C, teacher: T, capacity: K) <- offering(code: C, teacher_name: TN, capacity: K), instructor(self: T, name: TN).`,
		}),
		moduleSrc("ridv", enrol),
		moduleSrc("ridv", marks),
		// The example's passive constraint: one mark per student and course.
		moduleSrc("radi", []string{
			"<- mark(student: S, code: C, grade: G1), mark(student: S, code: C, grade: G2), G1 != G2.",
		}),
	}
	point := func(s int) op {
		var codes []int
		for c := range enrolled[s] {
			codes = append(codes, c)
		}
		return op{via: viaQuery, kind: "point", check: true, col: "C", want: quoted(codes),
			src: fmt.Sprintf("?- student(self: S, name: %q), enrolled(student: S, section: X), section(self: X, code: C).", studentName(s))}
	}
	p.warm = point(0)
	p.warm.kind = "warm"
	p.goal, p.pred = p.warm.src, "enrolled"

	p.clients = make([][]op, clients)
	mix := make([]*mixer, clients)
	for g := range mix {
		mix[g] = newMixer(r, 4, 1, 4, 1)
	}
	for i := 0; i < ops; i++ {
		g := i % clients
		s := r.Intn(registrarStudents/clients)*clients + g
		var o op
		switch mix[g].kind() {
		case 0:
			c := r.Intn(registrarSections)
			enrolled[s][c] = true
			o = op{via: viaExec, kind: "enrol", src: moduleSrc("ridv", []string{enrolRule(s, c)})}
		case 1:
			enrolled[s] = map[int]bool{}
			o = op{via: viaExec, kind: "drop", src: moduleSrc("ridv", []string{fmt.Sprintf(
				"not enrolled(student: S, section: X) <- student(self: S, name: %q), enrolled(student: S, section: X).",
				studentName(s))})}
		case 2:
			o = point(s)
		default:
			name := studentName(s)
			want := "{" + strings.Join(quoted(passed[s]), ", ") + "}"
			o = op{via: viaReport, kind: "report", check: true, col: "P", want: []string{want}, src: fmt.Sprintf(`mode ridi.
rules
  member(C, passed(N)) <- student(self: S, name: N), N = %q, mark(student: S, code: C, grade: G), G >= 18.
  transcript(name: N, passed: P) <- student(name: N), N = %q, P = passed(N).
goal
  ?- transcript(name: %q, passed: P).
end.
`, name, name, name)}
		}
		p.clients[g] = append(p.clients[g], o)
	}
	var last []string
	for s := range enrolled {
		for c := range enrolled[s] {
			last = append(last, enrolRule(s, c))
		}
	}
	sort.Strings(last)
	p.final = []string{
		moduleSrc("ridv", []string{"not enrolled(student: S, section: X) <- enrolled(student: S, section: X)."}),
		moduleSrc("ridv", last),
	}
	return p
}

// ---------------------------------------------------------------- durable_commit

const (
	durablePreds = 8
	durableKeys  = 40 // per predicate; about 0.7 of the slots are live
	// durableExtraBase is the first key of the commits made while the
	// data directory is being copied: the in-flight set of the
	// recovery check. Clients never draw keys this high.
	durableExtraBase = 1000
)

func durableSchema() string {
	var b strings.Builder
	b.WriteString("associations\n")
	for i := 0; i < durablePreds; i++ {
		fmt.Fprintf(&b, "  Q%d = (x: integer);\n", i)
	}
	return b.String()
}

func kvFact(p, k int) string { return fmt.Sprintf("q%d(x: %d).", p, k) }

// genDurable: tiny RIDV modules over 8 shared predicates, 70 % insert
// and 30 % delete of a uniformly drawn key.
// Client g owns the keys that are g modulo the client count: the two
// clients collide on predicates (the unit of conflict detection) but
// never on a row, so their operations commute and the model is exact.
// An insert of a live key or a delete of a dead one is still a commit.
func genDurable(seed int64, ops int) *plan {
	const clients = 2
	r := rand.New(rand.NewSource(seed))
	p := &plan{schema: durableSchema()}
	live := make([]map[int]bool, durablePreds)
	var data []string
	for q := range live {
		live[q] = map[int]bool{}
		for k := 0; k < durableKeys; k++ {
			if r.Float64() < 0.7 {
				live[q][k] = true
				data = append(data, kvFact(q, k))
			}
		}
	}
	p.preload = []string{moduleSrc("ridv", data)}
	p.warm = op{via: viaQuery, kind: "warm", src: "?- q0(x: X)."}
	p.goal, p.pred = p.warm.src, "q0"
	p.clients = make([][]op, clients)
	mix := make([]*mixer, clients)
	for g := range mix {
		mix[g] = newMixer(r, 7, 3)
	}
	for i := 0; i < ops; i++ {
		g := i % clients
		q := r.Intn(durablePreds)
		k := r.Intn(durableKeys/clients)*clients + g
		var o op
		if mix[g].kind() == 0 {
			live[q][k] = true
			o = op{via: viaExec, kind: "insert", src: "mode ridv.\nrules " + kvFact(q, k) + "\nend.\n"}
		} else {
			delete(live[q], k)
			o = op{via: viaExec, kind: "delete",
				src: fmt.Sprintf("mode ridv.\nrules not q%d(x: %d) <- q%d(x: %d).\nend.\n", q, k, q, k)}
		}
		p.clients[g] = append(p.clients[g], o)
	}
	var purge, last []string
	for q := range live {
		purge = append(purge, fmt.Sprintf("not q%d(x: X) <- q%d(x: X).", q, q))
		for k := range live[q] {
			last = append(last, kvFact(q, k))
		}
	}
	sort.Strings(last)
	p.final = []string{moduleSrc("ridv", purge), moduleSrc("ridv", last)}
	return p
}

// ---------------------------------------------------------------- monitor_ivm

// monitorSchema and monitorRules are E20's.
const monitorSchema = `
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`

var monitorRules = []string{
	"tc(src: X, dst: Y) <- edge(src: X, dst: Y).",
	"tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).",
}

const monitorWindow = 96

// genMonitor: the base is a window [lo, hi] of a chain plus forward
// shortcuts inside it. 65 % of the commits insert one edge — half at
// the frontier (hi grows, about hi−lo new closure facts), half a
// shortcut (no new facts: duplicate elimination in the propagation) —
// and 35 % delete: mostly the tail node's out-edges (lo grows, which
// keeps the window and so the closure at a steady size), one commit in
// forty a single shortcut across the middle of the window, which DRed
// over-deletes widely and then rederives through the chain. Each commit is followed by Count("tc"),
// which the model knows in closed form: every pair of the window.
func genMonitor(seed int64, ops int) *plan {
	r := rand.New(rand.NewSource(seed))
	lo, hi := 0, monitorWindow
	short := map[[2]int]bool{}
	pick := func() [2]int {
		for {
			a := lo + r.Intn(hi-lo-1)
			e := [2]int{a, a + 2 + r.Intn(hi-a-1)}
			if !short[e] {
				return e
			}
		}
	}
	var data []string
	for i := lo; i < hi; i++ {
		data = append(data, edgeFact([2]int{i, i + 1}))
	}
	for i := 0; i < monitorWindow/2; i++ {
		e := pick()
		short[e] = true
		data = append(data, edgeFact(e))
	}
	pairs := func() int { return (hi - lo) * (hi - lo + 1) / 2 }
	p := &plan{
		schema:  monitorSchema,
		preload: []string{moduleSrc("ridv", data), moduleSrc("radi", monitorRules)},
		warm:    op{via: viaCount, kind: "warm", src: "tc", check: true, count: pairs()},
	}
	// kinds: 0 frontier, 1 shortcut, 2 tail, 3 the planted shortcut,
	// 4 its deletion. DRed's cost for deleting a shortcut (a, c) follows
	// how many pairs lie across it, so the one deleted per block is
	// planted earlier in the same block a quarter of the window in from
	// each end: its cost is then the same from block to block and from
	// seed to seed.
	var seq []op
	mix := newMixer(r, 13, 12, 13, 1, 1)
	var planted [2]int
	havePlanted := false
	for len(seq) < ops {
		var o op
		kind := mix.kind()
		if kind == 4 && !havePlanted {
			kind = 3 // the deletion came up first: plant now, delete at the planting's slot
		} else if kind == 3 && havePlanted {
			kind = 4
		}
		switch kind {
		case 0:
			o = op{via: viaExec, kind: "frontier", src: moduleSrc("ridv", []string{edgeFact([2]int{hi, hi + 1})})}
			hi++
		case 1:
			e := pick()
			short[e] = true
			o = op{via: viaExec, kind: "shortcut", src: moduleSrc("ridv", []string{edgeFact(e)})}
		case 2:
			o = op{via: viaExec, kind: "tail", src: moduleSrc("ridv", []string{
				fmt.Sprintf("not edge(src: %d, dst: Y) <- edge(src: %d, dst: Y).", lo, lo)})}
			for e := range short {
				if e[0] == lo {
					delete(short, e)
				}
			}
			lo++
		case 3:
			planted = [2]int{lo + (hi-lo)/4 + r.Intn(3), hi - (hi-lo)/4 - r.Intn(3)}
			for short[planted] {
				planted[1]--
			}
			short[planted], havePlanted = true, true
			o = op{via: viaExec, kind: "shortcut", src: moduleSrc("ridv", []string{edgeFact(planted)})}
		case 4:
			delete(short, planted)
			havePlanted = false
			o = op{via: viaExec, kind: "unshort", src: moduleSrc("ridv", []string{edgeDelete(planted)})}
		}
		seq = append(seq, o, op{via: viaCount, kind: "count", src: "tc", check: true, count: pairs()})
	}
	p.clients = [][]op{seq[:ops]}
	p.goal, p.pred = fmt.Sprintf("?- tc(src: %d, dst: Y).", lo), "tc"
	apart := [2]int{hi + 10, hi + 11} // off the window: one closure fact comes and goes
	p.toggle = [2]string{moduleSrc("ridv", []string{edgeFact(apart)}), moduleSrc("ridv", []string{edgeDelete(apart)})}
	var last []string
	for i := lo; i < hi; i++ {
		last = append(last, edgeFact([2]int{i, i + 1}))
	}
	for e := range short {
		last = append(last, edgeFact(e))
	}
	sort.Strings(last)
	p.final = []string{
		moduleSrc("ridv", []string{"not edge(src: X, dst: Y) <- edge(src: X, dst: Y)."}),
		moduleSrc("ridv", last),
	}
	return p
}
