package logres

// The benchmark harness: the engine shapes E3, E5, E9 and E11 of
// EXPERIMENTS.md, plus in-process shapes of the gated workloads under
// benchmark/ (registrar commits, contended commits, the closure_batch
// read path, durable one-at-a-time commits, the monitor_ivm
// commit kinds), which measure the end-to-end experiments. Run with:
//
//	go test -bench=. -benchmem
//
// The paper (SIGMOD 1990) contains no quantitative tables; these
// experiments characterize the system the paper describes.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"logres/internal/engine"
	"logres/internal/module"
	"logres/internal/obs"
	"logres/internal/parser"
	"logres/internal/storage"
	"logres/internal/value"
)

// intFacts returns an extension of pred with one fact per row, the
// row's integers under labels.
func intFacts(pred string, labels []string, rows ...[]int) *engine.FactSet {
	f := engine.NewFactSet()
	for _, row := range rows {
		fields := make([]value.Field, len(labels))
		for i, l := range labels {
			fields[i] = value.Field{Label: l, Value: value.Int(int64(row[i]))}
		}
		f.Add(engine.Fact{Pred: pred, Tuple: value.NewTuple(fields...)})
	}
	return f
}

// benchFixpoint compiles rules against schema under opts and times one
// evaluation over edb per iteration, failing unless pred ends with want
// facts.
func benchFixpoint(b *testing.B, schema, rules string, opts engine.Options, edb *engine.FactSet, pred string, want int) {
	m, err := parser.ParseModule(schema)
	if err != nil {
		b.Fatal(err)
	}
	rs, err := parser.ParseProgram(rules)
	if err != nil {
		b.Fatal(err)
	}
	p, err := engine.Compile(m.Schema, rs, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counter := int64(0)
		f, err := p.Run(edb, &counter)
		if err != nil {
			b.Fatal(err)
		}
		if got := f.Size(pred); got != want {
			b.Fatalf("%s = %d, want %d", pred, got, want)
		}
	}
}

// E3 — oid invention throughput vs plain derivation: one object (or one
// flat tuple) per seed fact.
func BenchmarkE3_Invention(b *testing.B) {
	const schema = `
classes ITEM = (k: integer);
associations
  SEED = (k: integer);
  FLAT = (k: integer);
`
	for _, c := range []struct{ name, pred, rule string }{
		{"invent", "item", `item(self: X, k: K) <- seed(k: K).`},
		{"derive", "flat", `flat(k: K) <- seed(k: K).`},
	} {
		for _, n := range []int{100, 1000} {
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				var rows [][]int
				for i := 0; i < n; i++ {
					rows = append(rows, []int{i})
				}
				benchFixpoint(b, schema, c.rule, engine.DefaultOptions(), intFacts("seed", []string{"k"}, rows...), c.pred, n)
			})
		}
	}
}

// E5 — powerset (Example 3.3): built-in heavy, exponential output.
func BenchmarkE5_Powerset(b *testing.B) {
	const schema = `
domains D = integer;
associations
  R = (d: D);
  POWER = (set: {D});
`
	const rules = `
power(set: X) <- X = {}.
power(set: X) <- r(d: Y), append({}, Y, X).
power(set: X) <- power(set: Y), power(set: Z), union(Y, Z, X).
`
	for _, d := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var rows [][]int
			for i := 0; i < d; i++ {
				rows = append(rows, []int{i})
			}
			benchFixpoint(b, schema, rules, engine.DefaultOptions(), intFacts("r", []string{"d"}, rows...), "power", 1<<d)
		})
	}
}

// snapshotState returns a state with n objects and n−1 association
// tuples linking them in a chain.
func snapshotState(b *testing.B, n int) *module.State {
	m, err := parser.ParseModule(`
classes ITEM = (k: integer, name: string);
associations LINKREL = (a: ITEM, b: ITEM);
`)
	if err != nil {
		b.Fatal(err)
	}
	st := module.NewState(m.Schema)
	for i := 1; i <= n; i++ {
		st.E.Add(engine.Fact{Pred: "item", IsClass: true, OID: value.OID(i), Tuple: value.NewTuple(
			value.Field{Label: "k", Value: value.Int(int64(i))},
			value.Field{Label: "name", Value: value.Str(fmt.Sprintf("item-%d", i))},
		)})
	}
	for i := 1; i < n; i++ {
		st.E.Add(engine.Fact{Pred: "linkrel", Tuple: value.NewTuple(
			value.Field{Label: "a", Value: value.Ref(value.OID(i))},
			value.Field{Label: "b", Value: value.Ref(value.OID(i + 1))},
		)})
	}
	st.Counter = int64(n)
	return st
}

// E9 — snapshot codec.
func BenchmarkE9_SnapshotEncode(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			st := snapshotState(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := storage.SaveState(&bytes.Buffer{}, st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE9_SnapshotDecode(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var buf bytes.Buffer
			if err := storage.SaveState(&buf, snapshotState(b, n)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := storage.LoadState(bytes.NewReader(buf.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				if got := st.E.TotalSize(); got != 2*n-1 {
					b.Fatalf("decoded %d facts, want %d", got, 2*n-1)
				}
			}
		})
	}
}

// E11 — rule semantics: inflationary vs non-inflationary on the same
// closure of a 32-edge chain (§1: rules are parametric in their
// semantics).
func BenchmarkE11_Semantics(b *testing.B) {
	const schema = `
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`
	const rules = `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
`
	var chain [][]int
	for i := 0; i < 32; i++ {
		chain = append(chain, []int{i, i + 1})
	}
	for _, nonInf := range []bool{false, true} {
		name := "inflationary"
		if nonInf {
			name = "noninflationary"
		}
		b.Run(name, func(b *testing.B) {
			opts := engine.DefaultOptions()
			opts.NonInflationary = nonInf
			benchFixpoint(b, schema, rules, opts, intFacts("edge", []string{"src", "dst"}, chain...), "tc", 32*33/2)
		})
	}
}

// registrarSchema is the §5 case study of examples/registrar.
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
`

// registrarEnrol is the rule of one enrolment write of the case study.
func registrarEnrol(student, section int) string {
	return fmt.Sprintf("  enrolled(student: S, section: X) <- student(self: S, name: \"s%04d\"), section(self: X, code: \"c%03d\").\n",
		student, section)
}

// registrarReportSchema is registrarSchema with the associations and
// the data function registrar_http's transcript report derives.
const registrarReportSchema = registrarSchema + `  TRANSCRIPT = (name: NAME, passed: {CODE});
functions
  PASSED: NAME -> {CODE};
`

// registrarPreload opens a scratch database over schema (registrarSchema
// or registrarReportSchema) holding the case study at scale times the
// gated benchmark's registrar_http size: 300 students, 5 instructors and
// 15×scale sections, instructor t teaching the sections ≡ t (mod 5).
// Each student is enrolled in every section of one instructor (3×scale
// enrolments, by one rule) and has three marks, all passes, under the
// one-mark-per-course denial. Scale 1 is registrar_http's preload.
func registrarPreload(tb testing.TB, schema string, scale int) *Database {
	const students, instructors, baseSections = 300, 5, 15
	sections := baseSections * scale
	db, err := Open(schema)
	if err != nil {
		tb.Fatal(err)
	}
	var facts, enrols strings.Builder
	for i := 0; i < students; i++ {
		fmt.Fprintf(&facts, "  intake(name: \"s%04d\", kind: \"student\", detail: \"\").\n", i)
	}
	for i := 0; i < instructors; i++ {
		fmt.Fprintf(&facts, "  intake(name: \"t%02d\", kind: \"instructor\", detail: \"f\").\n", i)
	}
	for i := 0; i < sections; i++ {
		fmt.Fprintf(&facts, "  offering(code: \"c%03d\", teacher_name: \"t%02d\", capacity: 1000).\n", i, i%instructors)
	}
	for i := 0; i < students; i++ {
		fmt.Fprintf(&enrols, "  enrolled(student: S, section: X) <- student(self: S, name: \"s%04d\"), section(self: X, teacher: T), instructor(self: T, name: \"t%02d\").\n",
			i, i%instructors)
		for k := 0; k < 3; k++ {
			c := (i + k*instructors) % baseSections
			fmt.Fprintf(&enrols, "  mark(student: S, code: \"c%03d\", grade: %d) <- student(self: S, name: \"s%04d\").\n", c, 18+k, i)
		}
	}
	for _, src := range []string{
		"mode ridv.\nrules\n" + facts.String() + "end.\n",
		`mode ridv.
rules
  student(self: S, name: N, year: 1) <- intake(name: N, kind: "student").
  instructor(self: I, name: N, field: F) <- intake(name: N, kind: "instructor", detail: F).
end.
`, `mode ridv.
rules
  section(self: X, code: C, teacher: T, capacity: K) <- offering(code: C, teacher_name: TN, capacity: K), instructor(self: T, name: TN).
end.
`,
		"mode ridv.\nrules\n" + enrols.String() + "end.\n",
		`mode radi.
rules
  <- mark(student: S, code: C, grade: G1), mark(student: S, code: C, grade: G2), G1 != G2.
end.
`} {
		if _, err := db.Exec(src); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// BenchmarkRegistrarEnrolCommit is one enrolment commit through
// Exec against the registrar preload on a scratch database:
// the write path of the gated benchmark's registrar_http workload
// without HTTP — apply, derive, audit the delta, commit.
func BenchmarkRegistrarEnrolCommit(b *testing.B) {
	db := registrarPreload(b, registrarSchema, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("mode ridv.\nrules\n" + registrarEnrol(i%300, (i/300+1)%15) + "end.\n"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistrarEnrolDrop is the steady-state form of
// BenchmarkRegistrarEnrolCommit: even operations enrol a student in a
// section the preload does not enrol them in, odd ones drop that
// enrolment again, so every commit starts from the preload's E or that
// E plus one fact. BenchmarkRegistrarEnrolCommit grows enrolled by one
// fact per operation instead, so copying and freezing the growing
// predicate weigh on it more with every operation. The sub-benchmarks
// scale the preload's enrolments (and sections) by 1, 4 and 16 with
// the rules, students and marks unchanged: how a commit's cost grows
// with the predicate it writes.
func BenchmarkRegistrarEnrolDrop(b *testing.B) {
	for _, scale := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("enrolled=x%d", scale), func(b *testing.B) {
			db := registrarPreload(b, registrarSchema, scale)
			preload, err := db.Count("enrolled")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				registrarEnrolDrop(b, db, i)
			}
			b.StopTimer()
			if n, err := db.Count("enrolled"); err != nil || n != preload+b.N%2 {
				b.Fatalf("enrolled = %d (%v) after %d operations, want %d", n, err, b.N, preload+b.N%2)
			}
		})
	}
}

// BenchmarkRegistrarEnrolDropBesideReads is BenchmarkRegistrarEnrolDrop
// at the preload's scale with one goroutine looping registrar point
// queries beside the commits, reporting the queries answered per
// commit. A read that holds the database lock through its evaluation
// makes every commit wait for the read in flight, and the readers that
// arrive meanwhile wait behind the commit.
func BenchmarkRegistrarEnrolDropBesideReads(b *testing.B) {
	db := registrarPreload(b, registrarSchema, 1)
	stop, reads := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		defer func() { reads <- n }()
		for ; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			goal := fmt.Sprintf("?- student(self: S, name: \"s%04d\"), enrolled(student: S, section: X), section(self: X, code: C).", n%300)
			if _, err := db.Query(goal); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		registrarEnrolDrop(b, db, i)
	}
	b.StopTimer()
	close(stop)
	b.ReportMetric(float64(<-reads)/float64(b.N), "reads/op")
}

// BenchmarkRegistrarReport is registrar_http's transcript report
// without HTTP: a RIDI module whose two rules derive one student's
// passed courses and transcript and whose goal reads the transcript,
// through Exec against the registrar preload. Its rules match all 300
// students before N = "s…" keeps one.
func BenchmarkRegistrarReport(b *testing.B) {
	db := registrarPreload(b, registrarReportSchema, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		registrarReport(b, db, i)
	}
}

// registrarReport is report i of BenchmarkRegistrarReport, on student
// i mod 300, the module registrar_http's report operation sends.
func registrarReport(tb testing.TB, db *Database, i int) {
	name := fmt.Sprintf("s%04d", i%300)
	res, err := db.Exec(fmt.Sprintf(`mode ridi.
rules
  member(C, passed(N)) <- student(self: S, name: N), N = %q, mark(student: S, code: C, grade: G), G >= 18.
  transcript(name: N, passed: P) <- student(name: N), N = %q, P = passed(N).
goal
  ?- transcript(name: %q, passed: P).
end.
`, name, name, name))
	if err != nil {
		tb.Fatal(err)
	}
	if res.Answer == nil || len(res.Answer.Rows) != 1 {
		tb.Fatalf("report on %s: %v, want one transcript", name, res.Answer)
	}
	if p, ok := res.Answer.Rows[0][0].(value.Set); !ok || p.Len() != 3 {
		tb.Fatalf("report on %s: passed %v, want three courses", name, res.Answer.Rows[0][0])
	}
}

// registrarEnrolDrop is operation i of BenchmarkRegistrarEnrolDrop: an
// even i enrols student i/2 in a section the preload does not enrol them
// in, an odd i drops that enrolment again.
func registrarEnrolDrop(tb testing.TB, db *Database, i int) {
	// The preload enrols student s only in the sections ≡ s (mod 5).
	s := (i / 2) % 300
	rule := registrarEnrol(s, (s+1)%15)
	if i%2 == 1 {
		rule = "  not " + strings.TrimPrefix(rule, "  ")
	}
	if _, err := db.Exec("mode ridv.\nrules\n" + rule + "end.\n"); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkFactSetCloneWriteOne clones the registrar preload's E and adds
// one enrolment to the clone: the copy an update program takes of its
// input. Only the written predicate is copied, so the cost does not
// scale with E.
func BenchmarkFactSetCloneWriteOne(b *testing.B) {
	e := registrarPreload(b, registrarSchema, 1).snap.Load().st.E
	f := freshEnrolment(b, e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Clone().Add(f) {
			b.Fatal("the clone already held the enrolment")
		}
	}
}

// freshEnrolment returns an enrolled fact that e lacks: the first
// enrolment's student in another enrolment's section.
func freshEnrolment(b *testing.B, e *engine.FactSet) engine.Fact {
	enrolled := e.Facts("enrolled")
	for _, other := range enrolled {
		section, _ := other.Tuple.Get("section")
		f := engine.Fact{Pred: "enrolled", Tuple: enrolled[0].Tuple.With("section", section)}
		if !e.Has(f) {
			return f
		}
	}
	b.Fatal("the first student is enrolled in every section")
	return engine.Fact{}
}

// BenchmarkExecContended runs one-fact Exec modules from two goroutines
// over 8 shared predicates (64 values each, so the state stops growing)
// and reports the conflict retries per module. Any error fails it: under
// contention the retry budget's locked last attempt must land every
// module.
func BenchmarkExecContended(b *testing.B) {
	const preds = 8
	var schema strings.Builder
	schema.WriteString("associations\n")
	for p := 0; p < preds; p++ {
		fmt.Fprintf(&schema, "  C%d = (x: integer);\n", p)
	}
	m := NewMetrics()
	db, err := Open(schema.String(), WithMetrics(m))
	if err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
				if _, err := db.Exec(fmt.Sprintf("mode ridv.\nrules\n  c%d(x: %d).\nend.\n", i%preds, i%64)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	b.ReportMetric(float64(m.Counter("logres_module_retries_total").Value())/float64(b.N), "retries/op")
}

// BenchmarkQueryClosureShape is the gated benchmark's closure_batch
// workload through the public read path: goal queries against a
// default-option database over the closure shape (64-node chain), each
// a from-scratch derivation of the instance — compile, fixpoint, goal.
func BenchmarkQueryClosureShape(b *testing.B) {
	benchmarkGoals(b, closureShapeSchema, closureShapeModules(64), []string{
		"?- tc(src: 0, dst: X).",
		"?- sg(a: 5, b: X).",
		"?- unreach(a: 16, b: X).",
		"?- origin(self: S, id: 3).",
	})
}

// BenchmarkQueryClosureShapeNoOrigin is BenchmarkQueryClosureShape
// without the rule that invents ORIGIN objects: the generated isa step
// vertex(X) <- origin(X) then sits on the dependency graph's first level
// beside tc and sg, and runs as a stratum of its own after them, so they
// keep the columnar kernels. Held as one stratum, the level stepped row
// by row and a goal took about 200 times as long.
func BenchmarkQueryClosureShapeNoOrigin(b *testing.B) {
	benchmarkGoals(b, closureShapeSchema, closureShapeNoOriginModules(64), []string{
		"?- tc(src: 0, dst: X).",
		"?- sg(a: 5, b: X).",
		"?- unreach(a: 16, b: X).",
	})
}

// BenchmarkQueryNonlinearClosure is goal queries over a non-linear
// closure, reach(s: X, d: Z) <- reach(s: X, d: Y), reach(s: Y, d: Z), on
// a 48-link chain with shortcuts: one columnar stratum whose recursive
// rule reads its own head at a position that is not the delta. Each
// round's delta pass probes the index that step keeps over REACH, which
// the rows the previous round derived extend.
func BenchmarkQueryNonlinearClosure(b *testing.B) {
	var links strings.Builder
	links.WriteString("mode ridv.\nrules\n")
	for i := 0; i < 48; i++ {
		fmt.Fprintf(&links, "  link(s: %d, d: %d).\n", i, i+1)
		if i%4 == 0 {
			fmt.Fprintf(&links, "  link(s: %d, d: %d).\n", i, i+3)
		}
	}
	links.WriteString("end.\n")
	benchmarkGoals(b, `
associations
  LINK = (s: integer, d: integer);
  REACH = (s: integer, d: integer);
`, []string{links.String(), `
mode radi.
rules
  reach(s: X, d: Y) <- link(s: X, d: Y).
  reach(s: X, d: Z) <- reach(s: X, d: Y), reach(s: Y, d: Z).
end.
`}, []string{
		"?- reach(s: 0, d: X).",
		"?- reach(s: X, d: 48).",
	})
}

// benchmarkGoals runs the goals in turn against a default-option
// database over schema that the modules built, each goal a from-scratch
// derivation.
func benchmarkGoals(b *testing.B, schema string, modules, goals []string) {
	db, err := Open(schema)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range modules {
		if _, err := db.Exec(m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := db.Query(goals[i%len(goals)])
		if err != nil {
			b.Fatal(err)
		}
		if len(ans.Rows) == 0 {
			b.Fatalf("%s: no answer", goals[i%len(goals)])
		}
	}
}

// BenchmarkSerialExecDurable is one-fact Exec commits, one at a time, on a
// durable database (FsyncOff, compaction disabled) over a fixed 200-fact
// preload: each RIDV insert is followed by the RDDV delete of the same
// fact, so every commit changes the state and the state stays the
// preload. It reports the WAL bytes each commit appends: a data-variant
// commit logs its fact delta, not the whole state.
func BenchmarkSerialExecDurable(b *testing.B) {
	db, _, err := OpenDurable(durableSchema, Durability{Dir: b.TempDir(), Fsync: FsyncOff, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	var preload strings.Builder
	preload.WriteString("mode ridv.\nrules\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&preload, "  q0(x: %d).\n", i)
	}
	preload.WriteString("end.\n")
	if _, err := db.Exec(preload.String()); err != nil {
		b.Fatal(err)
	}
	before, _ := db.Durability()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := durableMod("q1", i/2)
		if i%2 == 1 {
			src = strings.Replace(src, "ridv", "rddv", 1)
		}
		if _, err := db.Exec(src); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after, _ := db.Durability()
	b.ReportMetric(float64(after.WALBytes-before.WALBytes)/float64(b.N), "wal_bytes/op")
}

// ivmChainSchema and ivmChainRules are the gated benchmark's monitor_ivm
// program: a maintained transitive closure (DRed).
const ivmChainSchema = `
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`

const ivmChainRules = `mode radi.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
end.
`

const ivmChainWindow = 96

// ivmChainEdges is monitor_ivm's base graph: a chain over nodes
// 0..ivmChainWindow plus ivmChainWindow/2 forward shortcuts, and one more
// shortcut, planted a quarter of the window in from each end, for the
// unshort commit to delete (the last of edges, and planted). mirror
// renumbers node i as ivmChainWindow−i.
func ivmChainEdges(mirror bool) (edges [][2]int, planted [2]int) {
	r := rand.New(rand.NewSource(1))
	num := func(i int) int {
		if mirror {
			return ivmChainWindow - i
		}
		return i
	}
	short := map[[2]int]bool{}
	for i := 0; i < ivmChainWindow; i++ {
		edges = append(edges, [2]int{num(i), num(i + 1)})
	}
	for len(short) < ivmChainWindow/2 {
		a := r.Intn(ivmChainWindow - 1)
		e := [2]int{a, a + 2 + r.Intn(ivmChainWindow-a-1)}
		if !short[e] {
			short[e] = true
			edges = append(edges, [2]int{num(e[0]), num(e[1])})
		}
	}
	planted = [2]int{ivmChainWindow / 4, ivmChainWindow - ivmChainWindow/4}
	for short[planted] {
		planted[1]--
	}
	planted = [2]int{num(planted[0]), num(planted[1])}
	return append(edges, planted), planted
}

// ivmEdgeModule inserts (mode ridv) the given edges, or deletes them
// (del).
func ivmEdgeModule(del bool, edges ...[2]int) string {
	var sb strings.Builder
	sb.WriteString("mode ridv.\nrules\n")
	for _, e := range edges {
		if del {
			fmt.Fprintf(&sb, "  not edge(src: %d, dst: %d) <- edge(src: %d, dst: %d).\n", e[0], e[1], e[0], e[1])
		} else {
			fmt.Fprintf(&sb, "  edge(src: %d, dst: %d).\n", e[0], e[1])
		}
	}
	sb.WriteString("end.\n")
	return sb.String()
}

// ivmChainOpen opens an incremental database (unless options say
// otherwise) holding edges and the closure rules.
func ivmChainOpen(tb testing.TB, edges [][2]int, options ...Option) *Database {
	db, err := Open(ivmChainSchema, append([]Option{WithIncremental(true)}, options...)...)
	if err != nil {
		tb.Fatal(err)
	}
	for _, m := range []string{ivmEdgeModule(false, edges...), ivmChainRules} {
		if _, err := db.Exec(m); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// ivmChainCommits are the commit kinds of monitor_ivm, each with the
// commit that undoes it: a frontier edge past the window's end, a
// shortcut that derives nothing new, the deletion of the tail node's
// out-edges, and the deletion of the planted shortcut (on both
// numberings of the chain).
func ivmChainCommits() []struct {
	name     string
	edges    [][2]int
	do, undo string
} {
	edges, planted := ivmChainEdges(false)
	mirrored, mirPlanted := ivmChainEdges(true)
	var tail [][2]int
	for _, e := range edges {
		if e[0] == 0 {
			tail = append(tail, e)
		}
	}
	frontier := [2]int{ivmChainWindow, ivmChainWindow + 1}
	// The shortcut nearest the window's end that is not an edge yet.
	present := map[[2]int]bool{}
	for _, e := range edges {
		present[e] = true
	}
	shortcut := [2]int{ivmChainWindow - 2, ivmChainWindow}
	for present[shortcut] {
		shortcut[0]--
	}
	return []struct {
		name     string
		edges    [][2]int
		do, undo string
	}{
		{"frontier", edges, ivmEdgeModule(false, frontier), ivmEdgeModule(true, frontier)},
		{"shortcut", edges, ivmEdgeModule(false, shortcut), ivmEdgeModule(true, shortcut)},
		{"tail", edges, "mode ridv.\nrules\n  not edge(src: 0, dst: Y) <- edge(src: 0, dst: Y).\nend.\n", ivmEdgeModule(false, tail...)},
		{"unshort", edges, ivmEdgeModule(true, planted), ivmEdgeModule(false, planted)},
		{"unshort/descending", mirrored, ivmEdgeModule(true, mirPlanted), ivmEdgeModule(false, mirPlanted)},
	}
}

// ivmCountSchema and ivmCountRules are a non-recursive maintained
// stratum: the two-hop paths, each with one derivation per middle node.
const ivmCountSchema = `
associations
  EDGE = (src: integer, dst: integer);
  HOP = (src: integer, dst: integer);
`

const ivmCountRules = `mode radi.
rules
  hop(src: X, dst: Z) <- edge(src: X, dst: Y), edge(src: Y, dst: Z).
end.
`

// BenchmarkIVMChainCommit is one commit of each monitor_ivm kind against
// a WithIncremental database over monitor_ivm's graph: propagation by
// DRed, the audit of the view delta, the commit. Each timed commit is
// undone outside the timer, so every one starts from the same state.
// unshort/descending mirrors the node ids, so the closure's key order
// runs against the chain. count is the frontier commit over a
// non-recursive stratum instead (ivmCountRules), on 28 copies of the
// graph (4,060 edges), so that the stratum is large beside the commit,
// and uncount deletes that frontier edge again over the same stratum.
// rebuild is no commit: it builds a maintainer over monitor_ivm's state
// (NewMaintainer), the rebuild a rule change or a failed propagation
// runs.
func BenchmarkIVMChainCommit(b *testing.B) {
	run := func(b *testing.B, db *Database, do, undo string) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(do); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if _, err := db.Exec(undo); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	for _, c := range ivmChainCommits() {
		b.Run(c.name, func(b *testing.B) { run(b, ivmChainOpen(b, c.edges), c.do, c.undo) })
	}
	frontier := [2]int{ivmChainWindow, ivmChainWindow + 1}
	insert, remove := ivmEdgeModule(false, frontier), ivmEdgeModule(true, frontier)
	countOpen := func(b *testing.B, setup ...string) *Database {
		db, err := Open(ivmCountSchema, WithIncremental(true))
		if err != nil {
			b.Fatal(err)
		}
		edges, _ := ivmChainEdges(false)
		for _, m := range append([]string{ivmEdgeModule(false, ivmChainCopies(edges, 28)...), ivmCountRules}, setup...) {
			if _, err := db.Exec(m); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	// A rule change over the chain, and its undo: under WithIncremental
	// the attempt builds the successor maintainer; rulechange-scratch is
	// the same shape without maintenance.
	const selfLoop = "  tc(src: X, dst: X) <- edge(src: X, dst: Y).\nend.\n"
	for _, c := range []struct {
		name        string
		incremental bool
	}{{"rulechange", true}, {"rulechange-scratch", false}} {
		b.Run(c.name, func(b *testing.B) {
			edges, _ := ivmChainEdges(false)
			db := ivmChainOpen(b, edges, WithIncremental(c.incremental))
			run(b, db, "mode radi.\nrules\n"+selfLoop, "mode rddi.\nrules\n"+selfLoop)
		})
	}
	b.Run("count", func(b *testing.B) { run(b, countOpen(b), insert, remove) })
	b.Run("uncount", func(b *testing.B) { run(b, countOpen(b, insert), remove, insert) })
	b.Run("rebuild", func(b *testing.B) {
		edges, _ := ivmChainEdges(false)
		db := ivmChainOpen(b, edges)
		st := db.snap.Load().st
		prog, err := st.Program(maintOptions(db.opts))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.NewMaintainer(prog, st.E, st.Counter); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// commitPaths counts the commits that took the merge path and the
// retries, the work a second writer makes maintenance redo.
type commitPaths struct{ commits, merges, retries atomic.Int64 }

func (c *commitPaths) Event(ev TraceEvent) {
	switch ev.Kind {
	case obs.KindModuleCommit:
		c.commits.Add(1)
		if ev.Detail == "merge" {
			c.merges.Add(1)
		}
	case obs.KindModuleRetry:
		c.retries.Add(1)
	}
}

// BenchmarkIVMTwoWriters is two clients of one WithIncremental database,
// each inserting and deleting again an edge past the end of its own
// maintained closure (twoWriterSchema's tc1 and tc2, over 32-node
// chains). Each attempt steps the maintainer of its snapshot; a commit
// that merges propagates again, and a retry steps again. It reports the
// retries per operation and the share of commits that merged.
func BenchmarkIVMTwoWriters(b *testing.B) {
	db, err := Open(twoWriterSchema, WithIncremental(true), WithMaxRetries(1000))
	if err != nil {
		b.Fatal(err)
	}
	var chains strings.Builder
	chains.WriteString("mode ridv.\nrules\n")
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&chains, "  edge1(src: %d, dst: %d). edge2(src: %d, dst: %d).\n", i, i+1, i, i+1)
	}
	chains.WriteString("end.\n")
	for _, src := range []string{chains.String(), twoWriterPrograms[0].rules} {
		if _, err := db.Exec(src); err != nil {
			b.Fatal(err)
		}
	}
	paths := &commitPaths{}
	db.SetTracer(paths)
	var next atomic.Int64
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 1; w <= 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			insert := fmt.Sprintf("mode ridv.\nrules\n  edge%d(src: 32, dst: 33).\nend.\n", w)
			remove := fmt.Sprintf("mode ridv.\nrules\n  not edge%d(src: 32, dst: 33) <- edge%d(src: 32, dst: 33).\nend.\n", w, w)
			for k := 0; next.Add(1) <= int64(b.N); k++ {
				src := insert
				if k%2 == 1 {
					src = remove
				}
				if _, err := db.Exec(src); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	b.ReportMetric(float64(paths.retries.Load())/float64(b.N), "retries/op")
	b.ReportMetric(float64(paths.merges.Load())/float64(paths.commits.Load()), "merge-share")
}
