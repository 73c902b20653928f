package logres

// The benchmark harness: one testing.B family per experiment E1–E9, E11
// and E14 of EXPERIMENTS.md, plus in-process shapes of the gated
// workloads under benchmark/ (registrar commits, contended concurrent
// commits, the closure_batch read path, durable serial commits), which
// measure the end-to-end experiments. Run with:
//
//	go test -bench=. -benchmem
//
// The paper (SIGMOD 1990) contains no quantitative tables; these
// experiments characterize the system the paper describes and the
// ablations DESIGN.md calls out.

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"logres/internal/ast"
	"logres/internal/bench"
	"logres/internal/engine"
	"logres/internal/obs"
)

// E1 — transitive closure: LOGRES naive vs semi-naive, over chains.
func BenchmarkE1_TC_LogresSemiNaive(b *testing.B) { benchE1Logres(b, true) }
func BenchmarkE1_TC_LogresNaive(b *testing.B)     { benchE1Logres(b, false) }

func benchE1Logres(b *testing.B, semi bool) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, err := bench.NewLogresTC(bench.Chain(n), semi)
			if err != nil {
				b.Fatal(err)
			}
			want := n * (n + 1) / 2
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("tc = %d, want %d", got, want)
				}
			}
		})
	}
}

// E2 — same generation (nonlinear recursion) over balanced trees.
func BenchmarkE2_SameGeneration(b *testing.B) {
	for _, depth := range []int{3, 5} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s, err := bench.NewLogresSG(bench.Tree(2, depth), true)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.RunSG(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E3 — oid invention throughput vs plain derivation.
func BenchmarkE3_Invention(b *testing.B) {
	for _, invent := range []bool{true, false} {
		name := "invent"
		pred := "item"
		if !invent {
			name = "derive"
			pred = "flat"
		}
		for _, n := range []int{100, 1000} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				s, err := bench.NewInvention(n, invent)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					got, err := s.Run(pred)
					if err != nil {
						b.Fatal(err)
					}
					if got != n {
						b.Fatalf("%s = %d", pred, got)
					}
				}
			})
		}
	}
}

// E4 — isa-propagation overhead: hierarchy depth sweep.
func BenchmarkE4_IsaPropagation(b *testing.B) {
	for _, depth := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s, leaf, err := bench.NewIsaChain(depth, 200)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := s.Run(leaf)
				if err != nil {
					b.Fatal(err)
				}
				if got != 200 {
					b.Fatalf("leaf = %d", got)
				}
			}
		})
	}
}

// E5 — powerset (Example 3.3): built-in heavy, exponential output.
func BenchmarkE5_Powerset(b *testing.B) {
	for _, d := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			s, err := bench.NewPowerset(d)
			if err != nil {
				b.Fatal(err)
			}
			want := 1 << d
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("power = %d", got)
				}
			}
		})
	}
}

// E6 — module application modes over the same update.
func BenchmarkE6_ModuleModes(b *testing.B) {
	for _, mode := range []ast.Mode{ast.RIDI, ast.RADI, ast.RIDV, ast.RADV} {
		b.Run(mode.String(), func(b *testing.B) {
			s, err := bench.NewModeWorkload(200, mode)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				if got != 200 {
					b.Fatalf("copyrel = %d", got)
				}
			}
		})
	}
}

// E7 — stratified vs whole-program inflationary negation.
func BenchmarkE7_Negation(b *testing.B) {
	for _, strat := range []bool{true, false} {
		name := "stratified"
		if !strat {
			name = "inflationary"
		}
		b.Run(name, func(b *testing.B) {
			s, err := bench.NewWinLose(bench.Chain(128), strat)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.RunPred("unreach"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E8 — data-function nesting (descendants per person).
func BenchmarkE8_DataFunctions(b *testing.B) {
	for _, depth := range []int{4, 6} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s, err := bench.NewDescendants(bench.Tree(2, depth))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.RunPred("ancestor"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E9 — snapshot codec.
func BenchmarkE9_SnapshotEncode(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, err := bench.NewSnapshot(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Encode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE9_SnapshotDecode(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, err := bench.NewSnapshot(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E11 — rule semantics: inflationary vs non-inflationary on the same
// closure workload (§1: rules are parametric in their semantics).
func BenchmarkE11_Semantics(b *testing.B) {
	for _, nonInf := range []bool{false, true} {
		name := "inflationary"
		if nonInf {
			name = "noninflationary"
		}
		b.Run(name, func(b *testing.B) {
			s, err := bench.NewLogresTCSemantics(bench.Chain(32), nonInf)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				if got != 32*33/2 {
					b.Fatalf("tc = %d", got)
				}
			}
		})
	}
}

// E14 — tracer overhead: the same chain closure untraced (the nil-check
// fast path), under a JSONL tracer writing to io.Discard, and under the
// metrics adapter. EXPERIMENTS.md records the measured gap; the
// untraced variant must stay within noise of a build without the
// tracing hooks at all.
func BenchmarkE14_TracerOverhead(b *testing.B) {
	variants := []struct {
		name   string
		tracer obs.Tracer
	}{
		{"off", nil},
		{"jsonl", obs.NewJSONL(io.Discard)},
		{"metrics", obs.NewMetrics().Tracer()},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			s, err := bench.NewLogresTC(bench.Chain(128), true)
			if err != nil {
				b.Fatal(err)
			}
			s.Program.SetTracer(v.tracer)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				if got != 128*129/2 {
					b.Fatalf("tc = %d", got)
				}
			}
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

// registrarPreload opens a scratch database holding the case study at
// scale times the gated benchmark's registrar_http size: 300 students, 5
// instructors and 15×scale sections, instructor t teaching the sections
// ≡ t (mod 5). Each student is enrolled in every section of one
// instructor (3×scale enrolments, by one rule) and has three marks, under
// the one-mark-per-course denial. Scale 1 is registrar_http's preload.
func registrarPreload(tb testing.TB, scale int) *Database {
	const students, instructors, baseSections = 300, 5, 15
	sections := baseSections * scale
	db, err := Open(registrarSchema)
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
// ExecConcurrent against the registrar preload on a scratch database:
// the write path of the gated benchmark's registrar_http workload
// without HTTP — apply, derive, audit the delta, commit.
func BenchmarkRegistrarEnrolCommit(b *testing.B) {
	db := registrarPreload(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ExecConcurrent("mode ridv.\nrules\n" + registrarEnrol(i%300, (i/300+1)%15) + "end.\n"); err != nil {
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
			db := registrarPreload(b, scale)
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
	if _, err := db.ExecConcurrent("mode ridv.\nrules\n" + rule + "end.\n"); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkFactSetCloneWriteOne clones the registrar preload's E and adds
// one enrolment to the clone: the copy an update program takes of its
// input. Only the written predicate is copied, so the cost does not
// scale with E.
func BenchmarkFactSetCloneWriteOne(b *testing.B) {
	e := registrarPreload(b, 1).st.E
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

// BenchmarkExecConcurrentContended runs one-fact ExecConcurrent modules
// from two goroutines over 8 shared predicates (64 values each, so the
// state stops growing) and reports the conflict retries per module. Any error fails it: under contention the retry
// budget's locked last attempt must land every module.
func BenchmarkExecConcurrentContended(b *testing.B) {
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
				if _, err := db.ExecConcurrent(fmt.Sprintf("mode ridv.\nrules\n  c%d(x: %d).\nend.\n", i%preds, i%64)); err != nil {
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
	db, err := Open(closureShapeSchema)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range closureShapeModules(64) {
		if _, err := db.Exec(m); err != nil {
			b.Fatal(err)
		}
	}
	goals := []string{
		"?- tc(src: 0, dst: X).",
		"?- sg(a: 5, b: X).",
		"?- unreach(a: 16, b: X).",
		"?- origin(self: S, id: 3).",
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

// BenchmarkSerialExecDurable is one-fact serial Exec commits on a
// durable database (FsyncOff, compaction disabled) over a fixed 200-fact
// preload: each RIDV insert is followed by the RDDV delete of the same
// fact, so every commit changes the state and the state stays the
// preload. It reports the WAL bytes each commit appends: a serial
// data-variant commit logs its fact delta, not the whole state.
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
