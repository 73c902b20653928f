package logres

import (
	"runtime"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// allocsToolchain is the toolchain the allocation pin below was measured
// with; another toolchain allocates differently, so the pin skips there.
const allocsToolchain = "go1.24"

// One enrol/drop commit of BenchmarkRegistrarEnrolDrop (registrar_http's
// preload, Exec) allocates at most maxAllocs. Publishing the new
// E builds no index; the label indexes the commit probed were kept up to
// date by its writes. Building every bucket at publish cost about 3 400
// allocations per commit. 242 measured, plus about 10 %: the commit
// compiles only its update rule, over the isa steps the state's program
// holds, and runs the program the state carries (523 when it compiled
// both programs from scratch and validated S again), and its matcher
// binds in place (250 when it copied the environment per candidate).
func TestRegistrarEnrolDropAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not compared under -race")
	}
	if v := runtime.Version(); v != allocsToolchain && !strings.HasPrefix(v, allocsToolchain+".") {
		t.Skipf("allocation counts are pinned for %s, not compared under %s", allocsToolchain, v)
	}
	const maxAllocs = 265
	db := registrarPreload(t, registrarSchema, 1)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		registrarEnrolDrop(t, db, i)
		i++
	})
	if allocs > maxAllocs {
		t.Fatalf("%.0f allocations per enrol/drop commit, want at most %d", allocs, maxAllocs)
	}
	t.Logf("%.0f allocations per enrol/drop commit (at most %d)", allocs, maxAllocs)
}

// One goal of BenchmarkQueryClosureShape — compile, fixpoint over the
// 64-node closure shape, answer — allocates at most maxAllocs on
// average over its four goals: 2 382 measured, plus about 10 %. A
// columnar head's duplicate filter is a bitmap over the run's codes
// where they are few enough; the growing hash set it was cost 2 440
// allocations per goal. A kernel step that reads a predicate whole
// probes a flat hash index it keeps for the evaluation; a join that
// built a map of slices per pass cost 6 984. Columnar heads reach the fact set in
// code space, and a read that fixes an argument decodes only the rows
// it matches; decoding the whole predicate on such a read cost 9 106
// allocations per goal, and decoding every head at its stratum's
// fixpoint 19 810. The row strata and the goal bind in place; copying
// the environment per candidate fact cost 7 243.
func TestQueryClosureShapeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not compared under -race")
	}
	if v := runtime.Version(); v != allocsToolchain && !strings.HasPrefix(v, allocsToolchain+".") {
		t.Skipf("allocation counts are pinned for %s, not compared under %s", allocsToolchain, v)
	}
	const maxAllocs = 2620
	db, err := Open(closureShapeSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range closureShapeModules(64) {
		if _, err := db.Exec(m); err != nil {
			t.Fatal(err)
		}
	}
	goals := []string{
		"?- tc(src: 0, dst: X).",
		"?- sg(a: 5, b: X).",
		"?- unreach(a: 16, b: X).",
		"?- origin(self: S, id: 3).",
	}
	i := 0
	allocs := testing.AllocsPerRun(4*25, func() {
		ans, err := db.Query(goals[i%len(goals)])
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Rows) == 0 {
			t.Fatalf("%s: no answer", goals[i%len(goals)])
		}
		i++
	})
	if allocs > maxAllocs {
		t.Fatalf("%.0f allocations per closure-shape goal, want at most %d", allocs, maxAllocs)
	}
	t.Logf("%.0f allocations per closure-shape goal (at most %d)", allocs, maxAllocs)
}

// One report of BenchmarkRegistrarReport (registrar_http's transcript
// report: a RIDI module with two rules and a goal, Exec against the
// preload) allocates at most maxAllocs: 1 398 measured, plus about 10 %.
// No persistent rule reads what its rules write, so the report audits
// only what they add: the one transcript tuple, and no denial, since the
// one denial reads mark. Until the RIDI audit was narrowed, the report ran
// the full Definition 4 audit over the whole derived registrar (300
// students, 5 instructors, 15 sections, about 2 100 association tuples):
// 1 417 allocations with the check Validate compiles for the schema,
// 30 851 when it converted the set to an instance, projected each o-value
// and expanded each type per tuple.
func TestRegistrarReportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not compared under -race")
	}
	if v := runtime.Version(); v != allocsToolchain && !strings.HasPrefix(v, allocsToolchain+".") {
		t.Skipf("allocation counts are pinned for %s, not compared under %s", allocsToolchain, v)
	}
	const maxAllocs = 1540
	db := registrarPreload(t, registrarReportSchema, 1)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		registrarReport(t, db, i)
		i++
	})
	if allocs > maxAllocs {
		t.Fatalf("%.0f allocations per report, want at most %d", allocs, maxAllocs)
	}
	t.Logf("%.0f allocations per report (at most %d)", allocs, maxAllocs)
}

// One report of BenchmarkRegistrarReport allocates at most maxBytes:
// 188.8 kB measured, plus about 10 %. The audit of what its rules add
// allocates next to nothing; the full audit it ran before was 189.9 kB
// per report with the compiled check, 2.01 MB when it built the instance,
// projected and expanded per tuple (3.24 MB when the matcher also copied
// its environment per candidate fact).
func TestRegistrarReportBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocated bytes are not compared under -race")
	}
	if v := runtime.Version(); v != allocsToolchain && !strings.HasPrefix(v, allocsToolchain+".") {
		t.Skipf("allocated bytes are pinned for %s, not compared under %s", allocsToolchain, v)
	}
	const maxBytes = 208_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	db := registrarPreload(t, registrarReportSchema, 1)
	registrarReport(t, db, 0) // warm up
	const runs = 40
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 1; i <= runs; i++ {
		registrarReport(t, db, i)
	}
	runtime.ReadMemStats(&ms)
	bytes := (ms.TotalAlloc - before) / runs
	if bytes > maxBytes {
		t.Fatalf("%d bytes per report, want at most %d", bytes, maxBytes)
	}
	t.Logf("%d bytes per report (at most %d)", bytes, maxBytes)
}

// One unshort commit of BenchmarkIVMChainCommit — deleting the shortcut
// planted across monitor_ivm's maintained closure, on either numbering of
// the chain — allocates at most maxAllocs: 8 403 and 8 394 measured,
// plus about 10 %. DRed checks the 25 closure facts that lost a
// derivation through the shortcut, finds each still derivable through
// the chain without the 625 facts it over-estimated, and so over-deletes
// nothing; over-deleting all 625, probing each and restoring the rest by
// insertion cost about 42 500 allocations (43 700 on the mirrored chain).
// Building the overestimate and the checks bind in place; copying the
// environment per candidate fact cost 13 234 and 13 225.
func TestIVMUnshortAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not compared under -race")
	}
	if v := runtime.Version(); v != allocsToolchain && !strings.HasPrefix(v, allocsToolchain+".") {
		t.Skipf("allocation counts are pinned for %s, not compared under %s", allocsToolchain, v)
	}
	const maxAllocs = 9300
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range ivmChainCommits() {
		if !strings.HasPrefix(c.name, "unshort") {
			continue
		}
		db := ivmChainOpen(t, c.edges)
		const runs = 10
		var total uint64
		var ms runtime.MemStats
		for i := 0; i <= runs; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			if _, err := db.Exec(c.do); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			if i > 0 { // the first commit warms up
				total += ms.Mallocs - before
			}
			if _, err := db.Exec(c.undo); err != nil {
				t.Fatal(err)
			}
		}
		allocs := total / runs
		if allocs > maxAllocs {
			t.Fatalf("%s: %d allocations per commit, want at most %d", c.name, allocs, maxAllocs)
		}
		t.Logf("%s: %d allocations per commit (at most %d)", c.name, allocs, maxAllocs)
	}
}

// One enrol/drop commit of BenchmarkRegistrarEnrolDrop at x16 (the
// preload's 240 sections) allocates at most maxBytes: 31.8 kB measured,
// plus about 9 % (32.9 kB when the matcher copied its environment per
// candidate fact, 53.9 kB when each commit compiled both of its programs
// from scratch). The commit path-copies the few store and index nodes
// it writes, and the bucket it removes from; copying the written
// predicate's whole store made it 5.82 MB, and copying its view on the
// first write after a clone 3.20 MB, and both grew with |enrolled|.
func TestRegistrarEnrolDropBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocated bytes are not compared under -race")
	}
	if v := runtime.Version(); v != allocsToolchain && !strings.HasPrefix(v, allocsToolchain+".") {
		t.Skipf("allocated bytes are pinned for %s, not compared under %s", allocsToolchain, v)
	}
	const maxBytes = 34_700
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	db := registrarPreload(t, registrarSchema, 16)
	registrarEnrolDrop(t, db, 0) // warm up
	const runs = 40
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 1; i <= runs; i++ {
		registrarEnrolDrop(t, db, i)
	}
	runtime.ReadMemStats(&ms)
	bytes := (ms.TotalAlloc - before) / runs
	if bytes > maxBytes {
		t.Fatalf("%d bytes per x16 enrol/drop commit, want at most %d", bytes, maxBytes)
	}
	t.Logf("%d bytes per x16 enrol/drop commit (at most %d)", bytes, maxBytes)
}

// A maintained commit allocates bytes in proportion to what it changes,
// not to the closure it maintains: the frontier and tail commits of
// BenchmarkIVMChainCommit, run against four disjoint copies of
// monitor_ivm's graph, allocate less than maxGrowth times what they
// allocate against one. The commits touch one copy, so what they derive
// and retract is the same on both; only the closure (the tc predicate and
// its indexes) is four times larger: 1.16× (frontier) and 1.01× (tail)
// measured. Copying the written predicate's view on every commit made the
// bytes grow with the closure: 2.37× and 2.14×.
func TestIVMCommitBytesFlatInClosureSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocated bytes are not compared under -race")
	}
	if v := runtime.Version(); v != allocsToolchain && !strings.HasPrefix(v, allocsToolchain+".") {
		t.Skipf("allocated bytes are pinned for %s, not compared under %s", allocsToolchain, v)
	}
	const maxGrowth = 1.5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range ivmChainCommits() {
		if c.name != "frontier" && c.name != "tail" {
			continue
		}
		one := ivmCommitBytes(t, c.edges, c.do, c.undo)
		four := ivmCommitBytes(t, ivmChainCopies(c.edges, 4), c.do, c.undo)
		if growth := float64(four) / float64(one); growth >= maxGrowth {
			t.Fatalf("%s: %d bytes per commit over four copies of the graph, %d over one: %.2f×, want under %.1f×", c.name, four, one, growth, maxGrowth)
		}
		t.Logf("%s: %d bytes per commit over four copies of the graph, %d over one", c.name, four, one)
	}
}

// ivmChainCopies returns edges and n−1 copies of them, copy k over the
// nodes shifted by k·(ivmChainWindow+2), past the frontier node.
func ivmChainCopies(edges [][2]int, n int) [][2]int {
	out := append([][2]int(nil), edges...)
	for k := 1; k < n; k++ {
		shift := k * (ivmChainWindow + 2)
		for _, e := range edges {
			out = append(out, [2]int{e[0] + shift, e[1] + shift})
		}
	}
	return out
}

// ivmCommitBytes returns the bytes one commit of do allocates on an
// incremental database over edges, averaged over ten commits after a
// warm-up, each undone outside the measurement.
func ivmCommitBytes(t *testing.T, edges [][2]int, do, undo string) uint64 {
	t.Helper()
	db := ivmChainOpen(t, edges)
	const runs = 10
	var total uint64
	var ms runtime.MemStats
	for i := 0; i <= runs; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := db.Exec(do); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if i > 0 { // the first commit warms up
			total += ms.TotalAlloc - before
		}
		if _, err := db.Exec(undo); err != nil {
			t.Fatal(err)
		}
	}
	return total / runs
}
