package engine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"logres/internal/colset"
	"logres/internal/obs"
	"logres/internal/parser"
	"logres/internal/value"
)

// The program behind the code-space differential: a closure whose head
// is also partly extensional.
const codedSchema = `
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`

const codedRules = `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
`

func tcFact(fields ...value.Field) Fact { return Fact{Pred: "tc", Tuple: value.NewTuple(fields...)} }

func intField(label string, v int) value.Field {
	return value.Field{Label: label, Value: value.Int(int64(v))}
}

// codedEDB is a random graph over six nodes plus base facts of the head
// tc: one the rules derive too, a non-canonical one (its labels out of
// declaration order), one null-filled (no dst) and one with a label
// outside the effective tuple.
func codedEDB(r *rand.Rand) *FactSet {
	fs := NewFactSet()
	for i := 0; i < 9; i++ {
		fs.Add(edgeFact(r.Intn(6), r.Intn(6)))
	}
	fs.Add(edgeFact(0, 1))
	fs.Add(tcFact(intField("src", 0), intField("dst", 1)))
	fs.Add(tcFact(intField("dst", 2), intField("src", 0)))
	fs.Add(tcFact(intField("src", 5)))
	fs.Add(tcFact(intField("src", 3), intField("dst", 4), intField("w", 9)))
	return fs
}

// codedPair is one fact set as a run leaves it, tc still in code space,
// beside the same set with every code-space predicate decoded at once.
type codedPair struct{ lazy, eager *FactSet }

// codedProbes are the values component probes use: every node and null.
var codedProbes = []value.Value{value.Int(0), value.Int(1), value.Int(2), value.Int(3), value.Int(4), value.Int(5), value.Null{}}

// codedLookupValues are the values fixed-argument lookups use: every
// node; null, which the run's dictionary holds (a base fact lacks dst)
// but no derived row does; and 77, which the dictionary lacks.
var codedLookupValues = append(slices.Clone(codedProbes), value.Int(77))

// checkCodedCounts compares the reads that never decode on every pair,
// and checks that a frozen set holds no code-space predicate.
func checkCodedCounts(t *testing.T, step int, pairs []*codedPair) {
	t.Helper()
	for i, pr := range pairs {
		for _, pred := range []string{"edge", "tc", "none"} {
			if a, b := pr.lazy.Size(pred), pr.eager.Size(pred); a != b {
				t.Fatalf("step %d, set %d: Size(%s) = %d, decoded %d", step, i, pred, a, b)
			}
			for oid := value.OID(0); oid < 3; oid++ {
				fa, oka := pr.lazy.HasOID(pred, oid)
				fb, okb := pr.eager.HasOID(pred, oid)
				if oka != okb || fa.Key() != fb.Key() {
					t.Fatalf("step %d, set %d: HasOID(%s, %d) differs", step, i, pred, oid)
				}
			}
		}
		if a, b := pr.lazy.TotalSize(), pr.eager.TotalSize(); a != b {
			t.Fatalf("step %d, set %d: TotalSize = %d, decoded %d", step, i, a, b)
		}
		if a, b := pr.lazy.Preds(), pr.eager.Preds(); !slices.Equal(a, b) {
			t.Fatalf("step %d, set %d: Preds = %v, decoded %v", step, i, a, b)
		}
		if a, b := pr.lazy.MaxOID(), pr.eager.MaxOID(); a != b {
			t.Fatalf("step %d, set %d: MaxOID = %d, decoded %d", step, i, a, b)
		}
		if pr.lazy.frozen != pr.eager.frozen {
			t.Fatalf("step %d, set %d: frozen %v, decoded %v", step, i, pr.lazy.frozen, pr.eager.frozen)
		}
		if pr.lazy.frozen && len(pr.lazy.coded) > 0 {
			t.Fatalf("step %d, set %d: a frozen set holds code-space rows of %d predicates", step, i, len(pr.lazy.coded))
		}
	}
}

// codedDifferential interprets ops as a sequence of steps over pairs of
// sets — reads that decode (Facts, DiffPred, Equal), reads that fix an
// argument and read code-space rows in code space (FactsByComponent,
// lookup, Has), Clone, Freeze and writes — applied alike to the
// set a run left tc in code space in and to the same set decoded
// eagerly. After every step the reads that never decode are compared on
// every pair. Facts is compared in order (strict key order), a component
// bucket as a set: bucket order carries no meaning.
func codedDifferential(t *testing.T, p *Program, seed int64, ops []byte) {
	t.Helper()
	edb := codedEDB(rand.New(rand.NewSource(seed)))
	edb.Freeze()
	run := func() *FactSet {
		counter := int64(0)
		f, err := p.Run(edb, &counter)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	lazy, eager := run(), run()
	if lazy.coded["tc"] == nil || lazy.preds["tc"].facts.Len() == 0 {
		t.Fatalf("seed %d: the run left no code-space tc over base facts", seed)
	}
	eager.decodeAll()
	// The input is a pair too: the run's result shares its stores.
	pairs := []*codedPair{{lazy, eager}, {edb.Clone(), edb.Clone()}}
	var probes []Fact
	for _, pred := range eager.Preds() {
		probes = append(probes, eager.Facts(pred)...)
	}
	probes = append(probes, edgeFact(5, 0), tcFact(intField("src", 4), intField("dst", 0)),
		tcFact(intField("src", 5)), tcFact(intField("dst", 1), intField("src", 4)))
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	checkCodedCounts(t, -1, pairs)
	for step := 0; len(ops) > 0; step++ {
		pr := pairs[next()%len(pairs)]
		other := pairs[next()%len(pairs)]
		pred := []string{"tc", "edge"}[next()%2]
		switch next() % 10 {
		case 0:
			if a, b := factKeys(pr.lazy.Facts(pred)), factKeys(pr.eager.Facts(pred)); !slices.Equal(a, b) {
				t.Fatalf("step %d: Facts(%s) = %v, decoded %v", step, pred, a, b)
			}
		case 1:
			label := []string{"src", "dst", "w"}[next()%3]
			v := codedProbes[next()%len(codedProbes)]
			a := factKeys(pr.lazy.FactsByComponent(pred, label, v))
			b := factKeys(pr.eager.FactsByComponent(pred, label, v))
			sort.Strings(a)
			sort.Strings(b)
			if !slices.Equal(a, b) {
				t.Fatalf("step %d: %s.%s = %v: %v, decoded %v", step, pred, label, v, a, b)
			}
			// lookup by that label, and by the whole key.
			for _, fixed := range [][]fixedArg{{{label: label, v: v}}, {{label: "dst", v: v}, {label: "src", v: v}}} {
				if a, b := lookupKeys(pr.lazy, pred, srcDst, fixed), lookupKeys(pr.eager, pred, srcDst, fixed); !slices.Equal(a, b) {
					t.Fatalf("step %d: lookup(%s, %v) = %v, decoded %v", step, pred, fixed, a, b)
				}
			}
		case 2:
			f := probes[next()%len(probes)]
			if a, b := pr.lazy.Has(f), pr.eager.Has(f); a != b {
				t.Fatalf("step %d: Has(%v) = %v, decoded %v", step, f, a, b)
			}
		case 3:
			adds, rems := pr.lazy.DiffPred(other.lazy, pred)
			wantAdds, wantRems := pr.eager.DiffPred(other.eager, pred)
			if !slices.Equal(factKeys(adds), factKeys(wantAdds)) || !slices.Equal(factKeys(rems), factKeys(wantRems)) {
				t.Fatalf("step %d: DiffPred(%s) = +%v -%v, decoded +%v -%v", step, pred, adds, rems, wantAdds, wantRems)
			}
		case 4:
			if a, b := pr.lazy.Equal(other.lazy), pr.eager.Equal(other.eager); a != b {
				t.Fatalf("step %d: Equal = %v, decoded %v", step, a, b)
			}
		case 5:
			pairs = append(pairs, &codedPair{pr.lazy.Clone(), pr.eager.Clone()})
		case 6:
			pr.lazy.Freeze()
			pr.eager.Freeze()
		case 7:
			pr.lazy, pr.eager = pr.lazy.Clone(), pr.eager.Clone()
		case 8:
			if pr.lazy.frozen {
				continue
			}
			f := probes[next()%len(probes)]
			if next()%2 == 0 {
				if a, b := pr.lazy.Add(f), pr.eager.Add(f); a != b {
					t.Fatalf("step %d: Add(%v) = %v, decoded %v", step, f, a, b)
				}
			} else if a, b := pr.lazy.Remove(f), pr.eager.Remove(f); a != b {
				t.Fatalf("step %d: Remove(%v) = %v, decoded %v", step, f, a, b)
			}
		case 9:
			// One label, several labels or the whole key (src and dst,
			// maybe w besides), fixed to values the rows hold, the
			// dictionary holds but the rows do not, or the dictionary
			// lacks: read in code space, they decode nothing.
			fixed := make([]fixedArg, 1+next()%3)
			for k := range fixed {
				fixed[k] = fixedArg{label: []string{"src", "dst", "w"}[next()%3], v: codedLookupValues[next()%len(codedLookupValues)]}
			}
			decodes, coded := pr.lazy.decodes, pr.lazy.coded[pred]
			if a, b := lookupKeys(pr.lazy, pred, srcDst, fixed), lookupKeys(pr.eager, pred, srcDst, fixed); !slices.Equal(a, b) {
				t.Fatalf("step %d: lookup(%s, %v) = %v, decoded %v", step, pred, fixed, a, b)
			}
			var fields []value.Field
			for _, a := range fixed {
				if !slices.ContainsFunc(fields, func(f value.Field) bool { return f.Label == a.label }) {
					fields = append(fields, value.Field{Label: a.label, Value: a.v})
				}
			}
			f := Fact{Pred: pred, Tuple: value.NewTuple(fields...)}
			if a, b := pr.lazy.Has(f), pr.eager.Has(f); a != b {
				t.Fatalf("step %d: Has(%v) = %v, decoded %v", step, f, a, b)
			}
			if pr.lazy.decodes != decodes || pr.lazy.coded[pred] != coded {
				t.Fatalf("step %d: a lookup of %s decoded it", step, pred)
			}
		}
		checkCodedCounts(t, step, pairs)
	}
	for i, pr := range pairs {
		a := ToInstance(pr.lazy, p.schema, 0).String()
		if b := ToInstance(pr.eager, p.schema, 0).String(); a != b {
			t.Fatalf("set %d: ToInstance differs:\n%s\ndecoded:\n%s", i, a, b)
		}
		if len(pr.lazy.coded) > 0 {
			t.Fatalf("set %d: ToInstance left %d predicates in code space", i, len(pr.lazy.coded))
		}
	}
}

func codedProgram(t testing.TB) *Program {
	p, err := tryBuild(codedSchema, codedRules, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Property: a predicate a columnar stratum hands over in code space, on
// top of base facts of the same predicate (the paper lets a predicate be
// partly extensional), reads exactly as if it had been decoded at once,
// through every accessor and across Clone, Freeze and writes.
func TestCodedPredicateDifferential(t *testing.T) {
	p := codedProgram(t)

	// Two owners of one store, each with its own code-space rows: as
	// many, but not the same.
	base := NewFactSet()
	base.Add(tcFact(intField("src", 0), intField("dst", 1)))
	a, b := base.Clone(), base.Clone()
	dict := colset.NewDict()
	for i, fs := range []*FactSet{a, b} {
		batch := colset.NewBatch(2)
		batch.AppendRow([]uint32{dict.Code(value.Int(0)), dict.Code(value.Int(1))})
		batch.AppendRow([]uint32{dict.Code(value.Int(int64(i))), dict.Code(value.Int(7))})
		fs.setCoded("tc", &codedPred{dict: dict, labels: []string{"src", "dst"}, batch: batch, base: 1})
	}
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("sets with different code-space rows over one store are Equal")
	}
	if adds, rems := a.DiffPred(b, "tc"); len(adds) != 1 || len(rems) != 1 {
		t.Fatalf("DiffPred = +%v -%v, want one each", adds, rems)
	}
	r := rand.New(rand.NewSource(37))
	for seed := int64(0); seed < 60; seed++ {
		ops := make([]byte, 40+r.Intn(160))
		r.Read(ops)
		codedDifferential(t, p, seed, ops)
	}

	// Eight readers of a frozen result the run left partly in code space.
	frozen, want := func() (*FactSet, *FactSet) {
		counter := int64(0)
		edb := codedEDB(rand.New(rand.NewSource(1)))
		a, err := p.Run(edb, &counter)
		if err != nil {
			t.Fatal(err)
		}
		counter = 0
		b, err := p.Run(edb, &counter)
		if err != nil {
			t.Fatal(err)
		}
		b.decodeAll()
		a.Freeze()
		return a, b
	}()
	type probe struct {
		pred, label string
		v           value.Value
	}
	var probes []probe
	var wants [][]string
	for _, pred := range []string{"tc", "edge"} {
		for _, label := range []string{"src", "dst", "w"} {
			for _, v := range codedProbes {
				probes = append(probes, probe{pred, label, v})
				keys := factKeys(want.FactsByComponent(pred, label, v))
				sort.Strings(keys)
				wants = append(wants, keys)
			}
		}
	}
	wantTC, wantEdge := factKeys(want.Facts("tc")), factKeys(want.Facts("edge"))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range probes {
				pb := probes[(i+g)%len(probes)]
				got := factKeys(frozen.FactsByComponent(pb.pred, pb.label, pb.v))
				sort.Strings(got)
				if !slices.Equal(got, wants[(i+g)%len(probes)]) {
					errs <- fmt.Errorf("reader %d: %s.%s = %v: %v", g, pb.pred, pb.label, pb.v, got)
					return
				}
			}
			if !slices.Equal(factKeys(frozen.Facts("tc")), wantTC) || !slices.Equal(factKeys(frozen.Facts("edge")), wantEdge) {
				errs <- fmt.Errorf("reader %d: Facts differ", g)
				return
			}
			if frozen.Size("tc") != want.Size("tc") || !frozen.Has(want.Facts("tc")[0]) {
				errs <- fmt.Errorf("reader %d: Size or Has differs", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzCodedPredicate is TestCodedPredicateDifferential over arbitrary
// step sequences and graphs.
func FuzzCodedPredicate(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 5, 1, 0, 0, 8, 0, 0, 0, 0})
	f.Add(int64(2), []byte{0, 0, 0, 6, 0, 0, 0, 5, 1, 1, 0, 7, 1, 1, 1, 8, 3, 1, 0, 0, 1, 3})
	f.Add(int64(3), []byte{0, 0, 0, 5, 1, 0, 0, 4, 0, 1, 0, 3, 1, 0, 1, 2, 7})
	p := codedProgram(f)
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		codedDifferential(t, p, seed, ops)
	})
}

// canonicalTraceParent is the SHA-256 of the canonical JSONL trace of
// the closure shape (closureShapeEDB(64, 24, 1)) under the defaults.
// Handing heads over in code space, and reading them there, changes no
// event; the two one-step strata that reach their fixpoint in their
// first step run no round to confirm it, which moved the hash from
// e4b07721….
const canonicalTraceParent = "c42913063008ef3a446dc8516512e1831e5ca45a247c1b48848370d48d92f0a4"

// withoutExecutorLines drops the trace lines that name the executor:
// stratum.begin and vec.kernel.
func withoutExecutorLines(trace string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(trace, "\n") {
		if strings.Contains(line, `"kind":"`+string(obs.KindStratumBegin)+`"`) ||
			strings.Contains(line, `"kind":"`+string(obs.KindVecKernel)+`"`) {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// Columnar heads stay in code space until something walks them: after a
// closure-shape run none is decoded, although the row stratum after the
// columnar ones reads unreach with both arguments fixed; goals that fix
// an argument of tc or unreach decode nothing; a goal that fixes none
// decodes tc once; Freeze and ToInstance decode the rest. Counts,
// Firings, Steps, DeltaCurve and the canonical trace stay those of the
// row oracle and of the evaluation that decoded every head at its
// fixpoint.
func TestColumnarHeadsDecodedOnFirstRead(t *testing.T) {
	edb := closureShapeEDB(64, 24, 1)
	edb.Freeze()
	build := func(opts Options) (*Program, *FactSet, string) {
		var buf bytes.Buffer
		opts.Tracer = obs.NewCanonicalJSONL(&buf)
		p, err := tryBuild(closureShapeSchema, closureShapeRules, opts)
		if err != nil {
			t.Fatal(err)
		}
		counter := int64(0)
		f, err := p.Run(edb, &counter)
		if err != nil {
			t.Fatal(err)
		}
		return p, f, buf.String()
	}
	ref, want, refTrace := build(rowOracle())
	p, got, trace := build(DefaultOptions())

	pending := func() []string {
		var out []string
		for pred := range got.coded {
			out = append(out, pred)
		}
		sort.Strings(out)
		return out
	}
	expect := func(step string, decodes int, coded ...string) {
		t.Helper()
		if got.decodes != decodes || !slices.Equal(pending(), coded) {
			t.Fatalf("%s: %d decodes, %v in code space; want %d, %v", step, got.decodes, pending(), decodes, coded)
		}
	}
	expect("after the run", 0, "sg", "tc", "unreach")
	if got.TotalSize() != want.TotalSize() || !slices.Equal(got.Preds(), want.Preds()) {
		t.Fatalf("TotalSize %d, Preds %v; row oracle %d, %v", got.TotalSize(), got.Preds(), want.TotalSize(), want.Preds())
	}
	for _, pred := range want.Preds() {
		if got.Size(pred) != want.Size(pred) {
			t.Fatalf("Size(%s) = %d, row oracle %d", pred, got.Size(pred), want.Size(pred))
		}
	}
	expect("after counting", 0, "sg", "tc", "unreach")

	st, refSt := p.LastStats(), ref.LastStats()
	if !reflect.DeepEqual(st.Firings, refSt.Firings) || st.Steps != refSt.Steps || !reflect.DeepEqual(st.DeltaCurve, refSt.DeltaCurve) {
		t.Fatalf("Firings %v, Steps %d, DeltaCurve %v; row oracle %v, %d, %v",
			st.Firings, st.Steps, st.DeltaCurve, refSt.Firings, refSt.Steps, refSt.DeltaCurve)
	}
	if st.VectorizedStrata != 2 {
		t.Fatalf("VectorizedStrata = %d, want 2", st.VectorizedStrata)
	}
	if withoutExecutorLines(trace) != withoutExecutorLines(refTrace) {
		t.Fatalf("canonical trace differs from the row oracle's:\n%s\nrow oracle:\n%s", trace, refTrace)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(trace))); sum != canonicalTraceParent {
		t.Fatalf("canonical trace hash %s, want %s:\n%s", sum, canonicalTraceParent, trace)
	}

	query := func(src string) string {
		t.Helper()
		goal, err := parser.ParseGoal(src)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Query(got, goal)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ref.Query(want, goal)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) || len(a.Rows) == 0 {
			t.Fatalf("%s: %v, row oracle %v", src, a, b)
		}
		return fmt.Sprint(a)
	}
	query("?- unreach(a: 16, b: X).")
	query("?- origin(self: S, id: 3).")
	query("?- tc(src: 0, dst: X).")
	query("?- tc(src: X, dst: 5).")
	query("?- tc(src: 3, dst: 9).")
	query("?- sg(a: 5, b: X), tc(src: X, dst: 40).")
	expect("after goals fixing an argument", 0, "sg", "tc", "unreach")
	query("?- tc(src: X, dst: Y).")
	expect("after a goal fixing none", 1, "sg", "unreach")

	c := got.Clone()
	if a, b := ToInstance(c, p.schema, 0).String(), ToInstance(want, p.schema, 0).String(); a != b {
		t.Fatal("ToInstance differs from the row oracle's")
	}
	if c.decodes != 3 || len(c.coded) != 0 {
		t.Fatalf("ToInstance: %d decodes, %d predicates left in code space; want 3, 0", c.decodes, len(c.coded))
	}
	expect("after ToInstance of a clone", 1, "sg", "unreach")
	got.Freeze()
	expect("after Freeze", 3)
	if !got.Equal(want) {
		t.Fatal("the decoded result differs from the row oracle's")
	}
}

// Code-space rows are decoded in fact key order, with no key sorted:
// values of every elementary kind, strings of different lengths
// included, come out as a key sort puts them.
func TestCodedRowsDecodeInKeyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	vals := []value.Value{value.Null{}, value.Int(-3), value.Int(0), value.Int(12), value.Real(-0.5), value.Real(2.25),
		value.Str(""), value.Str("b"), value.Str("aa"), value.Str("ab"), value.Str("zzzzzzzzzz"), value.Bool(true), value.Ref(4)}
	for trial := 0; trial < 50; trial++ {
		dict := colset.NewDict()
		batch, seen := colset.NewBatch(3), colset.NewCodeSet(3, 0, 0)
		for i := 0; i < 40; i++ {
			row := []uint32{dict.Code(vals[r.Intn(len(vals))]), dict.Code(vals[r.Intn(len(vals))]), dict.Code(vals[r.Intn(len(vals))])}
			if seen.Add(row) {
				batch.AppendRow(row)
			}
		}
		fs := NewFactSet()
		fs.setCoded("p", &codedPred{dict: dict, labels: []string{"x", "yy", "z"}, batch: batch})
		got := factKeys(fs.Facts("p"))
		want := slices.Clone(got)
		sort.Strings(want)
		if !slices.Equal(got, want) || len(got) != batch.Len() {
			t.Fatalf("trial %d: decoded %d rows out of key order", trial, len(got))
		}
	}
}

// Clones of a run's result share its code-space rows, and their owners
// probe them concurrently: each lookup reads the rows it fixes in code
// space, through one index the first probe of a label builds, and every
// row is decoded once, whichever owner matched it first, even while
// another owner decodes the whole predicate. Under -race this holds the
// shared codedPred to its publication discipline.
func TestClonesProbeCodedRowsConcurrently(t *testing.T) {
	p := codedProgram(t)
	edb := codedEDB(rand.New(rand.NewSource(5)))
	edb.Freeze()
	counter := int64(0)
	f, err := p.Run(edb, &counter)
	if err != nil {
		t.Fatal(err)
	}
	cp := f.coded["tc"]
	if cp == nil || cp.pending() == 0 {
		t.Fatal("the run left no code-space tc")
	}
	want := f.Clone()
	want.Freeze()
	var fixes [][]fixedArg
	var wants [][]string
	for _, src := range codedLookupValues {
		for _, dst := range codedLookupValues {
			for _, fixed := range [][]fixedArg{{{label: "src", v: src}}, {{label: "dst", v: dst}}, {{label: "src", v: src}, {label: "dst", v: dst}}} {
				fixes = append(fixes, fixed)
				wants = append(wants, lookupKeys(want, "tc", srcDst, fixed))
			}
		}
	}
	const owners = 4
	clones := make([]*FactSet, owners)
	for i := range clones {
		clones[i] = f.Clone()
	}
	seen := make([]map[string]value.Tuple, owners) // each owner's tuple of every fact it was handed
	var wg sync.WaitGroup
	errs := make(chan error, owners)
	for g, c := range clones {
		wg.Add(1)
		go func(g int, c *FactSet) {
			defer wg.Done()
			seen[g] = map[string]value.Tuple{}
			for i := range fixes {
				k := (i*(g+1) + g) % len(fixes) // every owner its own order
				for _, fact := range c.lookup("tc", srcDst, fixes[k]).facts {
					seen[g][fact.Key()] = fact.Tuple
				}
				if got := lookupKeys(c, "tc", srcDst, fixes[k]); !slices.Equal(got, wants[k]) {
					errs <- fmt.Errorf("owner %d: lookup(tc, %v) = %v, want %v", g, fixes[k], got, wants[k])
					return
				}
				if g == 0 && i == len(fixes)/2 {
					// One owner decodes the predicate while the others probe.
					if !slices.Equal(factKeys(c.Facts("tc")), factKeys(want.Facts("tc"))) {
						errs <- fmt.Errorf("owner %d: Facts(tc) differs", g)
						return
					}
				}
			}
		}(g, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The owners that only probed decoded nothing, and were handed one
	// decoding of each row.
	for g := 1; g < owners; g++ {
		if clones[g].decodes != f.decodes || clones[g].coded["tc"] != cp {
			t.Fatalf("owner %d decoded tc: %d decodes", g, clones[g].decodes)
		}
		for k, tu := range seen[g] {
			if first := seen[1][k]; !first.Same(tu) {
				t.Fatalf("owners 1 and %d were handed two decodings of %s", g, k)
			}
		}
	}
}
