package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"logres/internal/hooks"
	"logres/internal/obs"
	"logres/internal/parser"
)

// forkSchema and forkRules give a program with a columnar recursive
// stratum, a row stratum (its rule reads a class) and a generated isa
// step. No fork has planned the program before they all start.
const forkSchema = `
classes
  NODE = (v: integer);
  HUB = (NODE, degree: integer);
  HUB isa NODE;
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
  CYCLIC = (v: integer);
`

const forkRules = `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
cyclic(v: X) <- node(v: X), tc(src: X, dst: X).
`

// forkFacts is a 24-node ring with a chord, and one hub object.
func forkFacts() string {
	src := "hub(self: H, v: 0, degree: 2).\n"
	for i := 0; i < 24; i++ {
		src += fmt.Sprintf("edge(src: %d, dst: %d).\nnode(self: N, v: %d).\n", i, (i+1)%24, i+1)
	}
	return src + "edge(src: 3, dst: 11).\n"
}

// Forks of one compiled program run concurrently over one frozen E, each
// under its own budget, tracer and context: every fork that completes
// derives what a fresh compilation's run derives, with the same
// statistics, and a fork aborted by its budget or its context leaves the
// others untouched. Under -race this also holds the compiled part to
// being read-only at run time.
func TestForkedProgramsRunConcurrently(t *testing.T) {
	schema := schemaOf(t, forkSchema)
	e := seedEDB(t, schema, forkFacts())
	e.Freeze()
	rules, err := parser.ParseProgram(forkRules)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Compile(schema, rules, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantCounter := int64(100)
	want, err := fresh.Run(e, &wantCounter)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := fresh.LastStats()
	// Every fork compares its result with want: frozen, it is safe for
	// concurrent readers, and holds no code-space rows they would decode.
	want.Freeze()

	shared, err := Compile(schema, rules, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	const forks = 8
	errs := make([]error, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := DefaultOptions()
			ctx := context.Background()
			tracer := &collectTracer{}
			if i%2 == 0 {
				opts.Tracer = tracer
			}
			switch i {
			case 3:
				opts.Budget = Budget{MaxFacts: e.TotalSize() + 5}
			case 5:
				ctx = canceled
			case 6:
				opts.Budget = Budget{MaxRounds: 1000, MaxFacts: 1 << 20}
			}
			for run := 0; run < 3; run++ {
				p := shared.Fork(opts)
				counter := int64(100)
				f, err := p.RunContext(ctx, e, &counter)
				var be *BudgetError
				switch {
				case i == 3:
					if !errors.As(err, &be) || be.Axis != AxisFacts || p.LastStats().Abort != "facts" {
						errs[i] = fmt.Errorf("fork %d: err %v, abort %q; want a facts budget abort", i, err, p.LastStats().Abort)
					}
				case i == 5:
					var ce *CanceledError
					if !errors.As(err, &ce) {
						errs[i] = fmt.Errorf("fork %d: err %v, want a cancellation", i, err)
					}
				case err != nil:
					errs[i] = fmt.Errorf("fork %d: %v", i, err)
				case !f.Equal(want) || counter != wantCounter:
					errs[i] = fmt.Errorf("fork %d derived another instance (counter %d, want %d)", i, counter, wantCounter)
				case !reflect.DeepEqual(p.LastStats(), wantStats):
					errs[i] = fmt.Errorf("fork %d: stats %+v, want %+v", i, p.LastStats(), wantStats)
				case i%2 == 0 && tracer.kinds()[obs.KindEvalEnd] != run+1:
					errs[i] = fmt.Errorf("fork %d: its tracer saw %d completed runs, want %d", i, tracer.kinds()[obs.KindEvalEnd], run+1)
				case i%2 == 1 && len(tracer.events) != 0:
					errs[i] = fmt.Errorf("fork %d: an untraced fork emitted %d events", i, len(tracer.events))
				}
				if errs[i] != nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if shared.LastStats() != nil {
		t.Error("running the forks gave the compiled program statistics of its own")
	}
}

// Extend gives the program a fresh Compile of R ∪ rules gives: the same
// rule ids, strata and plans (Explain), and, run, the same instance and
// statistics; only the added rules are compiled.
func TestExtendMatchesCompile(t *testing.T) {
	schema := schemaOf(t, forkSchema)
	e := seedEDB(t, schema, forkFacts())
	e.Freeze()
	base, err := parser.ParseProgram(forkRules + "<- cyclic(v: 99).\n")
	if err != nil {
		t.Fatal(err)
	}
	more, err := parser.ParseProgram(`<- tc(src: 99, dst: 99).
hub(self: H, v: X, degree: 0) <- cyclic(v: X), tc(src: X, dst: 11).
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(schema, base, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	compiled := 0
	hooks.Compiled = func(n int) { compiled += n }
	ext, err := p.Extend(more, DefaultOptions())
	hooks.Compiled = nil
	if err != nil {
		t.Fatal(err)
	}
	if compiled != len(more) {
		t.Fatalf("Extend compiled %d rules, want %d", compiled, len(more))
	}
	fresh, err := Compile(schema, append(base[:len(base):len(base)], more...), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ext.Explain(), fresh.Explain(); a != b {
		t.Fatalf("Explain of the extended program:\n%s\nof a fresh compilation:\n%s", a, b)
	}
	c1, c2 := int64(0), int64(0)
	got, err := ext.Run(e, &c1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(e, &c2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || c1 != c2 || !reflect.DeepEqual(ext.LastStats(), fresh.LastStats()) {
		t.Fatalf("the extended program derives %d facts (counter %d), a fresh compilation %d (%d)", got.TotalSize(), c1, want.TotalSize(), c2)
	}
	if got.Size("hub") <= 1 {
		t.Fatalf("the added rule derived no hub object: %d", got.Size("hub"))
	}
}
