package parser

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// Robustness: the parser must never panic, whatever the input — random
// byte soup, truncations and mutations of valid programs all return
// either a module or an error.

var corpus = []string{
	`
module football.
mode ridv.
semantics noninflationary.
domains NAME = string;
classes
  PLAYER = (NAME, roles: {integer});
  STUDENT isa PERSON;
associations GAME = (h: PLAYER, d: string);
functions DESC: NAME -> {NAME};
rules
  member(X, desc(Y)) <- parent(par: Y, chil: X), X != 3, not q(X).
  not p(Y) <- p(Y), Y = (a: X, b: W).
goal
  ?- game(h: X), X >= 2.
end.
`,
	`p(a: {1, 2}, b: [3], c: <4, 5>) <- q(X), X = Y + 1 * 2 - 3 / 4 mod 5.`,
	`<- married(X), divorced(X).`,
}

func safeParse(t *testing.T, src string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("parser panicked on %q: %v", src, r)
		}
	}()
	_, _ = ParseModule(src)
	_, _ = ParseProgram(src)
	_, _ = ParseGoal(src)
}

func TestParserNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		safeParse(t, string(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParserNeverPanicsOnMutations(t *testing.T) {
	alphabet := []byte(`abcXYZ0159 .,;:(){}[]<>"=+-*/_%?-<-`)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := []byte(corpus[r.Intn(len(corpus))])
		// Apply a handful of random mutations.
		for i := 0; i < 1+r.Intn(6); i++ {
			if len(src) == 0 {
				break
			}
			pos := r.Intn(len(src))
			switch r.Intn(3) {
			case 0: // flip
				src[pos] = alphabet[r.Intn(len(alphabet))]
			case 1: // delete
				src = append(src[:pos], src[pos+1:]...)
			case 2: // truncate
				src = src[:pos]
			}
		}
		safeParse(t, string(src))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParserCorpusParses(t *testing.T) {
	if _, err := ParseModule(corpus[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseProgram(corpus[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseProgram(corpus[2]); err != nil {
		t.Fatal(err)
	}
}

// hostileDepth is deep enough to overflow the goroutine stack of an
// unbounded recursive descent, and fits under the server's 16 MiB body
// limit. Under the race detector, which slows the lexer tenfold, the
// inputs are 1 MiB and untimed.
const hostileDepth = 15 << 20

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// Deeply nested input ends in a NestingError, quickly, through every
// entry point, at the token where the limit was reached. Unary minus,
// parentheses, sets and sequences get 15 MiB each; the other shapes
// 64 KiB.
func TestParseDeepNestingIsAnError(t *testing.T) {
	hostile := hostileDepth
	if testing.Short() || raceEnabled {
		hostile = 1 << 20
	}
	cases := []struct {
		open string
		size int
	}{{"-", hostile}, {"(", hostile}, {"{", hostile}, {"<", hostile}, {"[", 64 << 10}, {"(a(", 64 << 10}}
	for _, c := range cases {
		deep := strings.Repeat(c.open, c.size/len(c.open))
		inputs := []struct {
			name  string
			parse func() error
		}{
			{"ParseGoal", func() error { _, err := ParseGoal("?- p(a: " + deep + "1)."); return err }},
			{"ParseModule", func() error { _, err := ParseModule("rules p(a: " + deep + "1). end."); return err }},
			{"ParseProgram", func() error { _, err := ParseProgram("p(a: " + deep + "1)."); return err }},
		}
		if c.size > 64<<10 {
			inputs = inputs[:2]
		}
		for _, in := range inputs {
			start := time.Now()
			err := in.parse()
			var nest *NestingError
			if !errors.As(err, &nest) {
				t.Fatalf("%s on %d × %q: %v, want a *NestingError", in.name, c.size/len(c.open), c.open, err)
			}
			if nest.Line != 1 || nest.Col < MaxNesting/2 || nest.Col > 2*MaxNesting {
				t.Errorf("%s on %q: error at %d:%d, want the position of the limit", in.name, c.open, nest.Line, nest.Col)
			}
			if d := time.Since(start); d > 5*time.Second && !raceEnabled {
				t.Errorf("%s on %q took %v", in.name, c.open, d)
			}
		}
	}
	deepType := "domains D = " + strings.Repeat("{", 64<<10) + "integer;"
	var nest *NestingError
	if _, err := ParseModule(deepType); !errors.As(err, &nest) {
		t.Fatalf("deep type: %v, want a *NestingError", err)
	}
}

// Nesting within the limit still parses, and a lexical error anywhere
// in the input still wins over the nesting error, as over any parse
// error.
func TestParseNestingWithinLimit(t *testing.T) {
	const levels = MaxNesting/2 - 10 // a parenthesised term takes two levels
	src := "?- p(a: " + strings.Repeat("(", levels) + "1" + strings.Repeat(")", levels) + ")."
	if _, err := ParseGoal(src); err != nil {
		t.Fatalf("%d parentheses: %v", levels, err)
	}
	if _, err := ParseGoal("?- p(a: " + strings.Repeat("-", MaxNesting-2) + "1)."); err != nil {
		t.Fatalf("%d unary minuses: %v", MaxNesting-2, err)
	}
	deep := "?- p(a: " + strings.Repeat("(", MaxNesting) + "1). \"unterminated"
	_, err := ParseGoal(deep)
	var lexErr *Error
	if !errors.As(err, &lexErr) || !strings.Contains(lexErr.Msg, "unterminated string") {
		t.Fatalf("deep input with a lexical error: %v, want the lexical error", err)
	}
}

// Alternating parentheses and calls used to cost time exponential in
// their depth (each nested-reference attempt re-parsed its argument as
// a function application): 26 levels took 45 s on a 2-core Xeon.
func TestParseNestedCallsLinear(t *testing.T) {
	const levels = 26
	src := "?- p(x: " + strings.Repeat("(a(", levels) + "1" + strings.Repeat("))", levels) + ")."
	start := time.Now()
	if _, err := ParseGoal(src); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second && !raceEnabled {
		t.Fatalf("%d nested calls took %v", levels, d)
	}
}

// FuzzParse: no input makes any entry point panic or overflow the stack.
func FuzzParse(f *testing.F) {
	for _, src := range corpus {
		f.Add(src)
	}
	f.Add("?- p(a: " + strings.Repeat("-(", 600) + "1).")
	f.Add("domains D = " + strings.Repeat("<", 1200) + "integer;")
	f.Add("?- p(x: " + strings.Repeat("(a(", 40) + "1" + strings.Repeat("))", 40) + ").")
	f.Fuzz(func(t *testing.T, src string) {
		safeParse(t, src)
	})
}
