// Package parser implements the concrete LOGRES syntax: schema sections
// (domains / classes / associations / functions), rules, goals and modules.
// The grammar is documented in the repository README; it covers every
// construct exercised by the paper's examples.
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokReal
	tokString
	tokPunct // one of the punctuation/operator spellings below
)

// token is one lexical token.
type token struct {
	kind tokKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer tokenizes on demand: the parser pulls tokens as it needs them, so
// input that fails early (too deep, say) is never tokenized whole.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
	toks []token
	done bool  // the EOF token has been emitted
	err  error // the lexical error that ended the input, if any

	discard bool // drop tokens instead of keeping them (set by drain)
}

// multi-character operators, longest first.
var operators = []string{
	"<-", "?-", "->", "!=", "<=", ">=",
	"(", ")", "{", "}", "[", "]", "<", ">",
	",", ";", ":", ".", "=", "+", "-", "*", "/", "_",
}

// operatorsByFirst lists the operators by their first byte, longest first,
// so a run of one-byte operators does not scan the whole list per byte.
var operatorsByFirst = func() (t [256][]string) {
	for _, op := range operators {
		t[op[0]] = append(t[op[0]], op)
	}
	return t
}()

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

// step lexes one more token. At the end of the input, or at a lexical
// error (recorded in err), it emits the EOF token and sets done.
func (l *lexer) step() {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		l.emit(token{kind: tokEOF, line: l.line, col: l.col})
		l.done = true
		return
	}
	start := l.src[l.pos]
	var err error
	switch {
	case isIdentStart(rune(start)):
		l.lexIdent()
	case unicode.IsDigit(rune(start)):
		err = l.lexNumber()
	case start == '"':
		err = l.lexString()
	default:
		if !l.lexOperator() {
			err = &Error{l.line, l.col, fmt.Sprintf("unexpected character %q", start)}
		}
	}
	if err != nil {
		l.err = err
		l.emit(token{kind: tokEOF, line: l.line, col: l.col})
		l.done = true
	}
}

// drain lexes the rest of the input without keeping its tokens and
// returns the lexical error, if any. A parse reports that error in
// preference to its own, so its result does not depend on how far the
// parser read.
func (l *lexer) drain() error {
	l.discard = true
	for !l.done {
		l.step()
	}
	return l.err
}

func (l *lexer) emit(t token) {
	if !l.discard {
		l.toks = append(l.toks, t)
	}
}

func (l *lexer) advance(n int) {
	for i := 0; i < n && l.pos < len(l.src); i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case c == '%': // line comment, Prolog style
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case strings.HasPrefix(l.src[l.pos:], "//"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case strings.HasPrefix(l.src[l.pos:], "/*"):
			l.advance(2)
			for l.pos < len(l.src) && !strings.HasPrefix(l.src[l.pos:], "*/") {
				l.advance(1)
			}
			l.advance(2)
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) }

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func (l *lexer) lexIdent() {
	line, col, start := l.line, l.col, l.pos
	for l.pos < len(l.src) && isIdentRune(rune(l.src[l.pos])) {
		l.advance(1)
	}
	l.emit(token{kind: tokIdent, text: l.src[start:l.pos], line: line, col: col})
}

func (l *lexer) lexNumber() error {
	line, col, start := l.line, l.col, l.pos
	for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
		l.advance(1)
	}
	isReal := false
	// A '.' is a decimal point only when followed by a digit; otherwise it
	// terminates a rule.
	if l.pos+1 < len(l.src) && l.src[l.pos] == '.' && unicode.IsDigit(rune(l.src[l.pos+1])) {
		isReal = true
		l.advance(1)
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
			l.advance(1)
		}
	}
	text := l.src[start:l.pos]
	kind := tokInt
	if isReal {
		kind = tokReal
	}
	l.emit(token{kind: kind, text: text, line: line, col: col})
	return nil
}

func (l *lexer) lexString() error {
	line, col := l.line, l.col
	l.advance(1) // opening quote
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			return &Error{line, col, "unterminated string"}
		}
		c := l.src[l.pos]
		switch c {
		case '"':
			l.advance(1)
			l.emit(token{kind: tokString, text: b.String(), line: line, col: col})
			return nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return &Error{line, col, "unterminated escape"}
			}
			next := l.src[l.pos+1]
			switch next {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\', '"':
				b.WriteByte(next)
			default:
				return &Error{l.line, l.col, fmt.Sprintf("unknown escape \\%c", next)}
			}
			l.advance(2)
		case '\n':
			return &Error{line, col, "newline in string"}
		default:
			b.WriteByte(c)
			l.advance(1)
		}
	}
}

func (l *lexer) lexOperator() bool {
	for _, op := range operatorsByFirst[l.src[l.pos]] {
		if strings.HasPrefix(l.src[l.pos:], op) {
			l.emit(token{kind: tokPunct, text: op, line: l.line, col: l.col})
			l.advance(len(op))
			return true
		}
	}
	return false
}
