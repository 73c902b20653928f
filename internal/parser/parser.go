package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"logres/internal/ast"
	"logres/internal/types"
	"logres/internal/value"
)

// ParseModule parses a complete LOGRES module:
//
//	[module NAME.] [mode MODE.]
//	[domains …] [classes …] [associations …] [functions …]
//	[rules …] [goal …] [end.]
//
// Sections may appear in any order and repeat.
func ParseModule(src string) (*ast.Module, error) {
	p := newParser(src)
	m, err := p.parseModule()
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseProgram parses a bare sequence of rules (no sections).
func ParseProgram(src string) ([]*ast.Rule, error) {
	p := newParser(src)
	var rules []*ast.Rule
	var err error
	for err == nil && !p.at(tokEOF) {
		var r *ast.Rule
		if r, err = p.parseRule(); err == nil {
			rules = append(rules, r)
		}
	}
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return rules, nil
}

// ParseGoal parses a conjunctive goal `?- l1, …, ln.` (the `?-` is
// optional).
func ParseGoal(src string) ([]ast.Literal, error) {
	p := newParser(src)
	g, err := p.parseGoal()
	if err == nil && !p.at(tokEOF) {
		err = p.errf("trailing input after goal: %s", p.peek())
	}
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return g, nil
}

// MaxNesting bounds the depth of the recursive descent. Every nested
// term, argument and type takes a level (a parenthesised term takes two:
// the parentheses and the argument inside them), so that hostile input
// gets a NestingError instead of exhausting the goroutine stack, which Go
// cannot recover from.
const MaxNesting = 1000

// NestingError reports input nested deeper than MaxNesting, at the token
// where the limit was reached.
type NestingError struct {
	Line, Col int
}

func (e *NestingError) Error() string {
	return fmt.Sprintf("parse error at %d:%d: nesting deeper than %d levels", e.Line, e.Col, MaxNesting)
}

type parser struct {
	lx    *lexer
	i     int
	depth int // current recursion depth, at most MaxNesting

	// calls memoises parseArg on `name(`, by token index and depth. Its
	// nested-reference attempt re-parses as a function application when
	// it fails, so without the memo alternating `(name(` nesting would
	// cost time exponential in its depth.
	calls map[[2]int]argResult
}

type argResult struct {
	arg ast.Arg
	err error
	end int // token index after the argument
}

func newParser(src string) *parser { return &parser{lx: newLexer(src)} }

// finish returns the input's lexical error, if any, in preference to err,
// the parse's own result.
func (p *parser) finish(err error) error {
	if lexErr := p.lx.drain(); lexErr != nil {
		return lexErr
	}
	return err
}

// tok returns the i-th token, lexing up to it; past the end of the input
// it is the EOF token.
func (p *parser) tok(i int) token {
	for i >= len(p.lx.toks) && !p.lx.done {
		p.lx.step()
	}
	return p.lx.toks[min(i, len(p.lx.toks)-1)]
}

// enter descends one nesting level; leave climbs back.
func (p *parser) enter() error {
	if p.depth >= MaxNesting {
		t := p.peek()
		return &NestingError{Line: t.line, Col: t.col}
	}
	p.depth++
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) peek() token       { return p.tok(p.i) }
func (p *parser) next() token       { t := p.tok(p.i); p.i++; return t }
func (p *parser) at(k tokKind) bool { return p.peek().kind == k }

func (p *parser) atPunct(s string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptPunct(s string) bool {
	if p.atPunct(s) {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, got %s", s, p.peek())
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	if !p.at(tokIdent) {
		return token{}, p.errf("expected identifier, got %s", p.peek())
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

var sectionKeywords = map[string]bool{
	"domains": true, "classes": true, "associations": true,
	"functions": true, "rules": true, "goal": true, "end": true,
	"module": true, "mode": true, "semantics": true,
}

func (p *parser) parseModule() (*ast.Module, error) {
	m := &ast.Module{Schema: types.NewSchema()}
	if p.acceptKeyword("module") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		m.Name = types.Canon(name.text)
		if err := p.expectPunct("."); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("mode") {
		mode, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		md, ok := ast.ParseMode(mode.text)
		if !ok {
			return nil, p.errf("unknown mode %q", mode.text)
		}
		m.Mode, m.HasMod = md, true
		if err := p.expectPunct("."); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("semantics") {
		sem, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		switch strings.ToLower(sem.text) {
		case "inflationary":
		case "noninflationary":
			m.NonInflationary = true
		default:
			return nil, p.errf("unknown semantics %q (inflationary or noninflationary)", sem.text)
		}
		if err := p.expectPunct("."); err != nil {
			return nil, err
		}
	}
	for !p.at(tokEOF) {
		switch {
		case p.acceptKeyword("domains"):
			if err := p.parseDecls(m.Schema, types.DeclDomain); err != nil {
				return nil, err
			}
		case p.acceptKeyword("classes"):
			if err := p.parseDecls(m.Schema, types.DeclClass); err != nil {
				return nil, err
			}
		case p.acceptKeyword("associations"):
			if err := p.parseDecls(m.Schema, types.DeclAssociation); err != nil {
				return nil, err
			}
		case p.acceptKeyword("functions"):
			if err := p.parseFunctions(m.Schema); err != nil {
				return nil, err
			}
		case p.acceptKeyword("rules"):
			for !p.at(tokEOF) && !p.atSectionStart() {
				r, err := p.parseRule()
				if err != nil {
					return nil, err
				}
				m.Rules = append(m.Rules, r)
			}
		case p.acceptKeyword("goal"):
			g, err := p.parseGoal()
			if err != nil {
				return nil, err
			}
			m.Goal = append(m.Goal, g...)
		case p.acceptKeyword("end"):
			p.acceptPunct(".")
			if !p.at(tokEOF) {
				return nil, p.errf("input after end: %s", p.peek())
			}
			return m, nil
		default:
			return nil, p.errf("expected a section keyword, got %s", p.peek())
		}
	}
	return m, nil
}

func (p *parser) atSectionStart() bool {
	t := p.peek()
	return t.kind == tokIdent && sectionKeywords[strings.ToLower(t.text)]
}

// parseDecls parses `NAME = type ;`* and, inside the classes section, isa
// declarations `SUB [label] isa SUPER ;`.
func (p *parser) parseDecls(s *types.Schema, kind types.DeclKind) error {
	for p.at(tokIdent) && !p.atSectionStart() {
		name := p.next()
		// isa declaration?
		if kind == types.DeclClass {
			if p.atKeyword("isa") {
				p.next()
				super, err := p.expectIdent()
				if err != nil {
					return err
				}
				if err := s.AddIsa(name.text, "", super.text); err != nil {
					return err
				}
				if err := p.expectPunct(";"); err != nil {
					return err
				}
				continue
			}
			if p.at(tokIdent) { // labelled isa: SUB label isa SUPER
				label := p.next()
				if !p.acceptKeyword("isa") {
					return p.errf("expected 'isa' after %q %q", name.text, label.text)
				}
				super, err := p.expectIdent()
				if err != nil {
					return err
				}
				if err := s.AddIsa(name.text, label.text, super.text); err != nil {
					return err
				}
				if err := p.expectPunct(";"); err != nil {
					return err
				}
				continue
			}
		}
		if err := p.expectPunct("="); err != nil {
			return err
		}
		t, err := p.parseType()
		if err != nil {
			return err
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
		switch kind {
		case types.DeclDomain:
			err = s.AddDomain(name.text, t)
		case types.DeclClass:
			err = s.AddClass(name.text, t)
		case types.DeclAssociation:
			err = s.AddAssociation(name.text, t)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// parseFunctions parses `NAME : [type] -> type ;`* where the result type
// must be a set type {T}.
func (p *parser) parseFunctions(s *types.Schema) error {
	for p.at(tokIdent) && !p.atSectionStart() {
		name := p.next()
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		var arg types.Type
		if !p.atPunct("->") {
			t, err := p.parseType()
			if err != nil {
				return err
			}
			arg = t
		}
		if err := p.expectPunct("->"); err != nil {
			return err
		}
		res, err := p.parseType()
		if err != nil {
			return err
		}
		set, ok := res.(types.Set)
		if !ok {
			return p.errf("function %q result must be a set type, got %s", name.text, res)
		}
		if err := s.AddFunction(name.text, arg, set.Elem); err != nil {
			return err
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	return nil
}

var elementaryTypes = map[string]types.Type{
	"integer": types.Int, "int": types.Int,
	"string": types.String, "str": types.String,
	"real": types.Real, "float": types.Real,
	"boolean": types.Bool, "bool": types.Bool,
}

func (p *parser) parseType() (types.Type, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch {
	case p.at(tokIdent):
		name := p.next()
		if t, ok := elementaryTypes[strings.ToLower(name.text)]; ok {
			return t, nil
		}
		return types.Named{Name: name.text}, nil
	case p.acceptPunct("("):
		var fields []types.Field
		for {
			f, err := p.parseTypeComponent()
			if err != nil {
				return nil, err
			}
			fields = append(fields, f)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return types.Tuple{Fields: fields}, nil
	case p.acceptPunct("{"):
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		return types.Set{Elem: elem}, nil
	case p.acceptPunct("["):
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		return types.Multiset{Elem: elem}, nil
	case p.acceptPunct("<"):
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(">"); err != nil {
			return nil, err
		}
		return types.Sequence{Elem: elem}, nil
	}
	return nil, p.errf("expected a type, got %s", p.peek())
}

// parseTypeComponent parses `label: type` or a bare type whose default
// label is the lower-cased type name.
func (p *parser) parseTypeComponent() (types.Field, error) {
	if p.at(tokIdent) && p.tok(p.i+1).kind == tokPunct && p.tok(p.i+1).text == ":" {
		label := p.next()
		p.next() // ':'
		t, err := p.parseType()
		if err != nil {
			return types.Field{}, err
		}
		return types.Field{Label: types.Canon(label.text), Type: t}, nil
	}
	t, err := p.parseType()
	if err != nil {
		return types.Field{}, err
	}
	switch x := t.(type) {
	case types.Named:
		return types.Field{Label: types.Canon(x.Name), Type: t}, nil
	case types.Elementary:
		return types.Field{Label: types.Canon(x.String()), Type: t}, nil
	}
	return types.Field{}, p.errf("tuple component %s needs a label", t)
}

// parseRule parses one rule, fact, or denial, terminated by '.'.
func (p *parser) parseRule() (*ast.Rule, error) {
	r := &ast.Rule{}
	if !p.atPunct("<-") {
		head, err := p.parseHeadLiteral()
		if err != nil {
			return nil, err
		}
		r.Head = &head
	}
	if p.acceptPunct("<-") {
		body, err := p.parseBody()
		if err != nil {
			return nil, err
		}
		r.Body = body
	} else if r.Head == nil {
		return nil, p.errf("rule has neither head nor body")
	}
	if err := p.expectPunct("."); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *parser) parseGoal() ([]ast.Literal, error) {
	p.acceptPunct("?-")
	body, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("."); err != nil {
		return nil, err
	}
	return body, nil
}

func (p *parser) parseHeadLiteral() (ast.Literal, error) {
	negated := p.acceptKeyword("not")
	if !p.at(tokIdent) {
		return ast.Literal{}, p.errf("expected head predicate, got %s", p.peek())
	}
	lit, err := p.parsePredLiteral()
	if err != nil {
		return ast.Literal{}, err
	}
	lit.Negated = negated
	return lit, nil
}

func (p *parser) parseBody() ([]ast.Literal, error) {
	var out []ast.Literal
	for {
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		out = append(out, lit)
		if !p.acceptPunct(",") {
			break
		}
	}
	return out, nil
}

var relops = map[string]string{
	"=": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}

func (p *parser) parseLiteral() (ast.Literal, error) {
	negated := p.acceptKeyword("not")
	// Predicate literal: IDENT followed by '(' (or a bare nullary
	// predicate followed by ',' '.' or a relational operator context).
	if p.at(tokIdent) {
		nextTok := p.tok(p.i + 1)
		if nextTok.kind == tokPunct && nextTok.text == "(" {
			lit, err := p.parsePredLiteral()
			if err != nil {
				return ast.Literal{}, err
			}
			lit.Negated = negated
			return lit, nil
		}
	}
	// Otherwise: comparison literal `term relop term`.
	left, err := p.parseTerm()
	if err != nil {
		return ast.Literal{}, err
	}
	t := p.peek()
	if t.kind == tokPunct {
		if op, ok := relops[t.text]; ok {
			p.next()
			right, err := p.parseTerm()
			if err != nil {
				return ast.Literal{}, err
			}
			return ast.Literal{
				Negated: negated,
				Pred:    op,
				Args:    []ast.Arg{{Term: left}, {Term: right}},
			}, nil
		}
	}
	// A bare variable cannot be a literal; a bare identifier is a nullary
	// predicate reference.
	if v, ok := left.(ast.Var); ok {
		return ast.Literal{}, p.errf("variable %s is not a literal", v.Name)
	}
	if c, ok := left.(ast.Const); ok {
		if s, isStr := c.Val.(value.Str); isStr {
			return ast.Literal{Negated: negated, Pred: types.Canon(string(s))}, nil
		}
	}
	return ast.Literal{}, p.errf("expected a literal")
}

// parsePredLiteral parses IDENT '(' args ')' (or bare IDENT).
func (p *parser) parsePredLiteral() (ast.Literal, error) {
	name, err := p.expectIdent()
	if err != nil {
		return ast.Literal{}, err
	}
	lit := ast.Literal{Pred: types.Canon(name.text)}
	if !p.acceptPunct("(") {
		return lit, nil
	}
	if p.acceptPunct(")") {
		return lit, nil
	}
	for {
		arg, err := p.parseArg()
		if err != nil {
			return ast.Literal{}, err
		}
		lit.Args = append(lit.Args, arg)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return ast.Literal{}, err
	}
	return lit, nil
}

// parseArg parses one argument of a predicate literal or tuple term:
//
//	label: term        labelled argument ('self: X' binds an oid variable)
//	label(args)        nested-reference sugar when args contain a label
//	term               positional argument / tuple variable / function app
func (p *parser) parseArg() (ast.Arg, error) {
	if err := p.enter(); err != nil {
		return ast.Arg{}, err
	}
	defer p.leave()
	if p.at(tokIdent) {
		nextTok := p.tok(p.i + 1)
		if nextTok.kind == tokPunct && nextTok.text == ":" {
			label := p.next()
			p.next() // ':'
			t, err := p.parseTerm()
			if err != nil {
				return ast.Arg{}, err
			}
			return ast.Arg{Label: types.Canon(label.text), Term: t}, nil
		}
		if nextTok.kind == tokPunct && nextTok.text == "(" {
			key := [2]int{p.i, p.depth}
			if r, ok := p.calls[key]; ok {
				p.i = r.end
				return r.arg, r.err
			}
			a, err := p.parseCallArg()
			if p.calls == nil {
				p.calls = map[[2]int]argResult{}
			}
			p.calls[key] = argResult{a, err, p.i}
			return a, err
		}
	}
	t, err := p.parseTerm()
	if err != nil {
		return ast.Arg{}, err
	}
	return ast.Arg{Term: t}, nil
}

// parseCallArg parses an argument starting `name(`: nested-reference
// sugar when the parenthesised arguments carry a label, else a term
// (a function application, possibly with arithmetic on the result).
func (p *parser) parseCallArg() (ast.Arg, error) {
	save := p.i
	name := p.next()
	p.next() // '('
	var args []ast.Arg
	ok := true
	if !p.atPunct(")") {
		for {
			a, err := p.parseArg()
			if err != nil {
				ok = false
				break
			}
			args = append(args, a)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
	}
	if ok && p.acceptPunct(")") {
		labelled := false
		for _, a := range args {
			if a.Label != "" {
				labelled = true
				break
			}
		}
		if labelled {
			// Nested reference: label(args) ≡ label: (args).
			return ast.Arg{
				Label: types.Canon(name.text),
				Term:  ast.TupleTerm{Args: args},
			}, nil
		}
	}
	// Function application (or a parse that must be redone as a plain
	// term, e.g. arithmetic on the result).
	p.i = save
	t, err := p.parseTerm()
	if err != nil {
		return ast.Arg{}, err
	}
	return ast.Arg{Term: t}, nil
}

// Term grammar with the usual precedence:
//
//	term    ::= mulExpr (('+' | '-') mulExpr)*
//	mulExpr ::= primary (('*' | '/' | 'mod') primary)*
func (p *parser) parseTerm() (ast.Term, error) {
	left, err := p.parseMulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokPunct && (t.text == "+" || t.text == "-") {
			p.next()
			right, err := p.parseMulExpr()
			if err != nil {
				return nil, err
			}
			left = ast.BinExpr{Op: t.text, L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMulExpr() (ast.Term, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case t.kind == tokPunct && (t.text == "*" || t.text == "/"):
			p.next()
		case t.kind == tokIdent && strings.EqualFold(t.text, "mod"):
			p.next()
			t.text = "mod"
		default:
			return left, nil
		}
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = ast.BinExpr{Op: t.text, L: left, R: right}
	}
}

func (p *parser) parsePrimary() (ast.Term, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.peek()
	switch {
	case t.kind == tokInt:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return ast.Const{Val: value.Int(n)}, nil
	case t.kind == tokReal:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad real %q", t.text)
		}
		return ast.Const{Val: value.Real(f)}, nil
	case t.kind == tokString:
		p.next()
		return ast.Const{Val: value.Str(t.text)}, nil
	case t.kind == tokPunct && t.text == "-":
		p.next()
		inner, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		switch c := inner.(type) {
		case ast.Const:
			switch v := c.Val.(type) {
			case value.Int:
				return ast.Const{Val: value.Int(-v)}, nil
			case value.Real:
				return ast.Const{Val: value.Real(-v)}, nil
			}
		}
		return ast.BinExpr{Op: "-", L: ast.Const{Val: value.Int(0)}, R: inner}, nil
	case t.kind == tokPunct && t.text == "_":
		p.next()
		return ast.Wildcard{}, nil
	case t.kind == tokIdent:
		name := p.next()
		lower := strings.ToLower(name.text)
		if lower == "true" {
			return ast.Const{Val: value.Bool(true)}, nil
		}
		if lower == "false" {
			return ast.Const{Val: value.Bool(false)}, nil
		}
		if lower == "null" || lower == "nil" {
			return ast.Const{Val: value.Null{}}, nil
		}
		if p.atPunct("(") {
			// Function application.
			p.next()
			var args []ast.Term
			if !p.atPunct(")") {
				for {
					a, err := p.parseTerm()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.acceptPunct(",") {
						continue
					}
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return ast.FuncApp{Name: types.Canon(name.text), Args: args}, nil
		}
		if isVariable(name.text) {
			return ast.Var{Name: name.text}, nil
		}
		// Lower-case identifier: a symbolic (string) constant. Nullary
		// function references are written with parentheses: junior().
		return ast.Const{Val: value.Str(name.text)}, nil
	case t.kind == tokPunct && t.text == "(":
		p.next()
		// Tuple term or parenthesized expression.
		var args []ast.Arg
		for {
			a, err := p.parseArg()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if len(args) == 1 && args[0].Label == "" {
			return args[0].Term, nil // grouping
		}
		return ast.TupleTerm{Args: args}, nil
	case t.kind == tokPunct && t.text == "{":
		p.next()
		elems, err := p.parseTermList("}")
		if err != nil {
			return nil, err
		}
		return ast.SetTerm{Elems: elems}, nil
	case t.kind == tokPunct && t.text == "[":
		p.next()
		elems, err := p.parseTermList("]")
		if err != nil {
			return nil, err
		}
		return ast.MultisetTerm{Elems: elems}, nil
	case t.kind == tokPunct && t.text == "<":
		p.next()
		elems, err := p.parseTermList(">")
		if err != nil {
			return nil, err
		}
		return ast.SeqTerm{Elems: elems}, nil
	}
	return nil, p.errf("expected a term, got %s", t)
}

func (p *parser) parseTermList(close string) ([]ast.Term, error) {
	var elems []ast.Term
	if p.acceptPunct(close) {
		return nil, nil
	}
	for {
		e, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(close); err != nil {
		return nil, err
	}
	return elems, nil
}

// isVariable reports whether an identifier names a variable: LOGRES
// follows the Datalog convention that variables start with an upper-case
// letter.
func isVariable(name string) bool {
	r := rune(name[0])
	return unicode.IsUpper(r)
}
