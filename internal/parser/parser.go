// Package parser implements an operator-precedence reader for Prolog terms
// and programs. It consumes tokens from package lex and produces term.Term
// values, sharing one *term.Var per variable name within a clause.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/lex"
	"repro/internal/term"
)

// Error is a syntax error with source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string { return fmt.Sprintf("parser: %d:%d: %s", e.Line, e.Col, e.Msg) }

// Parser reads terms from a source string.
type Parser struct {
	lx   *lex.Lexer
	ops  *OpTable
	vars map[string]*term.Var
	// anon holds the anonymous variables of one read, named once it ends.
	anon []*term.Var
}

// New returns a parser over src using the standard operator table.
func New(src string) *Parser { return NewWithOps(src, NewOpTable()) }

// NewWithOps returns a parser over src using the given operator table. The
// table is used by reference, so op/3 directives take effect immediately.
func NewWithOps(src string, ops *OpTable) *Parser {
	return &Parser{lx: lex.New(src), ops: ops}
}

// Ops returns the parser's operator table.
func (p *Parser) Ops() *OpTable { return p.ops }

// ReadTerm reads the next clause-terminated term. It returns the term and
// the variable name map for the clause. At end of input it returns (nil,
// nil, nil).
func (p *Parser) ReadTerm() (term.Term, map[string]*term.Var, error) {
	tok, err := p.lx.Peek()
	if err != nil {
		return nil, nil, err
	}
	if tok.Kind == lex.EOF {
		return nil, nil, nil
	}
	p.vars = map[string]*term.Var{}
	p.anon = p.anon[:0]
	t, err := p.parse(1200)
	if err != nil {
		return nil, nil, err
	}
	p.nameAnon()
	end, err := p.lx.Next()
	if err != nil {
		return nil, nil, err
	}
	if end.Kind != lex.EndTok {
		return nil, nil, &Error{Line: end.Line, Col: end.Col,
			Msg: fmt.Sprintf("operator expected or unterminated clause (got %s %q)", end.Kind, end.Text)}
	}
	vars := p.vars
	p.vars = nil
	return t, vars, nil
}

// ReadAll reads every clause in the source.
func (p *Parser) ReadAll() ([]term.Term, error) {
	var out []term.Term
	for {
		t, _, err := p.ReadTerm()
		if err != nil {
			return out, err
		}
		if t == nil {
			return out, nil
		}
		out = append(out, t)
	}
}

// ParseTerm parses a single term (no trailing '.') from src with the
// standard operator table. Handy for tests and the query API.
func ParseTerm(src string) (term.Term, map[string]*term.Var, error) {
	return ParseTermWithOps(src, NewOpTable())
}

// ParseTermWithOps is ParseTerm with an explicit operator table.
func ParseTermWithOps(src string, ops *OpTable) (term.Term, map[string]*term.Var, error) {
	src = strings.TrimSpace(src)
	if !strings.HasSuffix(src, ".") {
		src += " ."
	}
	p := NewWithOps(src, ops)
	t, vars, err := p.ReadTerm()
	if err != nil {
		return nil, nil, err
	}
	if t == nil {
		return nil, nil, fmt.Errorf("parser: empty input")
	}
	return t, vars, nil
}

func (p *Parser) errTok(tok lex.Token, format string, args ...any) error {
	return &Error{Line: tok.Line, Col: tok.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) variable(name string) *term.Var {
	if name == "_" {
		v := &term.Var{}
		p.anon = append(p.anon, v)
		return v
	}
	if v, ok := p.vars[name]; ok {
		return v
	}
	v := &term.Var{Name: name}
	p.vars[name] = v
	return v
}

// nameAnon names the read's anonymous variables _A1, _A2, ..., skipping
// the names of its named variables, so the term's text re-reads with the
// same variables.
func (p *Parser) nameAnon() {
	n := 0
	for _, v := range p.anon {
		for {
			n++
			v.Name = "_A" + strconv.Itoa(n)
			if _, taken := p.vars[v.Name]; !taken {
				break
			}
		}
	}
}

// parse reads a term of precedence at most maxPrec.
func (p *Parser) parse(maxPrec int) (term.Term, error) {
	left, leftPrec, err := p.parsePrimary(maxPrec)
	if err != nil {
		return nil, err
	}
	return p.parseInfix(left, leftPrec, maxPrec)
}

// parseInfix repeatedly extends left with infix/postfix operators.
func (p *Parser) parseInfix(left term.Term, leftPrec, maxPrec int) (term.Term, error) {
	for {
		tok, err := p.lx.Peek()
		if err != nil {
			return nil, err
		}
		var name string
		switch {
		case tok.Kind == lex.AtomTok && !tok.FunctorOpen:
			name = tok.Text
		case tok.Kind == lex.PunctTok && (tok.Text == "," || tok.Text == "|"):
			name = tok.Text
		default:
			return left, nil
		}
		if d, ok := p.ops.lookupInfix(name); ok && d.prec <= maxPrec && leftPrec <= d.leftMax() {
			p.lx.Next()
			right, err := p.parse(d.rightMax())
			if err != nil {
				return nil, err
			}
			// '|' as an operator is read as ';' per ISO.
			if name == "|" {
				name = ";"
			}
			left = term.Comp(name, left, right)
			leftPrec = d.prec
			continue
		}
		if d, ok := p.ops.lookupPostfix(name); ok && d.prec <= maxPrec && leftPrec <= d.leftMax() {
			p.lx.Next()
			left = term.Comp(name, left)
			leftPrec = d.prec
			continue
		}
		return left, nil
	}
}

// parsePrimary reads a primary term and returns it with its precedence
// (0 for ordinary terms, the operator's precedence for a bare operator
// atom or a prefix application).
func (p *Parser) parsePrimary(maxPrec int) (term.Term, int, error) {
	tok, err := p.lx.Next()
	if err != nil {
		return nil, 0, err
	}
	switch tok.Kind {
	case lex.EOF:
		return nil, 0, p.errTok(tok, "unexpected end of input")
	case lex.IntTok:
		return term.Int(tok.Int), 0, nil
	case lex.FloatTok:
		return term.Float(tok.Float), 0, nil
	case lex.VarTok:
		return p.variable(tok.Text), 0, nil
	case lex.StrTok:
		// double_quotes(codes): a string is a list of character codes.
		items := make([]term.Term, 0, len(tok.Text))
		for _, r := range tok.Text {
			items = append(items, term.Int(r))
		}
		return term.List(items...), 0, nil
	case lex.EndTok:
		return nil, 0, p.errTok(tok, "unexpected clause terminator")
	case lex.PunctTok:
		switch tok.Text {
		case "(":
			t, err := p.parse(1200)
			if err != nil {
				return nil, 0, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, 0, err
			}
			return t, 0, nil
		case "[":
			return p.parseList()
		case "{":
			nxt, err := p.lx.Peek()
			if err != nil {
				return nil, 0, err
			}
			if nxt.Kind == lex.PunctTok && nxt.Text == "}" {
				p.lx.Next()
				return term.Atom("{}"), 0, nil
			}
			t, err := p.parse(1200)
			if err != nil {
				return nil, 0, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, 0, err
			}
			return term.Comp("{}", t), 0, nil
		}
		return nil, 0, p.errTok(tok, "unexpected %q", tok.Text)
	case lex.AtomTok:
		return p.parseAtomic(tok, maxPrec)
	}
	return nil, 0, p.errTok(tok, "unexpected token")
}

func (p *Parser) parseAtomic(tok lex.Token, maxPrec int) (term.Term, int, error) {
	name := tok.Text
	// Functor application: atom immediately followed by '('.
	if tok.FunctorOpen {
		p.lx.Next() // consume '('
		args, err := p.parseArgs()
		if err != nil {
			return nil, 0, err
		}
		return term.Comp(name, args...), 0, nil
	}
	// Negative numeric literal: '-' immediately adjacent to a number.
	if name == "-" {
		nxt, err := p.lx.Peek()
		if err != nil {
			return nil, 0, err
		}
		adjacent := nxt.Line == tok.Line && nxt.Col == tok.Col+1
		if adjacent && nxt.Kind == lex.IntTok {
			p.lx.Next()
			return term.Int(-nxt.Int), 0, nil
		}
		if adjacent && nxt.Kind == lex.FloatTok {
			p.lx.Next()
			return term.Float(-nxt.Float), 0, nil
		}
	}
	// Prefix operator application.
	if d, ok := p.ops.lookupPrefix(name); ok && d.prec <= maxPrec {
		if p.canStartTerm(name) {
			arg, err := p.parse(d.rightMax())
			if err != nil {
				return nil, 0, err
			}
			return term.Comp(name, arg), d.prec, nil
		}
	}
	// Bare atom. If it is an operator, it carries that operator's
	// precedence when used as an operand.
	prec := 0
	if d, ok := p.ops.lookupInfix(name); ok {
		prec = d.prec
	} else if d, ok := p.ops.lookupPrefix(name); ok {
		prec = d.prec
	}
	if prec > maxPrec {
		prec = 0 // a parenthesised use would have prec 0; be permissive
	}
	return term.Atom(name), prec, nil
}

// canStartTerm decides whether the upcoming token can begin the operand of
// a prefix operator named opName.
func (p *Parser) canStartTerm(opName string) bool {
	tok, err := p.lx.Peek()
	if err != nil {
		return false
	}
	switch tok.Kind {
	case lex.IntTok, lex.FloatTok, lex.VarTok, lex.StrTok:
		return true
	case lex.AtomTok:
		// An infix operator cannot begin a term unless it is also a
		// prefix operator or opens a functor application.
		if tok.FunctorOpen {
			return true
		}
		if _, inf := p.ops.lookupInfix(tok.Text); inf {
			_, pre := p.ops.lookupPrefix(tok.Text)
			return pre
		}
		return true
	case lex.PunctTok:
		return tok.Text == "(" || tok.Text == "[" || tok.Text == "{"
	}
	return false
}

func (p *Parser) parseArgs() ([]term.Term, error) {
	var args []term.Term
	for {
		a, err := p.parse(999)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		tok, err := p.lx.Next()
		if err != nil {
			return nil, err
		}
		if tok.Kind != lex.PunctTok {
			return nil, p.errTok(tok, "expected ',' or ')' in argument list")
		}
		switch tok.Text {
		case ",":
			continue
		case ")":
			return args, nil
		default:
			return nil, p.errTok(tok, "expected ',' or ')' in argument list")
		}
	}
}

func (p *Parser) parseList() (term.Term, int, error) {
	tok, err := p.lx.Peek()
	if err != nil {
		return nil, 0, err
	}
	if tok.Kind == lex.PunctTok && tok.Text == "]" {
		p.lx.Next()
		return term.NilAtom, 0, nil
	}
	var items []term.Term
	tail := term.Term(term.NilAtom)
	for {
		it, err := p.parse(999)
		if err != nil {
			return nil, 0, err
		}
		items = append(items, it)
		tok, err := p.lx.Next()
		if err != nil {
			return nil, 0, err
		}
		if tok.Kind != lex.PunctTok {
			return nil, 0, p.errTok(tok, "expected ',', '|' or ']' in list")
		}
		switch tok.Text {
		case ",":
			continue
		case "|":
			tail, err = p.parse(999)
			if err != nil {
				return nil, 0, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, 0, err
			}
			return term.ListTail(tail, items...), 0, nil
		case "]":
			return term.ListTail(tail, items...), 0, nil
		default:
			return nil, 0, p.errTok(tok, "expected ',', '|' or ']' in list")
		}
	}
}

func (p *Parser) expectPunct(s string) error {
	tok, err := p.lx.Next()
	if err != nil {
		return err
	}
	if tok.Kind != lex.PunctTok || tok.Text != s {
		return p.errTok(tok, "expected %q, got %q", s, tok.Text)
	}
	return nil
}
