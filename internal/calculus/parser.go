package calculus

import (
	"fmt"
	"slices"

	"cdb/internal/query"
)

// The rule parser: the rule grammar (head, ":-", relation atoms, terms,
// '.') over the query language's tokens (query.Lex), with its comparisons
// and numbers read by the query language's own parsers.

type rparser struct {
	toks []query.Token
	i    int
}

func (p *rparser) peek() query.Token { return p.toks[p.i] }
func (p *rparser) next() query.Token { t := p.toks[p.i]; p.i++; return t }

func (p *rparser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.peek().Line, fmt.Sprintf(format, args...))
}

// is reports whether the next token is the punctuation or operator t (a
// string token's Text is its decoded value, which may be anything).
func (p *rparser) is(t string) bool {
	return p.peek().Kind != query.TokString && p.peek().Text == t
}

func (p *rparser) expect(t string) error {
	if !p.is(t) {
		return p.errf("expected %q, got %q", t, p.peek().Text)
	}
	p.next()
	return nil
}

// Parse parses a rule program.
func Parse(src string) (*Program, error) {
	prog, err := parse(src)
	if err != nil {
		return nil, fmt.Errorf("calculus: %w", err)
	}
	return prog, nil
}

func parse(src string) (*Program, error) {
	toks, err := query.Lex(src)
	if err != nil {
		return nil, err
	}
	p := &rparser{toks: toks}
	prog := &Program{}
	for p.peek().Kind != query.TokEOF {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	if len(prog.Rules) == 0 {
		return nil, fmt.Errorf("empty program")
	}
	return prog, nil
}

func (p *rparser) parseRule() (Rule, error) {
	line := p.peek().Line
	head := p.peek()
	if head.Kind != query.TokIdent {
		return Rule{}, p.errf("expected rule head, got %q", head.Text)
	}
	p.next()
	if err := p.expect("("); err != nil {
		return Rule{}, err
	}
	var headVars []string
	seen := map[string]bool{}
	for {
		t := p.peek()
		if t.Kind != query.TokIdent || t.Text == "_" {
			return Rule{}, p.errf("head arguments must be variables, got %q", t.Text)
		}
		if seen[t.Text] {
			return Rule{}, p.errf("duplicate head variable %q", t.Text)
		}
		seen[t.Text] = true
		headVars = append(headVars, t.Text)
		p.next()
		if p.is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return Rule{}, err
	}
	if err := p.expect(":-"); err != nil {
		return Rule{}, err
	}
	rule := Rule{HeadName: head.Text, HeadVars: headVars, Line: line}
	for {
		// A body item is a relation atom IDENT( ... ) or a comparison.
		if p.peek().Kind == query.TokIdent && p.toks[p.i+1].Kind == query.TokLParen {
			atom, err := p.parseRelAtom()
			if err != nil {
				return Rule{}, err
			}
			rule.Rels = append(rule.Rels, atom)
		} else {
			c, n, err := query.ParseComparison(p.toks[p.i:])
			p.i += n
			if err != nil {
				return Rule{}, err
			}
			rule.Comps = append(rule.Comps, compAtom(c))
		}
		if p.is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expect("."); err != nil {
		return Rule{}, err
	}
	return rule, nil
}

// compAtom is the rule's form of a comparison: a variable against a string
// literal, or the linear form left minus right.
func compAtom(c query.Comparison) CompAtom {
	switch {
	case c.L.IsStr:
		return CompAtom{IsStr: true, Var: c.R.Var, Op: c.Op, StrLit: c.L.Str}
	case c.R.IsStr:
		return CompAtom{IsStr: true, Var: c.L.Var, Op: c.Op, StrLit: c.R.Str}
	}
	return CompAtom{Expr: c.L.Linear.Sub(c.R.Linear), Idents: slices.Concat(c.L.Idents, c.R.Idents), Op: c.Op}
}

func (p *rparser) parseRelAtom() (RelAtom, error) {
	name := p.next().Text
	if err := p.expect("("); err != nil {
		return RelAtom{}, err
	}
	atom := RelAtom{Name: name}
	for {
		t, err := p.parseTerm()
		if err != nil {
			return RelAtom{}, err
		}
		atom.Terms = append(atom.Terms, t)
		if p.is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return RelAtom{}, err
	}
	return atom, nil
}

func (p *rparser) parseTerm() (Term, error) {
	t := p.peek()
	switch {
	case t.Kind == query.TokIdent && t.Text == "_":
		p.next()
		return Term{Kind: TermAnon}, nil
	case t.Kind == query.TokIdent:
		p.next()
		return Term{Kind: TermVar, Var: t.Text}, nil
	case t.Kind == query.TokString:
		p.next()
		return Term{Kind: TermStr, Str: t.Text}, nil
	case t.Kind == query.TokNumber || p.is("-"):
		r, n, err := query.ParseNumber(p.toks[p.i:])
		p.i += n
		if err != nil {
			return Term{}, err
		}
		return Term{Kind: TermRat, Rat: r}, nil
	default:
		return Term{}, p.errf("expected term, got %q", t.Text)
	}
}
