package calculus

import (
	"fmt"
	"strings"
	"unicode"

	"cdb/internal/cqa"
	"cdb/internal/rational"
)

// The rule lexer/parser. Tokens: identifiers, numbers (with optional /
// fraction or decimal point handled at parse time), quoted strings, and
// the punctuation ( ) , . :- = != < <= > >= + - * / _.

type rtokKind int

const (
	rtokEOF rtokKind = iota
	rtokIdent
	rtokNumber
	rtokString
	rtokPunct // ( ) , . :- _ and comparison/arith operators
)

type rtok struct {
	kind rtokKind
	text string
	line int
}

func rlex(src string) ([]rtok, error) {
	var out []rtok
	line := 1
	i := 0
	emit := func(k rtokKind, t string) { out = append(out, rtok{kind: k, text: t, line: line}) }
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '%' || c == '#': // comments
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == ':' && i+1 < len(src) && src[i+1] == '-':
			emit(rtokPunct, ":-")
			i += 2
		case strings.ContainsRune("(),._+-*/", rune(c)):
			// '.' inside a number is handled by the number scanner first;
			// here it is the rule terminator.
			emit(rtokPunct, string(c))
			i++
		case c == '<' || c == '>' || c == '!':
			op := string(c)
			i++
			if i < len(src) && src[i] == '=' {
				op += "="
				i++
			} else if c == '!' {
				return nil, fmt.Errorf("calculus: line %d: '!' must be followed by '='", line)
			}
			emit(rtokPunct, op)
		case c == '=':
			emit(rtokPunct, "=")
			i++
		case c == '"':
			i++
			var b strings.Builder
			for i < len(src) && src[i] != '"' {
				if src[i] == '\n' {
					return nil, fmt.Errorf("calculus: line %d: unterminated string", line)
				}
				if src[i] == '\\' && i+1 < len(src) {
					i++
					// The common escapes decode; any other escaped byte is
					// itself (so \" and \\ work). quoteStr is the inverse.
					switch src[i] {
					case 'n':
						b.WriteByte('\n')
					case 't':
						b.WriteByte('\t')
					case 'r':
						b.WriteByte('\r')
					default:
						b.WriteByte(src[i])
					}
					i++
					continue
				}
				b.WriteByte(src[i])
				i++
			}
			if i >= len(src) {
				return nil, fmt.Errorf("calculus: line %d: unterminated string", line)
			}
			i++
			emit(rtokString, b.String())
		case c >= '0' && c <= '9':
			start := i
			for i < len(src) && (src[i] >= '0' && src[i] <= '9') {
				i++
			}
			if i < len(src) && src[i] == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9' {
				i++
				for i < len(src) && src[i] >= '0' && src[i] <= '9' {
					i++
				}
			}
			emit(rtokNumber, src[start:i])
		case unicode.IsLetter(rune(c)):
			start := i
			for i < len(src) && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				i++
			}
			emit(rtokIdent, src[start:i])
		default:
			return nil, fmt.Errorf("calculus: line %d: unexpected character %q", line, c)
		}
	}
	emit(rtokEOF, "")
	return out, nil
}

type rparser struct {
	toks []rtok
	i    int
}

func (p *rparser) peek() rtok { return p.toks[p.i] }
func (p *rparser) next() rtok { t := p.toks[p.i]; p.i++; return t }

func (p *rparser) errf(format string, args ...any) error {
	return fmt.Errorf("calculus: line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

func (p *rparser) expectPunct(t string) error {
	tok := p.peek()
	if tok.kind != rtokPunct || tok.text != t {
		return p.errf("expected %q, got %q", t, tok.text)
	}
	p.next()
	return nil
}

// Parse parses a rule program.
func Parse(src string) (*Program, error) {
	toks, err := rlex(src)
	if err != nil {
		return nil, err
	}
	p := &rparser{toks: toks}
	prog := &Program{}
	for p.peek().kind != rtokEOF {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	if len(prog.Rules) == 0 {
		return nil, fmt.Errorf("calculus: empty program")
	}
	return prog, nil
}

func (p *rparser) parseRule() (Rule, error) {
	line := p.peek().line
	head := p.peek()
	if head.kind != rtokIdent {
		return Rule{}, p.errf("expected rule head, got %q", head.text)
	}
	p.next()
	if err := p.expectPunct("("); err != nil {
		return Rule{}, err
	}
	var headVars []string
	seen := map[string]bool{}
	for {
		t := p.peek()
		if t.kind != rtokIdent {
			return Rule{}, p.errf("head arguments must be variables, got %q", t.text)
		}
		if seen[t.text] {
			return Rule{}, p.errf("duplicate head variable %q", t.text)
		}
		seen[t.text] = true
		headVars = append(headVars, t.text)
		p.next()
		if p.peek().kind == rtokPunct && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return Rule{}, err
	}
	if err := p.expectPunct(":-"); err != nil {
		return Rule{}, err
	}
	rule := Rule{HeadName: head.text, HeadVars: headVars, Line: line}
	for {
		// A body item is a relation atom IDENT( ... ) or a comparison.
		if p.peek().kind == rtokIdent && p.toks[p.i+1].kind == rtokPunct && p.toks[p.i+1].text == "(" {
			atom, err := p.parseRelAtom()
			if err != nil {
				return Rule{}, err
			}
			rule.Rels = append(rule.Rels, atom)
		} else {
			comp, err := p.parseCompAtom()
			if err != nil {
				return Rule{}, err
			}
			rule.Comps = append(rule.Comps, comp)
		}
		if p.peek().kind == rtokPunct && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct("."); err != nil {
		return Rule{}, err
	}
	return rule, nil
}

func (p *rparser) parseRelAtom() (RelAtom, error) {
	name := p.next().text
	if err := p.expectPunct("("); err != nil {
		return RelAtom{}, err
	}
	atom := RelAtom{Name: name}
	for {
		t, err := p.parseTerm()
		if err != nil {
			return RelAtom{}, err
		}
		atom.Terms = append(atom.Terms, t)
		if p.peek().kind == rtokPunct && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return RelAtom{}, err
	}
	return atom, nil
}

func (p *rparser) parseTerm() (Term, error) {
	t := p.peek()
	switch {
	case t.kind == rtokPunct && t.text == "_":
		p.next()
		return Term{Kind: TermAnon}, nil
	case t.kind == rtokIdent:
		p.next()
		return Term{Kind: TermVar, Var: t.text}, nil
	case t.kind == rtokString:
		p.next()
		return Term{Kind: TermStr, Str: t.text}, nil
	case t.kind == rtokNumber || (t.kind == rtokPunct && t.text == "-"):
		r, err := p.parseRatConst()
		if err != nil {
			return Term{}, err
		}
		return Term{Kind: TermRat, Rat: r}, nil
	default:
		return Term{}, p.errf("expected term, got %q", t.text)
	}
}

func (p *rparser) parseRatConst() (rational.Rat, error) {
	neg := false
	if p.peek().kind == rtokPunct && p.peek().text == "-" {
		neg = true
		p.next()
	}
	t := p.peek()
	if t.kind != rtokNumber {
		return rational.Rat{}, p.errf("expected number, got %q", t.text)
	}
	p.next()
	numStr := t.text
	if p.peek().kind == rtokPunct && p.peek().text == "/" {
		p.next()
		d := p.peek()
		if d.kind != rtokNumber {
			return rational.Rat{}, p.errf("expected denominator, got %q", d.text)
		}
		p.next()
		numStr += "/" + d.text
	}
	r, err := rational.Parse(numStr)
	if err != nil {
		return rational.Rat{}, err
	}
	if neg {
		r = r.Neg()
	}
	return r, nil
}

// parseCompAtom parses lhs OP rhs where each side is a linear combination
// of variables and rational constants, or a quoted string / variable (for
// string comparisons).
func (p *rparser) parseCompAtom() (CompAtom, error) {
	lTerms, lConst, lStr, lIsStr, lVar, err := p.parseCompSide()
	if err != nil {
		return CompAtom{}, err
	}
	opTok := p.peek()
	if opTok.kind != rtokPunct {
		return CompAtom{}, p.errf("expected comparison operator, got %q", opTok.text)
	}
	op, err := cqa.ParseCompOp(opTok.text)
	if err != nil {
		return CompAtom{}, p.errf("expected comparison operator, got %q", opTok.text)
	}
	p.next()
	rTerms, rConst, rStr, rIsStr, rVar, err := p.parseCompSide()
	if err != nil {
		return CompAtom{}, err
	}
	// String comparison cases.
	if lIsStr || rIsStr {
		if op != cqa.OpEq && op != cqa.OpNe {
			return CompAtom{}, p.errf("operator %s not defined on strings", op)
		}
		switch {
		case lIsStr && rVar != "":
			return CompAtom{IsStr: true, Var: rVar, Op: op, StrLit: lStr}, nil
		case rIsStr && lVar != "":
			return CompAtom{IsStr: true, Var: lVar, Op: op, StrLit: rStr}, nil
		default:
			return CompAtom{}, p.errf("string comparison needs one variable side")
		}
	}
	// Linear: lhs - rhs OP 0.
	terms := append([]LinTerm{}, lTerms...)
	for _, t := range rTerms {
		terms = append(terms, LinTerm{Coef: t.Coef.Neg(), Var: t.Var})
	}
	return CompAtom{Terms: terms, Const: lConst.Sub(rConst), Op: op}, nil
}

// parseCompSide parses a linear combination; it also reports whether the
// side was a lone string literal or a lone variable.
func (p *rparser) parseCompSide() (terms []LinTerm, c rational.Rat, str string, isStr bool, loneVar string, err error) {
	if p.peek().kind == rtokString {
		s := p.next().text
		return nil, rational.Zero, s, true, "", nil
	}
	first := true
	nVars := 0
	for {
		sign := rational.One
		t := p.peek()
		if t.kind == rtokPunct && (t.text == "+" || t.text == "-") {
			if t.text == "-" {
				sign = rational.FromInt(-1)
			}
			p.next()
		} else if !first {
			break
		}
		t = p.peek()
		switch {
		case t.kind == rtokNumber:
			r, perr := p.parseRatConst()
			if perr != nil {
				return nil, rational.Rat{}, "", false, "", perr
			}
			// Optional * var or adjacent var.
			if p.peek().kind == rtokPunct && p.peek().text == "*" {
				p.next()
			}
			if p.peek().kind == rtokIdent {
				v := p.next().text
				terms = append(terms, LinTerm{Coef: r.Mul(sign), Var: v})
				nVars++
			} else {
				c = c.Add(r.Mul(sign))
			}
		case t.kind == rtokIdent:
			p.next()
			terms = append(terms, LinTerm{Coef: sign, Var: t.text})
			nVars++
			if first && sign.Equal(rational.One) {
				loneVar = t.text
			}
		default:
			return nil, rational.Rat{}, "", false, "", p.errf("expected term, got %q", t.text)
		}
		first = false
		nxt := p.peek()
		if nxt.kind == rtokPunct && (nxt.text == "+" || nxt.text == "-") {
			continue
		}
		break
	}
	if nVars != 1 || len(terms) != 1 || !c.IsZero() {
		loneVar = ""
	}
	return terms, c, "", false, loneVar, nil
}
