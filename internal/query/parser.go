package query

import (
	"fmt"
	"strings"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/rational"
)

// Program is a parsed multi-step query: a sequence of assignments
// "Name = <operator expression>". Statements may reference base relations
// and the targets of earlier statements.
type Program struct {
	Stmts []Stmt
}

// Stmt is one assignment.
type Stmt struct {
	Target string
	Expr   *Expr
	Line   int
}

// ExprKind discriminates the parsed operator expression.
type ExprKind int

const (
	// ExprScan references a named relation.
	ExprScan ExprKind = iota
	// ExprSelect is "select <conds> from <src>".
	ExprSelect
	// ExprProject is "project <src> on a, b, ...".
	ExprProject
	// ExprJoin is "join <src> and <src>".
	ExprJoin
	// ExprUnion is "union <src> and <src>".
	ExprUnion
	// ExprMinus is "minus <src> and <src>" (also spelled "diff").
	ExprMinus
	// ExprRename is "rename a to b in <src>".
	ExprRename
	// ExprBufferJoin is "buffer-join <src> and <src> within <dist>".
	ExprBufferJoin
	// ExprKNearest is "k-nearest <k> in <src> to point(x, y)".
	ExprKNearest
)

// Expr is a parsed operator expression. Conditions are kept in surface
// form (rawAtom) and bound against schemas at evaluation time, because the
// C/R flag and attribute types of intermediate results are only known then.
type Expr struct {
	Kind      ExprKind
	Name      string // ExprScan
	Src, Src2 *Expr
	Conds     []rawAtom // ExprSelect
	Cols      []string  // ExprProject
	Old, New  string    // ExprRename
	Dist      rational.Rat
	K         int
	PointX    rational.Rat
	PointY    rational.Rat
}

// rawAtom is one comparison in surface form: linear combination OP linear
// combination, where operands may also be bare words or quoted strings.
type rawAtom struct {
	l, r condOperand
	op   string
	line int
}

// condOperand is a parsed side of a comparison: either a linear expression
// over identifiers, or a string literal, or a single bare identifier
// (which the binder may resolve to an attribute or a string literal).
type condOperand struct {
	linear    constraint.Expr
	idents    []string // identifiers appearing in linear
	str       string
	isStr     bool
	singleVar string // non-empty when the operand is exactly one bare identifier
}

type parser struct {
	toks []token
	i    int
}

// Parse parses a multi-statement query program.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	for p.peek().kind != tokEOF {
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, st)
	}
	if len(prog.Stmts) == 0 {
		return nil, fmt.Errorf("query: empty program")
	}
	return prog, nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) line() int   { return p.peek().line }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("query: line %d: %s", p.line(), fmt.Sprintf(format, args...))
}

func (p *parser) expectIdent(words ...string) (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected %s, got %q", strings.Join(words, " or "), t.text)
	}
	if len(words) > 0 {
		lower := strings.ToLower(t.text)
		ok := false
		for _, w := range words {
			if lower == w {
				ok = true
			}
		}
		if !ok {
			return "", p.errf("expected %s, got %q", strings.Join(words, " or "), t.text)
		}
	}
	p.next()
	return t.text, nil
}

func (p *parser) expectOp(op string) error {
	t := p.peek()
	if t.kind != tokOp || t.text != op {
		return p.errf("expected %q, got %q", op, t.text)
	}
	p.next()
	return nil
}

func (p *parser) parseStmt() (Stmt, error) {
	line := p.line()
	t := p.peek()
	if t.kind != tokIdent {
		return Stmt{}, p.errf("expected statement target, got %q", t.text)
	}
	target := p.next().text
	if err := p.expectOp("="); err != nil {
		return Stmt{}, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return Stmt{}, err
	}
	return Stmt{Target: target, Expr: e, Line: line}, nil
}

func (p *parser) parseExpr() (*Expr, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.errf("expected operator or relation name, got %q", t.text)
	}
	switch strings.ToLower(t.text) {
	case "select":
		p.next()
		return p.parseSelect()
	case "project":
		p.next()
		return p.parseProject()
	case "join", "union", "minus", "diff", "intersect":
		kw := strings.ToLower(p.next().text)
		return p.parseBinary(kw)
	case "rename":
		p.next()
		return p.parseRename()
	case "buffer-join":
		p.next()
		return p.parseBufferJoin()
	case "k-nearest":
		p.next()
		return p.parseKNearest()
	default:
		name := p.next().text
		return &Expr{Kind: ExprScan, Name: name}, nil
	}
}

// parseSource parses a relation reference: a name or a parenthesised
// expression.
func (p *parser) parseSource() (*Expr, error) {
	if p.peek().kind == tokLParen {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokRParen {
			return nil, p.errf("expected ')', got %q", p.peek().text)
		}
		p.next()
		return e, nil
	}
	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.errf("expected relation name, got %q", t.text)
	}
	// Reserved words cannot be bare sources.
	switch strings.ToLower(t.text) {
	case "select", "project", "join", "union", "minus", "diff", "rename",
		"buffer-join", "k-nearest", "intersect":
		return p.parseExpr()
	}
	p.next()
	return &Expr{Kind: ExprScan, Name: t.text}, nil
}

func (p *parser) parseSelect() (*Expr, error) {
	var conds []rawAtom
	for {
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		conds = append(conds, a)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expectIdent("from"); err != nil {
		return nil, err
	}
	src, err := p.parseSource()
	if err != nil {
		return nil, err
	}
	return &Expr{Kind: ExprSelect, Src: src, Conds: conds}, nil
}

func (p *parser) parseProject() (*Expr, error) {
	src, err := p.parseSource()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectIdent("on"); err != nil {
		return nil, err
	}
	var cols []string
	for {
		t := p.peek()
		if t.kind != tokIdent {
			return nil, p.errf("expected column name, got %q", t.text)
		}
		cols = append(cols, p.next().text)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	return &Expr{Kind: ExprProject, Src: src, Cols: cols}, nil
}

func (p *parser) parseBinary(kw string) (*Expr, error) {
	l, err := p.parseSource()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectIdent("and"); err != nil {
		return nil, err
	}
	r, err := p.parseSource()
	if err != nil {
		return nil, err
	}
	kind := map[string]ExprKind{
		"join": ExprJoin, "union": ExprUnion,
		"minus": ExprMinus, "diff": ExprMinus,
	}[kw]
	if kw == "intersect" {
		// Intersection is the natural join of union-compatible relations;
		// evaluation enforces schema equality.
		kind = ExprJoin
	}
	return &Expr{Kind: kind, Src: l, Src2: r, Name: kw}, nil
}

func (p *parser) parseRename() (*Expr, error) {
	old, err := p.expectIdentAny()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectIdent("to"); err != nil {
		return nil, err
	}
	newName, err := p.expectIdentAny()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectIdent("in"); err != nil {
		return nil, err
	}
	src, err := p.parseSource()
	if err != nil {
		return nil, err
	}
	return &Expr{Kind: ExprRename, Src: src, Old: old, New: newName}, nil
}

func (p *parser) expectIdentAny() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.next()
	return t.text, nil
}

func (p *parser) parseBufferJoin() (*Expr, error) {
	l, err := p.parseSource()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectIdent("and"); err != nil {
		return nil, err
	}
	r, err := p.parseSource()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectIdent("within"); err != nil {
		return nil, err
	}
	d, err := p.parseNumber()
	if err != nil {
		return nil, err
	}
	return &Expr{Kind: ExprBufferJoin, Src: l, Src2: r, Dist: d}, nil
}

func (p *parser) parseKNearest() (*Expr, error) {
	kRat, err := p.parseNumber()
	if err != nil {
		return nil, err
	}
	k64, ok := kRat.Int64()
	if !ok || k64 < 0 {
		return nil, p.errf("k must be a non-negative integer, got %s", kRat)
	}
	if _, err := p.expectIdent("in"); err != nil {
		return nil, err
	}
	src, err := p.parseSource()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectIdent("to"); err != nil {
		return nil, err
	}
	if _, err := p.expectIdent("point"); err != nil {
		return nil, err
	}
	if p.peek().kind != tokLParen {
		return nil, p.errf("expected '(' after point")
	}
	p.next()
	x, err := p.parseSignedNumber()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokComma {
		return nil, p.errf("expected ',' in point")
	}
	p.next()
	y, err := p.parseSignedNumber()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokRParen {
		return nil, p.errf("expected ')' after point")
	}
	p.next()
	return &Expr{Kind: ExprKNearest, Src: src, K: int(k64), PointX: x, PointY: y}, nil
}

// parseNumber parses NUMBER, NUMBER/NUMBER, or a decimal.
func (p *parser) parseNumber() (rational.Rat, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return rational.Rat{}, p.errf("expected number, got %q", t.text)
	}
	p.next()
	if p.peek().kind == tokOp && p.peek().text == "/" {
		p.next()
		den := p.peek()
		if den.kind != tokNumber {
			return rational.Rat{}, p.errf("expected denominator, got %q", den.text)
		}
		p.next()
		return rational.Parse(t.text + "/" + den.text)
	}
	return rational.Parse(t.text)
}

func (p *parser) parseSignedNumber() (rational.Rat, error) {
	neg := false
	if p.peek().kind == tokOp && p.peek().text == "-" {
		neg = true
		p.next()
	}
	n, err := p.parseNumber()
	if err != nil {
		return rational.Rat{}, err
	}
	if neg {
		return n.Neg(), nil
	}
	return n, nil
}

// parseAtom parses one comparison: operand OP operand.
func (p *parser) parseAtom() (rawAtom, error) {
	line := p.line()
	l, err := p.parseOperand()
	if err != nil {
		return rawAtom{}, err
	}
	t := p.peek()
	if t.kind != tokOp {
		return rawAtom{}, p.errf("expected comparison operator, got %q", t.text)
	}
	switch t.text {
	case "=", "!=", "<", "<=", ">", ">=":
	default:
		return rawAtom{}, p.errf("expected comparison operator, got %q", t.text)
	}
	op := p.next().text
	r, err := p.parseOperand()
	if err != nil {
		return rawAtom{}, err
	}
	return rawAtom{l: l, r: r, op: op, line: line}, nil
}

// parseOperand parses a comparison side: a quoted string, or a linear
// combination of numbers and identifiers.
func (p *parser) parseOperand() (condOperand, error) {
	if p.peek().kind == tokString {
		s := p.next().text
		return condOperand{str: s, isStr: true}, nil
	}
	expr, idents, err := p.parseLinear()
	if err != nil {
		return condOperand{}, err
	}
	op := condOperand{linear: expr, idents: idents}
	if len(idents) == 1 && expr.Equal(constraint.Var(idents[0])) {
		op.singleVar = idents[0]
	}
	return op, nil
}

// parseLinear parses sum of terms: term := [-] coefficient [*] ident |
// [-] coefficient | [-] ident, coefficient := NUMBER [ / NUMBER ].
func (p *parser) parseLinear() (constraint.Expr, []string, error) {
	var expr constraint.Expr
	var idents []string
	first := true
	for {
		sign := rational.One
		t := p.peek()
		if t.kind == tokOp && (t.text == "+" || t.text == "-") {
			if t.text == "-" {
				sign = rational.FromInt(-1)
			}
			p.next()
		} else if !first {
			break
		}
		term, id, err := p.parseTerm()
		if err != nil {
			return constraint.Expr{}, nil, err
		}
		expr = expr.Add(term.Scale(sign))
		if id != "" {
			idents = append(idents, id)
		}
		first = false
		t = p.peek()
		if t.kind == tokOp && (t.text == "+" || t.text == "-") {
			continue
		}
		break
	}
	if first {
		return constraint.Expr{}, nil, p.errf("expected expression, got %q", p.peek().text)
	}
	return expr, dedupStrings(idents), nil
}

// reservedWords cannot be used as bare attribute names inside conditions:
// they delimit the surrounding statement grammar.
var reservedWords = map[string]bool{
	"select": true, "project": true, "join": true, "union": true,
	"minus": true, "diff": true, "intersect": true, "rename": true,
	"from": true, "on": true, "and": true, "to": true, "in": true,
	"within": true, "point": true, "buffer-join": true, "k-nearest": true,
}

func isReserved(text string) bool {
	return reservedWords[strings.ToLower(text)]
}

// parseTerm parses one multiplicative term.
func (p *parser) parseTerm() (constraint.Expr, string, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		coef, err := p.parseNumber()
		if err != nil {
			return constraint.Expr{}, "", err
		}
		// Optional '*' then ident, or ident directly ("2x"). Reserved
		// words end the expression instead of becoming variables.
		if p.peek().kind == tokOp && p.peek().text == "*" {
			p.next()
			id := p.peek()
			if id.kind != tokIdent || isReserved(id.text) {
				return constraint.Expr{}, "", p.errf("expected identifier after '*', got %q", id.text)
			}
			p.next()
			return constraint.Var(id.text).Scale(coef), id.text, nil
		}
		if p.peek().kind == tokIdent && !isReserved(p.peek().text) {
			id := p.next().text
			return constraint.Var(id).Scale(coef), id, nil
		}
		return constraint.Const(coef), "", nil
	case tokIdent:
		if isReserved(t.text) {
			return constraint.Expr{}, "", p.errf("expected term, got reserved word %q", t.text)
		}
		p.next()
		return constraint.Var(t.text), t.text, nil
	default:
		return constraint.Expr{}, "", p.errf("expected term, got %q", t.text)
	}
}

func dedupStrings(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// BaseRelations returns the names of base relations the program reads
// (targets of earlier statements excluded).
func (prog *Program) BaseRelations() []string {
	defined := map[string]bool{}
	seen := map[string]bool{}
	var out []string
	var walk func(e *Expr)
	walk = func(e *Expr) {
		if e == nil {
			return
		}
		if e.Kind == ExprScan {
			if !defined[e.Name] && !seen[e.Name] {
				seen[e.Name] = true
				out = append(out, e.Name)
			}
			return
		}
		walk(e.Src)
		walk(e.Src2)
	}
	for _, st := range prog.Stmts {
		walk(st.Expr)
		defined[st.Target] = true
	}
	return out
}

// String reconstructs a canonical surface form of the expression.
func (e *Expr) String() string {
	switch e.Kind {
	case ExprScan:
		return e.Name
	case ExprSelect:
		parts := make([]string, len(e.Conds))
		for i, a := range e.Conds {
			parts[i] = a.String()
		}
		return fmt.Sprintf("select %s from %s", strings.Join(parts, ", "), e.Src)
	case ExprProject:
		return fmt.Sprintf("project %s on %s", e.Src, strings.Join(e.Cols, ", "))
	case ExprJoin:
		return fmt.Sprintf("join %s and %s", e.Src, e.Src2)
	case ExprUnion:
		return fmt.Sprintf("union %s and %s", e.Src, e.Src2)
	case ExprMinus:
		return fmt.Sprintf("minus %s and %s", e.Src, e.Src2)
	case ExprRename:
		return fmt.Sprintf("rename %s to %s in %s", e.Old, e.New, e.Src)
	case ExprBufferJoin:
		return fmt.Sprintf("buffer-join %s and %s within %s", e.Src, e.Src2, e.Dist)
	case ExprKNearest:
		return fmt.Sprintf("k-nearest %d in %s to point(%s, %s)", e.K, e.Src, e.PointX, e.PointY)
	default:
		return "?"
	}
}

func (a rawAtom) String() string {
	return fmt.Sprintf("%s %s %s", a.l, a.op, a.r)
}

func (o condOperand) String() string {
	if o.isStr {
		return fmt.Sprintf("%q", o.str)
	}
	return o.linear.String()
}

// bindAtom resolves a rawAtom against a schema into a cqa.Atom, applying
// the bare-word rule: in a comparison against a string attribute, a bare
// identifier that is not itself an attribute is a string literal (the
// paper writes select LandID=A).
func bindAtom(a rawAtom, s cqaSchema) (cqa.Atom, error) {
	isStrAttr := func(name string) bool {
		at, ok := s.Attr(name)
		return ok && at.Type == schemaString
	}
	// String-side resolution.
	strSide := func(attr string, other condOperand) (cqa.Atom, error) {
		op, err := cqa.ParseCompOp(a.op)
		if err != nil {
			return nil, err
		}
		if op != cqa.OpEq && op != cqa.OpNe {
			return nil, fmt.Errorf("query: line %d: operator %q not defined on string attribute %q", a.line, a.op, attr)
		}
		if other.isStr {
			return cqa.StringAtom{Attr: attr, Op: op, Lit: other.str, IsLit: true}, nil
		}
		if other.singleVar != "" {
			if isStrAttr(other.singleVar) {
				return cqa.StringAtom{Attr: attr, Op: op, OtherAttr: other.singleVar}, nil
			}
			if _, ok := s.Attr(other.singleVar); !ok {
				// Bare word: string literal.
				return cqa.StringAtom{Attr: attr, Op: op, Lit: other.singleVar, IsLit: true}, nil
			}
		}
		return nil, fmt.Errorf("query: line %d: cannot compare string attribute %q with %s", a.line, attr, other)
	}
	lStr := a.l.singleVar != "" && isStrAttr(a.l.singleVar)
	rStr := a.r.singleVar != "" && isStrAttr(a.r.singleVar)
	switch {
	case a.l.isStr && a.r.isStr:
		return nil, fmt.Errorf("query: line %d: comparison between two literals", a.line)
	case lStr:
		return strSide(a.l.singleVar, a.r)
	case rStr:
		return strSide(a.r.singleVar, a.l)
	case a.l.isStr || a.r.isStr:
		return nil, fmt.Errorf("query: line %d: string literal compared with non-string expression", a.line)
	}
	// Linear comparison: all identifiers must be rational attributes.
	for _, ids := range [][]string{a.l.idents, a.r.idents} {
		for _, id := range ids {
			at, ok := s.Attr(id)
			if !ok {
				return nil, fmt.Errorf("query: line %d: unknown attribute %q", a.line, id)
			}
			if at.Type != schemaRational {
				return nil, fmt.Errorf("query: line %d: attribute %q is not rational", a.line, id)
			}
		}
	}
	op, err := cqa.ParseCompOp(a.op)
	if err != nil {
		return nil, err
	}
	return cqa.Linear(a.l.linear, op, a.r.linear), nil
}
