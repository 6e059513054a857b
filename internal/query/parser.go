package query

import (
	"fmt"
	"strconv"
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
// form (Comparison) and bound against schemas at evaluation time, because
// the C/R flag and attribute types of intermediate results are only known
// then.
type Expr struct {
	Kind      ExprKind
	Name      string // ExprScan
	Src, Src2 *Expr
	Conds     []Comparison // ExprSelect
	Cols      []string     // ExprProject
	Old, New  string       // ExprRename
	Dist      rational.Rat
	K         int
	PointX    rational.Rat
	PointY    rational.Rat
}

// Comparison is one comparison in surface form, L Op R. It is the one
// comparison grammar of the language: a select condition, a stored
// constraint and a rule's comparison atom (internal/calculus) all parse
// into it. A string literal compares, by = or !=, with one bare
// identifier; any other operand is a linear expression.
type Comparison struct {
	L, R Operand
	Op   cqa.CompOp
	Line int
}

// Operand is a parsed side of a comparison: a string literal (IsStr), or a
// linear expression over identifiers, which is a single bare identifier
// (Var) when the binder may resolve it to an attribute or a string literal.
type Operand struct {
	Linear constraint.Expr
	Idents []string // identifiers appearing in Linear, cancelled ones too
	Str    string
	IsStr  bool
	Var    string // non-empty when the operand is exactly one bare identifier
}

type parser struct {
	toks []Token
	i    int
}

// Parse parses a multi-statement query program.
func Parse(src string) (*Program, error) { return named(parseProgram(src)) }

// named prefixes a parse error, which names only its line, with this
// face's name: the grammar it shares with internal/calculus does not know
// which face called it.
func named[T any](v T, err error) (T, error) {
	if err != nil {
		var zero T
		return zero, fmt.Errorf("query: %w", err)
	}
	return v, nil
}

func parseProgram(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	for p.peek().Kind != TokEOF {
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, st)
	}
	if len(prog.Stmts) == 0 {
		return nil, fmt.Errorf("empty program")
	}
	return prog, nil
}

// ParseComparison parses the comparison at the start of toks, a stream Lex
// made, and returns it with the number of tokens it read.
func ParseComparison(toks []Token) (Comparison, int, error) {
	p := parser{toks: toks}
	c, err := p.parseAtom()
	return c, p.i, err
}

// ParseNumber parses the signed number ([-] NUMBER [/ NUMBER]) at the start
// of toks, a stream Lex made, and returns it with the number of tokens it
// read.
func ParseNumber(toks []Token) (rational.Rat, int, error) {
	p := parser{toks: toks}
	n, err := p.parseSignedNumber()
	return n, p.i, err
}

func (p *parser) peek() Token { return p.toks[p.i] }
func (p *parser) next() Token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) line() int   { return p.peek().Line }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.line(), fmt.Sprintf(format, args...))
}

func (p *parser) expectIdent(words ...string) (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errf("expected %s, got %q", strings.Join(words, " or "), t.Text)
	}
	if len(words) > 0 {
		lower := strings.ToLower(t.Text)
		ok := false
		for _, w := range words {
			if lower == w {
				ok = true
			}
		}
		if !ok {
			return "", p.errf("expected %s, got %q", strings.Join(words, " or "), t.Text)
		}
	}
	p.next()
	return t.Text, nil
}

func (p *parser) expectOp(op string) error {
	t := p.peek()
	if t.Kind != TokOp || t.Text != op {
		return p.errf("expected %q, got %q", op, t.Text)
	}
	p.next()
	return nil
}

func (p *parser) parseStmt() (Stmt, error) {
	line := p.line()
	t := p.peek()
	if t.Kind != TokIdent {
		return Stmt{}, p.errf("expected statement target, got %q", t.Text)
	}
	target := p.next().Text
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
	if t.Kind != TokIdent {
		return nil, p.errf("expected operator or relation name, got %q", t.Text)
	}
	switch strings.ToLower(t.Text) {
	case "select":
		p.next()
		return p.parseSelect()
	case "project":
		p.next()
		return p.parseProject()
	case "join", "union", "minus", "diff", "intersect":
		kw := strings.ToLower(p.next().Text)
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
		name := p.next().Text
		return &Expr{Kind: ExprScan, Name: name}, nil
	}
}

// parseSource parses a relation reference: a name or a parenthesised
// expression.
func (p *parser) parseSource() (*Expr, error) {
	if p.peek().Kind == TokLParen {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.peek().Kind != TokRParen {
			return nil, p.errf("expected ')', got %q", p.peek().Text)
		}
		p.next()
		return e, nil
	}
	t := p.peek()
	if t.Kind != TokIdent {
		return nil, p.errf("expected relation name, got %q", t.Text)
	}
	// Reserved words cannot be bare sources.
	switch strings.ToLower(t.Text) {
	case "select", "project", "join", "union", "minus", "diff", "rename",
		"buffer-join", "k-nearest", "intersect":
		return p.parseExpr()
	}
	p.next()
	return &Expr{Kind: ExprScan, Name: t.Text}, nil
}

func (p *parser) parseSelect() (*Expr, error) {
	var conds []Comparison
	for {
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		conds = append(conds, a)
		if p.peek().Kind == TokComma {
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
		if t.Kind != TokIdent {
			return nil, p.errf("expected column name, got %q", t.Text)
		}
		cols = append(cols, p.next().Text)
		if p.peek().Kind == TokComma {
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
	if t.Kind != TokIdent {
		return "", p.errf("expected identifier, got %q", t.Text)
	}
	p.next()
	return t.Text, nil
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
	if p.peek().Kind != TokLParen {
		return nil, p.errf("expected '(' after point")
	}
	p.next()
	x, err := p.parseSignedNumber()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokComma {
		return nil, p.errf("expected ',' in point")
	}
	p.next()
	y, err := p.parseSignedNumber()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokRParen {
		return nil, p.errf("expected ')' after point")
	}
	p.next()
	return &Expr{Kind: ExprKNearest, Src: src, K: int(k64), PointX: x, PointY: y}, nil
}

// parseNumber parses NUMBER, NUMBER/NUMBER, or a decimal.
func (p *parser) parseNumber() (rational.Rat, error) {
	t := p.peek()
	if t.Kind != TokNumber {
		return rational.Rat{}, p.errf("expected number, got %q", t.Text)
	}
	p.next()
	if p.peek().Kind == TokOp && p.peek().Text == "/" {
		p.next()
		den := p.peek()
		if den.Kind != TokNumber {
			return rational.Rat{}, p.errf("expected denominator, got %q", den.Text)
		}
		p.next()
		return p.rat(t.Text + "/" + den.Text)
	}
	return p.rat(t.Text)
}

// rat parses the text of a number the parser has just read.
func (p *parser) rat(text string) (rational.Rat, error) {
	r, err := rational.Parse(text)
	if err != nil {
		return rational.Rat{}, fmt.Errorf("line %d: %w", p.toks[p.i-1].Line, err)
	}
	return r, nil
}

func (p *parser) parseSignedNumber() (rational.Rat, error) {
	neg := false
	if p.peek().Kind == TokOp && p.peek().Text == "-" {
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
func (p *parser) parseAtom() (Comparison, error) {
	line := p.line()
	l, err := p.parseOperand()
	if err != nil {
		return Comparison{}, err
	}
	t := p.peek()
	op, err := cqa.ParseCompOp(t.Text)
	if t.Kind != TokOp || err != nil {
		return Comparison{}, p.errf("expected comparison operator, got %q", t.Text)
	}
	p.next()
	r, err := p.parseOperand()
	if err != nil {
		return Comparison{}, err
	}
	if l.IsStr || r.IsStr {
		if op != cqa.OpEq && op != cqa.OpNe {
			return Comparison{}, fmt.Errorf("line %d: operator %s not defined on strings", line, op)
		}
		if l.Var == "" && r.Var == "" {
			return Comparison{}, fmt.Errorf("line %d: a string literal compares with one identifier", line)
		}
	}
	return Comparison{L: l, R: r, Op: op, Line: line}, nil
}

// parseOperand parses a comparison side: a quoted string, or a linear
// combination of numbers and identifiers.
func (p *parser) parseOperand() (Operand, error) {
	if p.peek().Kind == TokString {
		return Operand{Str: p.next().Text, IsStr: true}, nil
	}
	expr, idents, err := p.parseLinear()
	if err != nil {
		return Operand{}, err
	}
	op := Operand{Linear: expr, Idents: idents}
	if ts := expr.Terms(); len(idents) == 1 && len(ts) == 1 && ts[0].Coef.Equal(rational.One) && expr.ConstTerm().IsZero() {
		op.Var = idents[0]
	}
	return op, nil
}

// parseLinear parses sum of terms: term := [-] coefficient [*] ident |
// [-] coefficient | [-] ident, coefficient := NUMBER [ / NUMBER ].
func (p *parser) parseLinear() (constraint.Expr, []string, error) {
	var expr constraint.Expr
	var idents []string
	for first := true; ; first = false {
		t := p.peek()
		neg := t.Kind == TokOp && t.Text == "-"
		if neg || t.Kind == TokOp && t.Text == "+" {
			p.next()
		} else if !first {
			return expr, dedupStrings(idents), nil
		}
		term, id, err := p.parseTerm()
		if err != nil {
			return constraint.Expr{}, nil, err
		}
		if neg {
			term = term.Neg()
		}
		if first {
			expr = term
		} else {
			expr = expr.Add(term)
		}
		if id != "" {
			idents = append(idents, id)
		}
	}
}

// reservedWords delimit the statement grammar: one written apart from
// the number before it ends the coefficient ("select x >= 2 from R").
// Everywhere else a keyword is an identifier, so "2in", "2*in" and "in"
// name the variable in, as a rule may.
var reservedWords = map[string]bool{
	"select": true, "project": true, "join": true, "union": true,
	"minus": true, "diff": true, "intersect": true, "rename": true,
	"from": true, "on": true, "and": true, "to": true, "in": true,
	"within": true, "point": true, "buffer-join": true, "k-nearest": true,
}

// parseTerm parses one multiplicative term.
func (p *parser) parseTerm() (constraint.Expr, string, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		coef, err := p.parseNumber()
		if err != nil {
			return constraint.Expr{}, "", err
		}
		// Optional '*' then ident, or ident directly ("2x", "2 x").
		if p.peek().Kind == TokOp && p.peek().Text == "*" {
			p.next()
			if p.peek().Kind != TokIdent {
				return constraint.Expr{}, "", p.errf("expected identifier after '*', got %q", p.peek().Text)
			}
		} else if last, id := p.toks[p.i-1], p.peek(); id.Kind != TokIdent ||
			reservedWords[strings.ToLower(id.Text)] && id.Pos != last.Pos+len(last.Text) {
			return constraint.Const(coef), "", nil
		}
		id := p.next().Text
		return constraint.Var(id).Scale(coef), id, nil
	case TokIdent:
		p.next()
		return constraint.Var(t.Text), t.Text, nil
	default:
		return constraint.Expr{}, "", p.errf("expected term, got %q", t.Text)
	}
}

func dedupStrings(in []string) []string {
	if len(in) < 2 {
		return in
	}
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

func (a Comparison) String() string {
	return fmt.Sprintf("%s %s %s", a.L, a.Op, a.R)
}

func (o Operand) String() string {
	if o.IsStr {
		return strconv.Quote(o.Str)
	}
	return o.Linear.String()
}

// bindAtom resolves a Comparison against a schema into a cqa.Atom, applying
// the bare-word rule: in a comparison against a string attribute, a bare
// identifier that is not itself an attribute is a string literal (the
// paper writes select LandID=A).
func bindAtom(a Comparison, s cqaSchema) (cqa.Atom, error) {
	isStrAttr := func(name string) bool {
		at, ok := s.Attr(name)
		return ok && at.Type == schemaString
	}
	// String-side resolution.
	strSide := func(attr string, other Operand) (cqa.Atom, error) {
		if a.Op != cqa.OpEq && a.Op != cqa.OpNe {
			return nil, fmt.Errorf("query: line %d: operator %q not defined on string attribute %q", a.Line, a.Op, attr)
		}
		if other.IsStr {
			return cqa.StringAtom{Attr: attr, Op: a.Op, Lit: other.Str, IsLit: true}, nil
		}
		if other.Var != "" {
			if isStrAttr(other.Var) {
				return cqa.StringAtom{Attr: attr, Op: a.Op, OtherAttr: other.Var}, nil
			}
			if _, ok := s.Attr(other.Var); !ok {
				// Bare word: string literal.
				return cqa.StringAtom{Attr: attr, Op: a.Op, Lit: other.Var, IsLit: true}, nil
			}
		}
		return nil, fmt.Errorf("query: line %d: cannot compare string attribute %q with %s", a.Line, attr, other)
	}
	switch {
	case a.L.Var != "" && isStrAttr(a.L.Var):
		return strSide(a.L.Var, a.R)
	case a.R.Var != "" && isStrAttr(a.R.Var):
		return strSide(a.R.Var, a.L)
	case a.L.IsStr || a.R.IsStr:
		return nil, fmt.Errorf("query: line %d: string literal compared with non-string expression", a.Line)
	}
	// Linear comparison: all identifiers must be rational attributes.
	for _, ids := range [][]string{a.L.Idents, a.R.Idents} {
		for _, id := range ids {
			at, ok := s.Attr(id)
			if !ok {
				return nil, fmt.Errorf("query: line %d: unknown attribute %q", a.Line, id)
			}
			if at.Type != schemaRational {
				return nil, fmt.Errorf("query: line %d: attribute %q is not rational", a.Line, id)
			}
		}
	}
	return cqa.Linear(a.L.Linear, a.Op, a.R.Linear), nil
}
