// Package query implements the ASCII query language of CQA/CDB.
//
// The paper (§3.3) writes queries as multi-step programs over named
// relations, using English operator names "for portability of the system":
//
//	R0 = select LandID="A" from Landownership
//	R1 = project R0 on name, t
//	R2 = join Hurricane and Land
//	R3 = select t>=4, t<=9 from R2
//
// This package adds the remaining CQA operators in the same style —
// union / minus / rename — and the paper's §4 whole-feature operators:
//
//	R4 = union R1 and R3
//	R5 = minus R1 and R3
//	R6 = rename t to t2 in R5
//	B  = buffer-join Roads and Towns within 5
//	K  = k-nearest 3 in Hospitals to point(3, 4)
//
// Selection conditions are comma-separated conjunctions of linear
// comparisons over rational attributes ("t>=4", "x+2y<=3", coefficients
// may be fractions "1/2x <= 3") or string comparisons ("landId = A"; bare
// words compare as string literals when the attribute is string-typed,
// quoted strings always do). The program's value is the relation assigned
// by its final statement.
//
// The tokens (Lex) and the comparison grammar (ParseComparison) are the
// language's, not only this face's: the rules of internal/calculus read
// them too.
package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind discriminates Token.
type TokenKind int

// The token kinds of the language. Both faces read the same tokens: the
// query programs of this package and the rules of internal/calculus.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokOp     // = != < <= > >= + - * / and a rule's :- and .
	TokComma  // ,
	TokLParen // (
	TokRParen // )
)

// Token is one lexical token. A string's Text is its decoded value.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // byte offset of the token's start
	Line int
}

// compound keywords that contain '-': the lexer merges IDENT '-' IDENT
// sequences into these when they match.
var compoundKeywords = map[string]bool{
	"buffer-join": true,
	"k-nearest":   true,
}

type lexer struct {
	src    string
	pos    int
	line   int
	tokens []Token
}

// Lex scans src into tokens, ending with one TokEOF. Comments run from
// '#', '%' or "--" to the end of the line. An identifier is a letter or
// '_' followed by letters, digits and '_'; a number is digits with at most
// one '.', and a '.' belongs to a number only when a digit follows it; a
// string is a Go string literal, decoded as strconv.Unquote does. An error
// names its line ("line N: ..."); the caller prefixes its own name.
func Lex(src string) ([]Token, error) {
	// About one token per three bytes of text: one allocation, typically.
	l := &lexer{src: src, line: 1, tokens: make([]Token, 0, len(src)/3+8)}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#' || c == '%' || c == '-' && l.peekAt(1) == '-':
			l.skipLine()
		case isDigit(c) || c == '.' && isDigit(l.peekAt(1)):
			l.lexNumber()
		case c == '"':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == ',':
			l.emit(TokComma, 1)
		case c == '(':
			l.emit(TokLParen, 1)
		case c == ')':
			l.emit(TokRParen, 1)
		case c == ':' && l.peekAt(1) == '-', (c == '<' || c == '>' || c == '!') && l.peekAt(1) == '=':
			l.emit(TokOp, 2)
		case c == '!':
			return nil, fmt.Errorf("line %d: '!' must be followed by '='", l.line)
		case strings.IndexByte("=<>+-*/.", c) >= 0:
			l.emit(TokOp, 1)
		default:
			if r, _ := utf8.DecodeRuneInString(l.src[l.pos:]); !isIdentStart(r) {
				return nil, fmt.Errorf("line %d: unexpected character %q", l.line, r)
			}
			l.lexIdent()
		}
	}
	l.tokens = append(l.tokens, Token{Kind: TokEOF, Pos: l.pos, Line: l.line})
	return l.mergeCompounds(), nil
}

func (l *lexer) peekAt(d int) byte {
	if l.pos+d < len(l.src) {
		return l.src[l.pos+d]
	}
	return 0
}

func (l *lexer) skipLine() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
}

// emit makes the next n bytes one token of the given kind.
func (l *lexer) emit(kind TokenKind, n int) {
	l.tokens = append(l.tokens, Token{Kind: kind, Text: l.src[l.pos : l.pos+n], Pos: l.pos, Line: l.line})
	l.pos += n
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func (l *lexer) lexIdent() {
	n := 0
	for l.pos+n < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos+n:])
		if !isIdentPart(r) {
			break
		}
		n += size
	}
	l.emit(TokIdent, n)
}

func (l *lexer) lexNumber() {
	n := l.digits(0)
	if l.peekAt(n) == '.' && isDigit(l.peekAt(n+1)) {
		n = l.digits(n + 1)
	}
	l.emit(TokNumber, n)
}

// digits returns the offset past the run of digits starting at offset n.
func (l *lexer) digits(n int) int {
	for isDigit(l.peekAt(n)) {
		n++
	}
	return n
}

// lexString finds the closing quote (a backslash escapes the byte after
// it) and decodes the literal with strconv.Unquote, the decoder of the db
// text format and the inverse of how every result row prints a string.
func (l *lexer) lexString() error {
	for n := 1; l.pos+n < len(l.src); n++ {
		switch l.src[l.pos+n] {
		case '\\':
			n++
		case '\n':
			return fmt.Errorf("line %d: unterminated string", l.line)
		case '"':
			lit := l.src[l.pos : l.pos+n+1]
			s, err := strconv.Unquote(lit)
			if err != nil {
				return fmt.Errorf("line %d: invalid string literal %s", l.line, lit)
			}
			l.tokens = append(l.tokens, Token{Kind: TokString, Text: s, Pos: l.pos, Line: l.line})
			l.pos += n + 1
			return nil
		}
	}
	return fmt.Errorf("line %d: unterminated string", l.line)
}

// mergeCompounds turns IDENT('-')IDENT triples into compound keywords
// ("buffer-join", "k-nearest"). The three tokens must be adjacent in the
// source — "k - nearest" with spaces is a subtraction of two variables,
// not the keyword — and elsewhere '-' stays a minus operator.
func (l *lexer) mergeCompounds() []Token {
	ts, out := l.tokens, l.tokens[:0] // in place: out never passes i
	for i := 0; i < len(ts); i++ {
		if ts[i].Kind == TokIdent && i+2 < len(ts) &&
			ts[i+1].Kind == TokOp && ts[i+1].Text == "-" &&
			ts[i+2].Kind == TokIdent &&
			ts[i+1].Pos == ts[i].Pos+len(ts[i].Text) &&
			ts[i+2].Pos == ts[i+1].Pos+1 {
			comp := ts[i].Text + "-" + ts[i+2].Text
			if compoundKeywords[strings.ToLower(comp)] {
				out = append(out, Token{Kind: TokIdent, Text: comp, Pos: ts[i].Pos, Line: ts[i].Line})
				i += 2
				continue
			}
		}
		out = append(out, ts[i])
	}
	return out
}
