package query

import (
	"fmt"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
)

// ParseConstraints parses a comma-separated conjunction of linear
// comparisons ("x >= 0, x + 2y <= 3, t = 1/2") into atomic constraints.
// Every identifier is taken as a variable; string atoms and != (which is
// not convex and therefore not storable in a single constraint tuple) are
// rejected. This is the stored-tuple syntax used by the db text format.
func ParseConstraints(src string) ([]constraint.Constraint, error) {
	return named(parseConstraints(src))
}

func parseConstraints(src string) ([]constraint.Constraint, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []constraint.Constraint
	if p.peek().Kind == TokEOF {
		return nil, nil // empty conjunction = true
	}
	for {
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		if a.L.IsStr || a.R.IsStr {
			return nil, fmt.Errorf("string literal in stored constraint %q", a)
		}
		if a.Op == cqa.OpNe {
			return nil, fmt.Errorf("!= is not convex and cannot appear in a stored constraint tuple")
		}
		c, err := constraint.New(a.L.Linear, a.Op.String(), a.R.Linear)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		if p.peek().Kind == TokComma {
			p.next()
			continue
		}
		break
	}
	if p.peek().Kind != TokEOF {
		return nil, p.errf("trailing input %q in constraint list", p.peek().Text)
	}
	return out, nil
}
