// Package schema defines heterogeneous relation schemas for CQA/CDB.
//
// The central extension over the classical constraint data model (§3 of the
// paper) is the per-attribute C/R flag: every attribute is declared either
//
//   - Relational: classical finite-value semantics; a tuple missing the
//     attribute carries NULL, which is distinct from every domain value
//     ("narrow" interpretation), or
//   - Constraint: Kanellakis-Kuper-Revesz semantics; a tuple with no
//     constraints on the attribute admits every domain value ("broad"
//     interpretation).
//
// The flag is what makes the heterogeneous data model upwardly compatible
// with the relational model while retaining the constraint model's ability
// to represent infinite (spatiotemporal) extents.
package schema

import "fmt"

// Type is the domain of an attribute.
type Type int

const (
	// String attributes hold finite symbolic values (ids, names).
	String Type = iota
	// Rational attributes range over the rational numbers.
	Rational
)

func (t Type) String() string {
	switch t {
	case String:
		return "string"
	case Rational:
		return "rational"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Kind is the C/R flag of an attribute.
type Kind int

const (
	// Relational attributes use narrow (NULL) missing-value semantics.
	Relational Kind = iota
	// Constraint attributes use broad (unconstrained) missing-value
	// semantics and may participate in linear constraints.
	Constraint
)

func (k Kind) String() string {
	switch k {
	case Relational:
		return "relational"
	case Constraint:
		return "constraint"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute is a named, typed, C/R-flagged column.
type Attribute struct {
	Name string
	Type Type
	Kind Kind
}

func (a Attribute) String() string {
	var buf [64]byte
	return string(a.appendTo(buf[:0]))
}

// appendTo appends String's bytes to b: "name: type, kind".
func (a Attribute) appendTo(b []byte) []byte {
	b = append(append(b, a.Name...), ": "...)
	b = append(append(b, a.Type.String()...), ", "...)
	return append(b, a.Kind.String()...)
}

// Rel returns a relational attribute.
func Rel(name string, t Type) Attribute {
	return Attribute{Name: name, Type: t, Kind: Relational}
}

// Con returns a constraint attribute (always rational).
func Con(name string) Attribute {
	return Attribute{Name: name, Type: Rational, Kind: Constraint}
}

// Schema is an immutable ordered set of attributes with unique names.
type Schema struct {
	attrs  []Attribute
	byName map[string]int
}

// New validates and builds a schema. Attribute names must be unique and
// non-empty; constraint attributes must be rational (linear constraints
// over strings are meaningless).
func New(attrs ...Attribute) (Schema, error) {
	byName := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a.Name == "" {
			return Schema{}, fmt.Errorf("schema: attribute %d has empty name", i)
		}
		if _, dup := byName[a.Name]; dup {
			return Schema{}, fmt.Errorf("schema: duplicate attribute %q", a.Name)
		}
		if a.Kind == Constraint && a.Type != Rational {
			return Schema{}, fmt.Errorf("schema: constraint attribute %q must be rational, got %s", a.Name, a.Type)
		}
		byName[a.Name] = i
	}
	return Schema{attrs: append([]Attribute{}, attrs...), byName: byName}, nil
}

// MustNew is like New but panics on error. Intended for fixtures and tests.
func MustNew(attrs ...Attribute) Schema {
	s, err := New(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the arity of the schema.
func (s Schema) Len() int { return len(s.attrs) }

// Attrs returns the attributes in declaration order. The result must not be
// mutated.
func (s Schema) Attrs() []Attribute { return s.attrs }

// Names returns the attribute names in declaration order.
func (s Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// Has reports whether the schema contains an attribute with the given name.
func (s Schema) Has(name string) bool {
	_, ok := s.byName[name]
	return ok
}

// Attr returns the attribute with the given name.
func (s Schema) Attr(name string) (Attribute, bool) {
	i, ok := s.byName[name]
	if !ok {
		return Attribute{}, false
	}
	return s.attrs[i], true
}

// Index returns the position of the named attribute in Attrs().
func (s Schema) Index(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// ConstraintNames returns the names of the constraint attributes, in order.
func (s Schema) ConstraintNames() []string {
	var out []string
	for _, a := range s.attrs {
		if a.Kind == Constraint {
			out = append(out, a.Name)
		}
	}
	return out
}

// RelationalNames returns the names of the relational attributes, in order.
func (s Schema) RelationalNames() []string {
	var out []string
	for _, a := range s.attrs {
		if a.Kind == Relational {
			out = append(out, a.Name)
		}
	}
	return out
}

// Project returns the sub-schema consisting of the named attributes, in the
// given order. All names must exist.
func (s Schema) Project(names ...string) (Schema, error) {
	attrs := make([]Attribute, 0, len(names))
	for _, n := range names {
		a, ok := s.Attr(n)
		if !ok {
			return Schema{}, fmt.Errorf("schema: project on unknown attribute %q", n)
		}
		attrs = append(attrs, a)
	}
	return New(attrs...)
}

// RenameAll returns the schema under one simultaneous renaming old → new:
// every key of m must exist, and no two attributes may end up under one
// name ({x: y, y: x} is a legal swap).
func (s Schema) RenameAll(m map[string]string) (Schema, error) {
	for old := range m {
		if !s.Has(old) {
			return Schema{}, fmt.Errorf("schema: rename of unknown attribute %q", old)
		}
	}
	attrs := append([]Attribute{}, s.attrs...)
	for i := range attrs {
		if to, ok := m[attrs[i].Name]; ok {
			attrs[i].Name = to
		}
	}
	out, err := New(attrs...)
	if err != nil {
		return Schema{}, fmt.Errorf("schema: rename target already exists: %w", err)
	}
	return out, nil
}

// Equal reports whether the schemas have the same attributes as *sets*
// (names, types and kinds; order-insensitive). This is the compatibility
// notion for union and difference: α(R1) = α(R2).
func (s Schema) Equal(o Schema) bool {
	if len(s.attrs) != len(o.attrs) {
		return false
	}
	for _, a := range s.attrs {
		b, ok := o.Attr(a.Name)
		if !ok || a != b {
			return false
		}
	}
	return true
}

// Join returns the natural-join schema α(R1) ∪ α(R2): shared attributes
// must agree on type and kind; the result lists s's attributes first,
// then o's non-shared attributes.
func (s Schema) Join(o Schema) (Schema, error) {
	attrs := append([]Attribute{}, s.attrs...)
	for _, b := range o.attrs {
		a, shared := s.Attr(b.Name)
		if shared {
			if a != b {
				return Schema{}, fmt.Errorf("schema: shared attribute %q differs: %s vs %s", b.Name, a, b)
			}
			continue
		}
		attrs = append(attrs, b)
	}
	return New(attrs...)
}

// String renders the schema in the paper's notation:
// "[landId: string, relational; x: rational, constraint; ...]".
func (s Schema) String() string {
	var buf [256]byte
	b := append(buf[:0], '[')
	for i, a := range s.attrs {
		if i > 0 {
			b = append(b, "; "...)
		}
		b = a.appendTo(b)
	}
	return string(append(b, ']'))
}
