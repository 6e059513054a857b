package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/schema"
)

// Tuple is one heterogeneous constraint tuple: concrete bindings for (some
// of) the relational attributes plus a conjunction of linear constraints
// over the constraint attributes.
//
// Tuples are immutable; the With* methods return modified copies.
type Tuple struct {
	rvals map[string]Value
	con   constraint.Conjunction
}

// NewTuple builds a tuple from relational bindings and a constraint part.
// NULL bindings may be expressed either by omitting the attribute or by an
// explicit Null() value; both normalise to "absent".
func NewTuple(rvals map[string]Value, con constraint.Conjunction) Tuple {
	m := make(map[string]Value, len(rvals))
	for k, v := range rvals {
		if !v.IsNull() {
			m[k] = v
		}
	}
	return Tuple{rvals: m, con: con}
}

// JoinTuple returns the natural-join combination of t and o: the union of
// their relational bindings (the join guard has already checked shared
// bindings identical) with con as the constraint part. It is the
// refine-stage fast path of the CQA join. When one side already binds
// every attribute the other binds — a key joined to the relation it keys,
// or a side with no bindings at all — the union is that side's map, and
// tuples are immutable, so the map is shared and nothing is allocated;
// otherwise the two are merged into one map. Either way the result holds no
// NULL binding, because tuples never store one.
func JoinTuple(t, o Tuple, con constraint.Conjunction) Tuple {
	if bindsAll(t.rvals, o.rvals) {
		return Tuple{rvals: t.rvals, con: con}
	}
	if bindsAll(o.rvals, t.rvals) {
		return Tuple{rvals: o.rvals, con: con}
	}
	m := make(map[string]Value, len(t.rvals)+len(o.rvals))
	for k, v := range t.rvals {
		m[k] = v
	}
	for k, v := range o.rvals {
		m[k] = v
	}
	return Tuple{rvals: m, con: con}
}

// bindsAll reports whether a binds every attribute b binds.
func bindsAll(a, b map[string]Value) bool {
	if len(b) > len(a) {
		return false
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			return false
		}
	}
	return true
}

// ConstraintTuple builds a tuple with only a constraint part.
func ConstraintTuple(con constraint.Conjunction) Tuple {
	return Tuple{rvals: map[string]Value{}, con: con}
}

// RVal returns the binding of relational attribute name; NULL (and
// ok=false) when absent.
func (t Tuple) RVal(name string) (Value, bool) {
	v, ok := t.rvals[name]
	if !ok {
		return Null(), false
	}
	return v, true
}

// RVals returns a copy of the relational bindings.
func (t Tuple) RVals() map[string]Value {
	out := make(map[string]Value, len(t.rvals))
	for k, v := range t.rvals {
		out[k] = v
	}
	return out
}

// Constraint returns the constraint part of the tuple.
func (t Tuple) Constraint() constraint.Conjunction { return t.con }

// WithRVal returns t with relational attribute name bound to v.
func (t Tuple) WithRVal(name string, v Value) Tuple {
	out := t.RVals()
	if v.IsNull() {
		delete(out, name)
	} else {
		out[name] = v
	}
	return Tuple{rvals: out, con: t.con}
}

// WithConstraint returns t with the constraint part replaced.
func (t Tuple) WithConstraint(con constraint.Conjunction) Tuple {
	return Tuple{rvals: t.rvals, con: con}
}

// rename returns t under the simultaneous attribute renaming m, in one
// pass: bindings move to their new names, and the constraint part is
// renamed and re-canonicalised — or, when m names none of its variables,
// handed back as it is, memos attached (constraint.Conjunction.RenameAll).
func (t Tuple) rename(m map[string]string) Tuple {
	rvals := make(map[string]Value, len(t.rvals))
	for k, v := range t.rvals {
		if to, ok := m[k]; ok {
			k = to
		}
		rvals[k] = v
	}
	return Tuple{rvals: rvals, con: t.con.RenameAll(m).Canon()}
}

// IsSatisfiable reports whether the constraint part admits a solution.
func (t Tuple) IsSatisfiable() bool { return t.con.IsSatisfiable() }

// Canon returns t with its constraint part in canonical form (see
// constraint.Conjunction.Canon). Every CQA operator emits canonical tuples;
// Canon is how the invariant is (re-)established at the boundaries — load,
// ad-hoc construction.
func (t Tuple) Canon() Tuple {
	return Tuple{rvals: t.rvals, con: t.con.Canon()}
}

// attrs appends the bound relational attribute names to keys (pass a
// stack-backed slice to keep the common few-attribute case off the heap) and
// returns them sorted.
func (t Tuple) attrs(keys []string) []string {
	for k := range t.rvals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// relationalKey is a canonical key of the relational part (used for
// difference matching and display order).
func (t Tuple) relationalKey() string {
	var buf [64]byte
	return string(t.appendRelationalKey(buf[:0]))
}

func (t Tuple) appendRelationalKey(b []byte) []byte {
	var names [4]string
	for _, k := range t.attrs(names[:0]) {
		b = append(b, k...)
		b = append(b, '=')
		b = t.rvals[k].appendKey(b)
		b = append(b, ';')
	}
	return b
}

// SameRelationalPart reports whether t and o have identical relational
// parts (same bound attributes with identical values; NULL matches NULL).
func (t Tuple) SameRelationalPart(o Tuple) bool {
	if len(t.rvals) != len(o.rvals) {
		return false
	}
	for k, v := range t.rvals {
		ov, ok := o.rvals[k]
		if !ok || !v.Identical(ov) {
			return false
		}
	}
	return true
}

// String renders the tuple as "(name="A", t >= 2, t <= 5)".
func (t Tuple) String() string { return t.render("") }

// render is appendLine into a stack buffer, as a string.
func (t Tuple) render(con string) string {
	var buf [128]byte
	return string(t.appendLine(buf[:0], con))
}

// appendLine appends the tuple's line to b around con, the rendering of its
// constraint part when the caller already has it (Row), or "" to render it
// here. (A conjunction never renders as "": the empty one is "true".)
func (t Tuple) appendLine(b []byte, con string) []byte {
	b = append(b, '(')
	open := len(b)
	var names [4]string
	for i, k := range t.attrs(names[:0]) {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, k...)
		b = append(b, '=')
		b = t.rvals[k].appendTo(b)
	}
	switch {
	case !t.con.IsTrue():
		if len(b) > open {
			b = append(b, ", "...)
		}
		if con != "" {
			b = append(b, con...)
		} else {
			b = t.con.AppendTo(b)
		}
	case len(b) == open: // no binding, no constraint
		b = append(b, "true"...)
	}
	return append(b, ')')
}

// Relation is a finite set of heterogeneous constraint tuples over a fixed
// schema.
type Relation struct {
	schema schema.Schema
	tuples []Tuple

	// memo holds one externally computed value derived from the schema and
	// the tuples as they stand (see Memo); Add and AddBound clear it. It is
	// what makes a Relation not copyable by value.
	memo atomic.Pointer[any]
}

// New returns an empty relation with the given schema.
func New(s schema.Schema) *Relation {
	return &Relation{schema: s}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() schema.Schema { return r.schema }

// Len returns the number of constraint tuples (the size of the finite
// representation, not of the semantics).
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples returns the tuples. The result must not be mutated.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Memo returns the value SetMemo attached to r, or nil when there is none
// or a tuple has been added since. The slot is opaque to this package — the
// same arrangement as constraint.Conjunction.Memo: a higher layer (the
// snapshot store keeps a relation's stored form here) remembers one alternate
// representation of the relation's content without this package learning its
// type. Safe beside other readers of r; like every read, not beside Add.
func (r *Relation) Memo() any {
	if p := r.memo.Load(); p != nil {
		return *p
	}
	return nil
}

// SetMemo attaches v, a value derived from r's schema and tuples as they
// stand, replacing whatever was attached; nil detaches.
func (r *Relation) SetMemo(v any) { r.memo.Store(&v) }

// changed drops the memo: the content it was derived from is about to
// change. A relation without one — every operator output while it is being
// built — pays a load.
func (r *Relation) changed() {
	if r.memo.Load() != nil {
		r.memo.Store(nil)
	}
}

// Clone returns a relation with a header of its own over r's tuples: same
// schema, same tuples in the same order, same memo. The tuple slice is
// shared up to its length and no further, so a tuple added to either
// relation afterwards never shows in the other.
func (r *Relation) Clone() *Relation {
	out := &Relation{schema: r.schema, tuples: r.tuples[:len(r.tuples):len(r.tuples)]}
	out.memo.Store(r.memo.Load())
	return out
}

// Rename returns r under one simultaneous renaming old → new of attribute
// names (schema.Schema.RenameAll: {x: y, y: x} swaps): the schema, every
// relational binding and every constraint variable. Tuples valid for r's
// schema are valid for the renamed one by construction, so none is checked
// again.
func (r *Relation) Rename(m map[string]string) (*Relation, error) {
	s, err := r.schema.RenameAll(m)
	if err != nil {
		return nil, err
	}
	out := &Relation{schema: s, tuples: make([]Tuple, len(r.tuples))}
	for i, t := range r.tuples {
		out.tuples[i] = t.rename(m)
	}
	return out, nil
}

// Add validates t against the schema and appends it:
//
//   - every relational binding must name a relational attribute of the
//     schema and match its type;
//   - every variable of the constraint part must name a constraint
//     attribute of the schema.
func (r *Relation) Add(t Tuple) error {
	for name, v := range t.rvals {
		a, ok := r.schema.Attr(name)
		if !ok {
			return fmt.Errorf("relation: binding for unknown attribute %q", name)
		}
		if err := checkBinding(a, v); err != nil {
			return err
		}
	}
	if err := r.checkVars(t.con); err != nil {
		return err
	}
	r.changed()
	r.tuples = append(r.tuples, t)
	return nil
}

// FromJoin returns a relation over s holding ts, which it keeps, without
// checking them one by one: s is the joined schema (schema.Schema.Join) of
// two relations and every tuple of ts joins one tuple of each. Such a tuple
// is valid for s by construction — its bindings are the union of two valid
// tuples' bindings and its constraint part constrains only their variables
// — so the schema join is the one check the output needs.
func FromJoin(s schema.Schema, ts []Tuple) *Relation {
	return &Relation{schema: s, tuples: ts}
}

// Bound is one relational binding by schema position instead of by name.
type Bound struct {
	Attr int // index into Schema().Attrs()
	Val  Value
}

// AddBound is Add for a caller that holds schema positions — a decoder of
// stored tuples: the tuple binds attribute b.Attr to b.Val for each b in
// binds, which must be in strictly ascending position order, and has the
// constraint part con. The checks are Add's, with the name lookup of a
// binding replaced by a bounds check. binds is not retained.
func (r *Relation) AddBound(binds []Bound, con constraint.Conjunction) error {
	attrs := r.schema.Attrs()
	var rvals map[string]Value // nil reads as "no bindings"; tuples are never written through
	if len(binds) > 0 {
		rvals = make(map[string]Value, len(binds))
	}
	for i, b := range binds {
		if b.Attr < 0 || b.Attr >= len(attrs) || (i > 0 && binds[i-1].Attr >= b.Attr) {
			return fmt.Errorf("relation: binding %d at schema position %d: out of range or out of order", i, b.Attr)
		}
		if err := checkBinding(attrs[b.Attr], b.Val); err != nil {
			return err
		}
		rvals[attrs[b.Attr].Name] = b.Val
	}
	if err := r.checkVars(con); err != nil {
		return err
	}
	r.changed()
	r.tuples = append(r.tuples, Tuple{rvals: rvals, con: con})
	return nil
}

// checkBinding verifies that v may be bound to attribute a.
func checkBinding(a schema.Attribute, v Value) error {
	if a.Kind != schema.Relational {
		return fmt.Errorf("relation: value binding for constraint attribute %q (use constraints)", a.Name)
	}
	switch a.Type {
	case schema.String:
		if v.Kind() != KindString {
			return fmt.Errorf("relation: attribute %q expects string, got %s", a.Name, v)
		}
	case schema.Rational:
		if v.Kind() != KindRational {
			return fmt.Errorf("relation: attribute %q expects rational, got %s", a.Name, v)
		}
	}
	return nil
}

// checkVars verifies that every variable of con names a constraint
// attribute of the schema. It walks the atoms' terms, so it builds nothing.
func (r *Relation) checkVars(con constraint.Conjunction) error {
	for _, c := range con.Constraints() {
		for _, t := range c.Expr.Terms() {
			a, ok := r.schema.Attr(t.Var)
			if !ok {
				return fmt.Errorf("relation: constraint over unknown attribute %q", t.Var)
			}
			if a.Kind != schema.Constraint {
				return fmt.Errorf("relation: constraint over relational attribute %q", t.Var)
			}
		}
	}
	return nil
}

// MustAdd is like Add but panics on error. Intended for fixtures and tests.
func (r *Relation) MustAdd(t Tuple) {
	if err := r.Add(t); err != nil {
		panic(err)
	}
}

// Normalize removes unsatisfiable tuples, simplifies constraint parts into
// canonical form, and deduplicates canonically identical tuples. The
// semantics is unchanged.
func (r *Relation) Normalize() *Relation {
	return r.NormalizeWith(nil)
}

// NormalizeWith is Normalize with every satisfiability decision routed
// through sat (nil = raw Fourier-Motzkin); pass exec.Context.SatFunc to
// memoize the decisions. Deduplication is Distinct's.
func (r *Relation) NormalizeWith(sat constraint.SatFunc) *Relation {
	kept := make([]Tuple, 0, len(r.tuples))
	for _, t := range r.tuples {
		con := t.con.SimplifyWith(sat)
		if con.IsFalse() { // unsatisfiable: decided once, inside SimplifyWith
			continue
		}
		kept = append(kept, t.WithConstraint(con.Canon()))
	}
	return &Relation{schema: r.schema, tuples: Distinct(kept)}
}

// Distinct removes from ts, whose constraint parts must be canonical, every
// tuple identical to an earlier one — same relational part, same canonical
// constraint part — keeping the rest in order. It compacts ts in place and
// returns the shortened slice. Candidates are found by a 64-bit hash of
// (relational part, constraint fingerprint) and every match is verified
// exactly with SameRelationalPart and EqualCanonical, so a collision costs a
// comparison and can never merge distinct tuples.
func Distinct(ts []Tuple) []Tuple { return distinct(ts, Tuple.hash) }

// distinct is Distinct over an explicit hash (the collision test's seam).
func distinct(ts []Tuple, hash func(Tuple) uint64) []Tuple {
	out := ts[:0]
	last := make(map[uint64]int, len(ts)) // hash -> index in out of the latest tuple carrying it
	prev := make([]int, 0, len(ts))       // index in out -> the one before it with the same hash, or -1
scan:
	for _, t := range ts {
		h := hash(t)
		head, ok := last[h]
		if !ok {
			head = -1
		}
		for i := head; i >= 0; i = prev[i] {
			if out[i].SameRelationalPart(t) && out[i].con.EqualCanonical(t.con) {
				continue scan
			}
		}
		last[h] = len(out)
		prev = append(prev, head)
		out = append(out, t)
	}
	return out
}

// hash folds the tuple into 64 bits: identical tuples hash alike. The
// bindings are summed so that map order does not matter.
func (t Tuple) hash() uint64 {
	var rel uint64
	for name, v := range t.rvals {
		rel += v.hash(hashString(fnvOffset64, name))
	}
	return (rel*fnvPrime64 ^ rel>>31) + t.con.Fingerprint()
}

// Point is a full assignment of schema attributes, used to probe relation
// semantics. Relational attributes may be assigned NULL — per the paper, a
// missing relational attribute is "assumed to have a null value, distinct
// from all values in the domain", so NULL is part of the point space of
// relational attributes. Constraint attributes must be rational and
// non-NULL.
type Point map[string]Value

// Contains reports whether the point is in the semantics of the relation:
// some tuple admits it.
//
// A tuple admits the point iff every relational attribute's binding (NULL
// when unbound; narrow semantics) is identical to the point's value, and
// the point's rational coordinates satisfy the constraint part (broad
// semantics: unconstrained attributes impose nothing).
func (r *Relation) Contains(p Point) (bool, error) {
	for _, a := range r.schema.Attrs() {
		v, present := p[a.Name]
		if !present || (a.Kind == schema.Constraint && v.Kind() != KindRational) {
			return false, fmt.Errorf("relation: point missing or non-rational for attribute %q", a.Name)
		}
	}
	for _, t := range r.tuples {
		ok, err := tupleAdmits(t, r.schema, p)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

func tupleAdmits(t Tuple, s schema.Schema, p Point) (bool, error) {
	assign := map[string]rational.Rat{}
	for _, a := range s.Attrs() {
		pv := p[a.Name]
		switch a.Kind {
		case schema.Relational:
			tv, _ := t.RVal(a.Name) // NULL when unbound
			if !tv.Identical(pv) {
				return false, nil
			}
		case schema.Constraint:
			rv, _ := pv.AsRat()
			assign[a.Name] = rv
		}
	}
	return t.con.Holds(assign)
}

// Equivalent reports whether r and o have equal schemas and the same
// semantics. Decided per relational-part group: within each group the
// constraint parts are compared as disjunctions via mutual containment
// (each tuple's region must be covered by the other side's union).
func (r *Relation) Equivalent(o *Relation) bool {
	if !r.schema.Equal(o.schema) {
		return false
	}
	return covers(r, o) && covers(o, r)
}

// covers reports whether every point of a is a point of b.
func covers(a, b *Relation) bool {
	groupsB := map[string][]constraint.Conjunction{}
	fpB := map[string]map[uint64]bool{} // relationalKey -> cover fingerprints
	for _, t := range b.tuples {
		if !t.IsSatisfiable() {
			continue
		}
		rk := t.relationalKey()
		groupsB[rk] = append(groupsB[rk], t.con)
		if fpB[rk] == nil {
			fpB[rk] = map[uint64]bool{}
		}
		fpB[rk][t.con.Fingerprint()] = true
	}
	for _, t := range a.tuples {
		if !t.IsSatisfiable() {
			continue
		}
		rk := t.relationalKey()
		cover := groupsB[rk]
		// Fast path: a canonically identical cover tuple covers t outright,
		// skipping the (expensive) staircase subtraction. The fingerprint
		// probe is advisory; the EqualCanonical verification is exact.
		if fpB[rk][t.con.Fingerprint()] {
			covered := false
			for _, c := range cover {
				if c.EqualCanonical(t.con) {
					covered = true
					break
				}
			}
			if covered {
				continue
			}
		}
		// t.con minus the union of covers must be empty. Every piece the
		// staircase returns is proven satisfiable, and t.con is (above), so
		// a piece left over is the answer: nothing is decided twice.
		if len(constraint.SubtractAll(t.con, cover)) > 0 {
			return false
		}
	}
	return true
}

// Row is one tuple of a relation in display order, together with the
// rendering of its constraint part that ordered it. Printing or saving a
// Row reuses Con, so the result tail — order, render, encode — renders
// each constraint part once.
type Row struct {
	Tuple
	Con  string // Tuple.Constraint().String()
	rkey string // relationalKey(), the first sort key
}

// String renders the row exactly as Tuple.String does, from Con.
func (w Row) String() string { return w.render(w.Con) }

// AppendTo appends String's bytes to b and returns the extended slice, so a
// caller writing many rows builds no string per row.
func (w Row) AppendTo(b []byte) []byte { return w.appendLine(b, w.Con) }

// Rows returns the tuples in a deterministic display order: by relational
// part, then by the rendered constraint part. (Not by Key — hash order would
// be stable but human-hostile in printed and saved output.) Both sort keys
// are computed once per tuple; the comparator only compares strings. Tuples
// that tie on both keys render identically.
func (r *Relation) Rows() []Row {
	rows := r.keyedRows()
	slices.SortFunc(rows, compareRows)
	return rows
}

// keyedRows is the tuples as rows, in insertion order.
func (r *Relation) keyedRows() []Row {
	rows := make([]Row, len(r.tuples))
	for i, t := range r.tuples {
		rows[i] = Row{Tuple: t, Con: t.con.String(), rkey: t.relationalKey()}
	}
	return rows
}

func compareRows(a, b Row) int {
	if c := strings.Compare(a.rkey, b.rkey); c != 0 {
		return c
	}
	return strings.Compare(a.Con, b.Con)
}

// InRowsOrder returns a relation with a header of its own holding r's
// tuples in Rows order — r as a store that keeps tuples in display order
// would hand it back — and no memo. A later Add to either relation never
// shows in the other; when r is in Rows order already the two share the
// tuple slice (see Clone) and nothing is sorted.
func (r *Relation) InRowsOrder() *Relation {
	rows := r.keyedRows()
	n := len(rows)
	if slices.IsSortedFunc(rows, compareRows) {
		return &Relation{schema: r.schema, tuples: r.tuples[:n:n]}
	}
	slices.SortFunc(rows, compareRows)
	out := &Relation{schema: r.schema, tuples: make([]Tuple, n)}
	for i, w := range rows {
		out.tuples[i] = w.Tuple
	}
	return out
}

// Sorted returns the tuples in Rows order. Like Tuples, the result must not
// be mutated: it is r's own slice when r is in that order already.
func (r *Relation) Sorted() []Tuple { return r.InRowsOrder().tuples }

// String renders the relation with its schema and tuples, one per line.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.schema.String())
	b.WriteString(" {")
	for _, w := range r.Rows() {
		b.WriteString("\n  ")
		b.WriteString(w.String())
	}
	if r.Len() > 0 {
		b.WriteString("\n")
	}
	b.WriteString("}")
	return b.String()
}
