// Package db implements the CQA/CDB catalog: a named collection of
// heterogeneous constraint relations with a human-readable text format,
// plus program execution against the catalog.
//
// The text format, one relation per block:
//
//	relation Land
//	schema landId string relational, x rational constraint, y rational constraint
//	tuple landId="A" | x >= 0, x <= 2, y >= 0, y <= 2
//	tuple | x >= 9, y <= 1          # relational attrs NULL
//	end
//
// Blank lines and '#' comments are ignored. The part before '|' binds
// relational attributes (strings quoted, rationals bare: "age=40" or
// "age=1/2"); the part after is a comma-separated conjunction of linear
// constraints over the constraint attributes. Either part may be empty.
// A quoted string is a Go string literal (strconv.Quote writes it,
// strconv.Unquote reads it), and '#', '|' and ',' inside one are part of
// the value.
//
// The text format is the import/export and golden format. The snapshot
// store (package snapshot) keeps databases in its own binary records and
// never goes through it.
package db

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/exec"
	"cdb/internal/query"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// Database is a named collection of relations.
type Database struct {
	rels  map[string]*relation.Relation
	order []string
}

// New returns an empty database.
func New() *Database {
	return &Database{rels: map[string]*relation.Relation{}}
}

// Put adds or replaces a relation.
func (d *Database) Put(name string, r *relation.Relation) error {
	if name == "" {
		return fmt.Errorf("db: empty relation name")
	}
	if _, exists := d.rels[name]; !exists {
		d.order = append(d.order, name)
	}
	d.rels[name] = r
	return nil
}

// Get returns the named relation.
func (d *Database) Get(name string) (*relation.Relation, bool) {
	r, ok := d.rels[name]
	return r, ok
}

// Drop removes the named relation; it reports whether it existed.
func (d *Database) Drop(name string) bool {
	if _, ok := d.rels[name]; !ok {
		return false
	}
	delete(d.rels, name)
	for i, n := range d.order {
		if n == name {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	return true
}

// Names returns the relation names in insertion order.
func (d *Database) Names() []string {
	return append([]string{}, d.order...)
}

// TupleCount returns the total number of tuples across all relations.
func (d *Database) TupleCount() int {
	n := 0
	for _, r := range d.rels {
		n += r.Len()
	}
	return n
}

// Env returns the database as a CQA evaluation environment.
func (d *Database) Env() cqa.Env {
	env := make(cqa.Env, len(d.rels))
	for name, r := range d.rels {
		env[name] = r
	}
	return env
}

// Run parses and executes a query program against the database, returning
// the final statement's relation. Intermediate results are not persisted.
func (d *Database) Run(src string) (*relation.Relation, error) {
	return d.RunCtx(src, nil)
}

// RunCtx is Run under an execution context: CQA operators fan out over
// ec's worker pool and record per-operator stats on ec. When ec traces,
// the whole program runs under a "query" root span (statements and plan
// nodes nest below it; the final normalisation pass is its own child).
// A nil ec is Run.
func (d *Database) RunCtx(src string, ec *exec.Context) (*relation.Relation, error) {
	prog, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	root := ec.BeginSpan("query", FirstLine(src))
	defer ec.EndSpan(root)
	_, out, err := RunProgram(prog, d.Env(), ec, nil)
	return out, err
}

// RunProgram is the one statement loop of every front end: Database.RunCtx,
// the server's /v1/query and the cqacdb shell. It runs prog's statements in
// order on env (used as scratch: each result is bound there under its
// target for the statements after it) and hands every raw result to bind,
// when bind is non-nil, so a session can keep it. It returns the final
// statement's target and its result normalised under a "normalize" span:
// unsatisfiable tuples dropped, constraint parts simplified into canonical
// form, duplicates removed. Semantics unchanged; the context's sat-cache
// (if any) memoizes the decisions. A cancelled ec stops the loop between
// statements with ec's error.
func RunProgram(prog *query.Program, env cqa.Env, ec *exec.Context, bind func(target string, r *relation.Relation)) (string, *relation.Relation, error) {
	var (
		last   *relation.Relation
		target string
	)
	for _, st := range prog.Stmts {
		if err := ec.Err(); err != nil {
			return "", nil, err
		}
		one := &query.Program{Stmts: []query.Stmt{st}}
		r, err := one.RunOptimizedCtx(env, ec)
		if err != nil {
			return "", nil, err
		}
		env[st.Target] = r
		if bind != nil {
			bind(st.Target, r)
		}
		last, target = r, st.Target
	}
	sp := ec.BeginSpan("normalize", "")
	norm := last.NormalizeWith(ec.SatFunc())
	sp.Set("rows", int64(norm.Len()))
	ec.EndSpan(sp)
	return target, norm, nil
}

// FirstLine returns the first line of src that is not blank, trimmed: how
// a program is named in span details and flight records.
func FirstLine(src string) string {
	for src != "" {
		var line string
		line, src, _ = strings.Cut(src, "\n")
		if line = strings.TrimSpace(line); line != "" {
			return line
		}
	}
	return ""
}

// --- text serialisation ---

// Save writes the database in the text format.
func (d *Database) Save(w io.Writer) error {
	return d.SaveCtx(w, nil)
}

// SaveCtx is Save under an execution context: when ec traces, the write
// runs under a "db.save" span counting relations and tuples written.
func (d *Database) SaveCtx(w io.Writer, ec *exec.Context) error {
	sp := ec.BeginSpan("db.save", "")
	defer ec.EndSpan(sp)
	sp.Set("relations", int64(len(d.rels)))
	sp.Set("tuples", int64(d.TupleCount()))
	bw := bufio.NewWriter(w)
	for _, name := range d.order {
		encodeRelation(bw, name, d.rels[name])
	}
	return bw.Flush() // a bufio.Writer keeps its first write error for Flush
}

// encodeRelation writes one relation as a self-contained text-format
// block ("relation ... end"). The encoding is deterministic — Rows()
// tuple order, sorted relational attributes — so equal relations always
// produce identical bytes. Save is the concatenation of encodeRelation
// over the database's relations in insertion order.
func encodeRelation(bw *bufio.Writer, name string, r *relation.Relation) {
	fmt.Fprintf(bw, "relation %s\n", name)
	var parts []string
	for _, a := range r.Schema().Attrs() {
		parts = append(parts, fmt.Sprintf("%s %s %s", a.Name, a.Type, a.Kind))
	}
	fmt.Fprintf(bw, "schema %s\n", strings.Join(parts, ", "))
	for _, row := range r.Rows() {
		fmt.Fprintf(bw, "tuple %s\n", formatTuple(row))
	}
	fmt.Fprintf(bw, "end\n\n")
}

// formatTuple renders one tuple line of the text format: the relational
// bindings, " | ", the constraint atoms. The atoms are the row's rendering
// (the one that ordered it), except that the empty conjunction is written
// as no atoms rather than "true".
func formatTuple(row relation.Row) string {
	rvals := row.RVals()
	keys := make([]string, 0, len(rvals))
	for k := range rvals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var rparts []string
	for _, k := range keys {
		v := rvals[k]
		if s, ok := v.AsString(); ok {
			rparts = append(rparts, fmt.Sprintf("%s=%q", k, s))
		} else if r, ok := v.AsRat(); ok {
			rparts = append(rparts, fmt.Sprintf("%s=%s", k, r))
		}
	}
	con := row.Con
	if row.Constraint().IsTrue() {
		con = ""
	}
	return strings.Join(rparts, ", ") + " | " + con
}

// SaveFile writes the database to a file.
func (d *Database) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a database in the text format.
func Load(r io.Reader) (*Database, error) {
	return LoadCtx(r, nil)
}

// LoadCtx is Load under an execution context: when ec traces, parsing
// and canonicalising the file runs under a "db.load" span counting the
// relations and tuples read.
func LoadCtx(r io.Reader, ec *exec.Context) (*Database, error) {
	sp := ec.BeginSpan("db.load", "")
	defer ec.EndSpan(sp)
	d, err := load(r)
	if err != nil {
		return nil, err
	}
	sp.Set("relations", int64(len(d.rels)))
	sp.Set("tuples", int64(d.TupleCount()))
	return d, nil
}

// maxLineBytes is the longest line the loader accepts, newline included.
const maxLineBytes = 1 << 20

func load(r io.Reader) (*Database, error) {
	d := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	var (
		curName   string
		curSchema schema.Schema
		curRel    *relation.Relation
		lineNo    int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := indexUnquoted(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		word, rest := splitWord(line)
		switch word {
		case "relation":
			if curRel != nil {
				return nil, fmt.Errorf("db: line %d: nested relation block", lineNo)
			}
			curName = strings.TrimSpace(rest)
			if curName == "" {
				return nil, fmt.Errorf("db: line %d: relation needs a name", lineNo)
			}
		case "schema":
			if curName == "" || curRel != nil {
				return nil, fmt.Errorf("db: line %d: schema outside relation block", lineNo)
			}
			s, err := parseSchema(rest)
			if err != nil {
				return nil, fmt.Errorf("db: line %d: %w", lineNo, err)
			}
			curSchema = s
			curRel = relation.New(curSchema)
		case "tuple":
			if curRel == nil {
				return nil, fmt.Errorf("db: line %d: tuple before schema", lineNo)
			}
			t, err := parseTuple(rest, curSchema)
			if err != nil {
				return nil, fmt.Errorf("db: line %d: %w", lineNo, err)
			}
			if err := curRel.Add(t); err != nil {
				return nil, fmt.Errorf("db: line %d: %w", lineNo, err)
			}
		case "end":
			if curRel == nil {
				return nil, fmt.Errorf("db: line %d: end outside relation block", lineNo)
			}
			if err := d.Put(curName, curRel); err != nil {
				return nil, err
			}
			curName, curRel, curSchema = "", nil, schema.Schema{}
		default:
			return nil, fmt.Errorf("db: line %d: unknown directive %q", lineNo, word)
		}
	}
	if err := sc.Err(); err != nil {
		// The scanner stops at the line it could not deliver (over-long: bufio.ErrTooLong).
		return nil, fmt.Errorf("db: line %d: %w", lineNo+1, err)
	}
	if curRel != nil || curName != "" {
		return nil, fmt.Errorf("db: unterminated relation block %q", curName)
	}
	return d, nil
}

// LoadFile reads a database file.
func LoadFile(path string) (*Database, error) {
	return LoadFileCtx(path, nil)
}

// LoadFileCtx is LoadFile under an execution context (see LoadCtx).
func LoadFileCtx(path string, ec *exec.Context) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCtx(f, ec)
}

func splitWord(line string) (string, string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return line, ""
	}
	return line[:i], strings.TrimSpace(line[i:])
}

// parseSchema parses "name type kind, name type kind, ...".
func parseSchema(src string) (schema.Schema, error) {
	var attrs []schema.Attribute
	for _, part := range strings.Split(src, ",") {
		fields := strings.Fields(part)
		if len(fields) != 3 {
			return schema.Schema{}, fmt.Errorf("schema item %q: want 'name type kind'", strings.TrimSpace(part))
		}
		var typ schema.Type
		switch fields[1] {
		case "string":
			typ = schema.String
		case "rational":
			typ = schema.Rational
		default:
			return schema.Schema{}, fmt.Errorf("unknown type %q", fields[1])
		}
		var kind schema.Kind
		switch fields[2] {
		case "relational":
			kind = schema.Relational
		case "constraint":
			kind = schema.Constraint
		default:
			return schema.Schema{}, fmt.Errorf("unknown kind %q", fields[2])
		}
		attrs = append(attrs, schema.Attribute{Name: fields[0], Type: typ, Kind: kind})
	}
	return schema.New(attrs...)
}

// parseTuple parses "attr=val, attr=val | constraints".
func parseTuple(src string, s schema.Schema) (relation.Tuple, error) {
	rpart, cpart := src, ""
	if i := indexUnquoted(src, '|'); i >= 0 {
		rpart, cpart = strings.TrimSpace(src[:i]), strings.TrimSpace(src[i+1:])
	}
	rvals := map[string]relation.Value{}
	if rpart != "" {
		for _, item := range splitTopLevel(rpart) {
			eq := strings.IndexByte(item, '=')
			if eq < 0 {
				return relation.Tuple{}, fmt.Errorf("binding %q: want attr=value", item)
			}
			name := strings.TrimSpace(item[:eq])
			valStr := strings.TrimSpace(item[eq+1:])
			attr, ok := s.Attr(name)
			if !ok {
				return relation.Tuple{}, fmt.Errorf("unknown attribute %q", name)
			}
			switch {
			case strings.HasPrefix(valStr, `"`):
				unq, err := strconv.Unquote(valStr) // the whole of valStr: trailing bytes are an error
				if err != nil {
					return relation.Tuple{}, fmt.Errorf("bad string literal %s", valStr)
				}
				rvals[name] = relation.Str(unq)
			case attr.Type == schema.Rational:
				r, err := rational.Parse(valStr)
				if err != nil {
					return relation.Tuple{}, err
				}
				rvals[name] = relation.Rat(r)
			default:
				// Unquoted string value (ids without spaces).
				rvals[name] = relation.Str(valStr)
			}
		}
	}
	var con constraint.Conjunction
	if cpart != "" {
		cs, err := query.ParseConstraints(cpart)
		if err != nil {
			return relation.Tuple{}, err
		}
		con = constraint.And(cs...)
	}
	// Loaded tuples enter the system canonical, like every operator output.
	return relation.NewTuple(rvals, con).Canon(), nil
}

// splitTopLevel splits on commas that are not inside quotes.
func splitTopLevel(s string) []string {
	var out []string
	for {
		i := indexUnquoted(s, ',')
		if i < 0 {
			return append(out, strings.TrimSpace(s))
		}
		out = append(out, strings.TrimSpace(s[:i]))
		s = s[i+1:]
	}
}

// indexUnquoted returns the index of the first sep in s that is not inside
// a double-quoted string literal (where a backslash escapes the next
// byte), or -1. It is the one scan behind the comment cut and the '|' and
// ',' splits: all three must agree on where a literal ends, or a value
// holding one of them cannot be read back.
func indexUnquoted(s string, sep byte) int {
	quoted := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quoted && c == '\\':
			i++
		case c == '"':
			quoted = !quoted
		case c == sep && !quoted:
			return i
		}
	}
	return -1
}
