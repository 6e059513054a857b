package cqa

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"cdb/internal/exec"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// Node is a CQA expression tree — the algebraic "plan" of a query. Plans
// are built by the query language front end (package query) or directly,
// optimised by Optimize, and evaluated bottom-up against an environment of
// named relations.
type Node interface {
	fmt.Stringer
	// EvalCtx evaluates the subtree under an execution context: operators
	// fan their satisfiability work out over ec's worker pool and record
	// per-operator stats on ec. When ec traces, every node opens a span,
	// so the evaluated plan appears as a tree in EXPLAIN output (the
	// operator's own counters fold into the node's line). A nil ec
	// evaluates sequentially, untraced.
	EvalCtx(env Env, ec *exec.Context) (*relation.Relation, error)
	// OutSchema computes the result schema without evaluating.
	OutSchema(env Env) (schema.Schema, error)
}

// Env is the catalog a plan reads: relation names looked up through
// layers, the newest first. Binding puts a layer on top (With); the layers
// below — a shared database, a session's overlay — are read, never copied.
type Env struct {
	rels  map[string]*relation.Relation
	outer *Env
}

// EnvOf returns the one-layer environment over rels.
func EnvOf(rels map[string]*relation.Relation) Env { return Env{rels: rels} }

// With returns e under a new top layer rels, whose names shadow e's.
func (e Env) With(rels map[string]*relation.Relation) Env { return Env{rels, &e} }

// Lookup returns the relation bound to name in the topmost layer binding it.
func (e Env) Lookup(name string) (*relation.Relation, bool) {
	if r, ok := e.rels[name]; ok || e.outer == nil {
		return r, ok
	}
	return e.outer.Lookup(name)
}

// ScanNode reads a named base (or intermediate) relation.
type ScanNode struct{ Name string }

// Scan returns a node reading the named relation.
func Scan(name string) *ScanNode { return &ScanNode{Name: name} }

func (n *ScanNode) EvalCtx(env Env, ec *exec.Context) (*relation.Relation, error) {
	sp := ec.BeginSpan("scan", n.Name)
	defer ec.EndSpan(sp)
	r, ok := env.Lookup(n.Name)
	if !ok {
		return nil, fmt.Errorf("cqa: unknown relation %q", n.Name)
	}
	sp.Set("rows", int64(r.Len()))
	return r, nil
}

func (n *ScanNode) OutSchema(env Env) (schema.Schema, error) {
	r, ok := env.Lookup(n.Name)
	if !ok {
		return schema.Schema{}, fmt.Errorf("cqa: unknown relation %q", n.Name)
	}
	return r.Schema(), nil
}

func (n *ScanNode) String() string { return n.Name }

// SelectNode applies a selection condition.
type SelectNode struct {
	Input Node
	Cond  Condition
}

// NewSelect returns a selection node.
func NewSelect(in Node, cond Condition) *SelectNode {
	return &SelectNode{Input: in, Cond: cond}
}

func (n *SelectNode) EvalCtx(env Env, ec *exec.Context) (*relation.Relation, error) {
	var detail string
	if ec.Tracing() {
		detail = n.Cond.String()
	}
	sp := ec.BeginSpan("select", detail)
	defer ec.EndSpan(sp)
	in, err := n.Input.EvalCtx(env, ec)
	if err != nil {
		return nil, err
	}
	return Select(ec, in, n.Cond)
}

func (n *SelectNode) OutSchema(env Env) (schema.Schema, error) {
	s, err := n.Input.OutSchema(env)
	if err != nil {
		return schema.Schema{}, err
	}
	if err := n.Cond.Validate(s); err != nil {
		return schema.Schema{}, err
	}
	return s, nil
}

func (n *SelectNode) String() string {
	return fmt.Sprintf("select %s from %s", n.Cond, n.Input)
}

// ProjectNode projects onto a column list.
type ProjectNode struct {
	Input Node
	Cols  []string
}

// NewProject returns a projection node.
func NewProject(in Node, cols ...string) *ProjectNode {
	return &ProjectNode{Input: in, Cols: cols}
}

func (n *ProjectNode) EvalCtx(env Env, ec *exec.Context) (*relation.Relation, error) {
	var detail string
	if ec.Tracing() {
		detail = strings.Join(n.Cols, ", ")
	}
	sp := ec.BeginSpan("project", detail)
	defer ec.EndSpan(sp)
	in, err := n.Input.EvalCtx(env, ec)
	if err != nil {
		return nil, err
	}
	return Project(ec, in, n.Cols...)
}

func (n *ProjectNode) OutSchema(env Env) (schema.Schema, error) {
	s, err := n.Input.OutSchema(env)
	if err != nil {
		return schema.Schema{}, err
	}
	return s.Project(n.Cols...)
}

func (n *ProjectNode) String() string {
	return fmt.Sprintf("project %s on %s", n.Input, strings.Join(n.Cols, ", "))
}

// JoinNode is the natural join of two inputs.
type JoinNode struct{ Left, Right Node }

// NewJoin returns a natural-join node.
func NewJoin(l, r Node) *JoinNode { return &JoinNode{Left: l, Right: r} }

func (n *JoinNode) EvalCtx(env Env, ec *exec.Context) (*relation.Relation, error) {
	sp := ec.BeginSpan("join", "")
	defer ec.EndSpan(sp)
	l, err := n.Left.EvalCtx(env, ec)
	if err != nil {
		return nil, err
	}
	r, err := n.Right.EvalCtx(env, ec)
	if err != nil {
		return nil, err
	}
	return joinCtx(ec, "join", l, r)
}

func (n *JoinNode) OutSchema(env Env) (schema.Schema, error) {
	ls, err := n.Left.OutSchema(env)
	if err != nil {
		return schema.Schema{}, err
	}
	rs, err := n.Right.OutSchema(env)
	if err != nil {
		return schema.Schema{}, err
	}
	return ls.Join(rs)
}

func (n *JoinNode) String() string {
	return fmt.Sprintf("join %s and %s", n.Left, n.Right)
}

// UnionNode is the union of two inputs with equal schemas.
type UnionNode struct{ Left, Right Node }

// NewUnion returns a union node.
func NewUnion(l, r Node) *UnionNode { return &UnionNode{Left: l, Right: r} }

func (n *UnionNode) EvalCtx(env Env, ec *exec.Context) (*relation.Relation, error) {
	sp := ec.BeginSpan("union", "")
	defer ec.EndSpan(sp)
	l, err := n.Left.EvalCtx(env, ec)
	if err != nil {
		return nil, err
	}
	r, err := n.Right.EvalCtx(env, ec)
	if err != nil {
		return nil, err
	}
	return Union(ec, l, r)
}

func (n *UnionNode) OutSchema(env Env) (schema.Schema, error) {
	ls, err := n.Left.OutSchema(env)
	if err != nil {
		return schema.Schema{}, err
	}
	rs, err := n.Right.OutSchema(env)
	if err != nil {
		return schema.Schema{}, err
	}
	if !ls.Equal(rs) {
		return schema.Schema{}, fmt.Errorf("cqa: union schema mismatch: %s vs %s", ls, rs)
	}
	return ls, nil
}

func (n *UnionNode) String() string {
	return fmt.Sprintf("union %s and %s", n.Left, n.Right)
}

// DiffNode is the difference of two inputs with equal schemas.
type DiffNode struct{ Left, Right Node }

// NewDiff returns a difference node.
func NewDiff(l, r Node) *DiffNode { return &DiffNode{Left: l, Right: r} }

func (n *DiffNode) EvalCtx(env Env, ec *exec.Context) (*relation.Relation, error) {
	sp := ec.BeginSpan("difference", "")
	defer ec.EndSpan(sp)
	l, err := n.Left.EvalCtx(env, ec)
	if err != nil {
		return nil, err
	}
	r, err := n.Right.EvalCtx(env, ec)
	if err != nil {
		return nil, err
	}
	return Difference(ec, l, r)
}

func (n *DiffNode) OutSchema(env Env) (schema.Schema, error) {
	ls, err := n.Left.OutSchema(env)
	if err != nil {
		return schema.Schema{}, err
	}
	rs, err := n.Right.OutSchema(env)
	if err != nil {
		return schema.Schema{}, err
	}
	if !ls.Equal(rs) {
		return schema.Schema{}, fmt.Errorf("cqa: difference schema mismatch: %s vs %s", ls, rs)
	}
	return ls, nil
}

func (n *DiffNode) String() string {
	return fmt.Sprintf("minus %s and %s", n.Left, n.Right)
}

// RenameNode renames attributes by one simultaneous mapping old → new.
type RenameNode struct {
	Input Node
	Map   map[string]string
}

// NewRename returns the node applying the whole mapping at once.
func NewRename(in Node, m map[string]string) *RenameNode {
	return &RenameNode{Input: in, Map: m}
}

// pairs renders the mapping in old-name order: "a<sep>b, c<sep>d".
func (n *RenameNode) pairs(sep string) string {
	olds := slices.Sorted(maps.Keys(n.Map))
	for i, old := range olds {
		olds[i] = old + sep + n.Map[old]
	}
	return strings.Join(olds, ", ")
}

func (n *RenameNode) EvalCtx(env Env, ec *exec.Context) (*relation.Relation, error) {
	var detail string
	if ec.Tracing() {
		detail = n.pairs(" -> ")
	}
	sp := ec.BeginSpan("rename", detail)
	defer ec.EndSpan(sp)
	in, err := n.Input.EvalCtx(env, ec)
	if err != nil {
		return nil, err
	}
	return Rename(ec, in, n.Map)
}

func (n *RenameNode) OutSchema(env Env) (schema.Schema, error) {
	s, err := n.Input.OutSchema(env)
	if err != nil {
		return schema.Schema{}, err
	}
	return s.RenameAll(n.Map)
}

func (n *RenameNode) String() string {
	return fmt.Sprintf("rename %s in %s", n.pairs(" to "), n.Input)
}
