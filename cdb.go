// Package cdb is the public facade of the CQA/CDB constraint database
// system — a from-scratch Go implementation of the system described in
// "The Constraint Database Framework: Lessons Learned from CQA/CDB"
// (Goldin, Kutlu, Song; ICDE 2003).
//
// The facade re-exports the stable surface of the internal packages:
//
//   - the heterogeneous data model: schemas with the C/R flag
//     (NewSchema, Rel, Con), heterogeneous relations and tuples;
//   - the constraint engine: exact rational arithmetic, linear
//     constraints, conjunctions with satisfiability / entailment /
//     projection;
//   - the Constraint Query Algebra: Select, Project, Join, Union, Rename,
//     Difference, plans and the optimiser;
//   - the query language: Parse / Run of multi-step programs in the
//     paper's ASCII syntax;
//   - the whole-feature spatial operators: BufferJoin, KNearest over
//     feature layers and spatial constraint relations;
//   - the index layer: R*-trees with joint vs. separate strategies and
//     disk-access accounting;
//   - the experiment harness reproducing the paper's Figures 4-5;
//   - the observability layer: query tracing (Tracer) and metrics
//     (MetricsRegistry); the commands render and serve them.
//
// A minimal end-to-end example:
//
//	d := cdb.NewDatabase()
//	land := cdb.NewRelation(cdb.MustSchema(
//		cdb.Rel("landId", cdb.String), cdb.Con("x"), cdb.Con("y")))
//	// ... add tuples ...
//	d.Put("Land", land)
//	out, err := d.Run(`R = select x >= 5 from Land`, nil) // nil: sequential, no stats
//
// See the runnable programs under examples/ for complete scenarios.
package cdb

import (
	"cdb/internal/calculus"
	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/db"
	"cdb/internal/exec"
	"cdb/internal/experiments"
	"cdb/internal/geometry"
	"cdb/internal/indefinite"
	"cdb/internal/nested"
	"cdb/internal/obs"
	"cdb/internal/query"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/rstar"
	"cdb/internal/schema"
	"cdb/internal/spatial"
	"cdb/internal/storage"
)

// --- exact rational arithmetic ---

// Rat is an exact rational number (see internal/rational).
type Rat = rational.Rat

// ParseRat parses "42", "3/4" or "2.5" into an exact rational.
func ParseRat(s string) (Rat, error) { return rational.Parse(s) }

// MustRat is ParseRat that panics on error (fixtures, tests).
func MustRat(s string) Rat { return rational.MustParse(s) }

// RatFromInt converts an int64.
func RatFromInt(n int64) Rat { return rational.FromInt(n) }

// --- schemas: the heterogeneous data model ---

// Schema is a heterogeneous relation schema; every attribute carries the
// paper's C/R flag.
type Schema = schema.Schema

// Attribute is one schema column.
type Attribute = schema.Attribute

// Attribute types and kinds.
const (
	String     = schema.String
	Rational   = schema.Rational
	Relational = schema.Relational
	Constraint = schema.Constraint
)

// NewSchema validates and builds a schema.
func NewSchema(attrs ...Attribute) (Schema, error) { return schema.New(attrs...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(attrs ...Attribute) Schema { return schema.MustNew(attrs...) }

// Rel declares a relational (narrow-semantics) attribute.
func Rel(name string, t schema.Type) Attribute { return schema.Rel(name, t) }

// Con declares a constraint (broad-semantics, rational) attribute.
func Con(name string) Attribute { return schema.Con(name) }

// --- relations and tuples ---

// Relation is a heterogeneous constraint relation.
type Relation = relation.Relation

// Tuple is one heterogeneous constraint tuple.
type Tuple = relation.Tuple

// Value is a concrete relational-attribute value (string, rational, NULL).
type Value = relation.Value

// NewRelation returns an empty relation over the schema.
func NewRelation(s Schema) *Relation { return relation.New(s) }

// NewTuple builds a tuple from relational bindings and a constraint part.
func NewTuple(rvals map[string]Value, con Conjunction) Tuple {
	return relation.NewTuple(rvals, con)
}

// Str, RatVal, Null build relational values.
func Str(s string) Value   { return relation.Str(s) }
func RatVal(r Rat) Value   { return relation.Rat(r) }
func Null() Value          { return relation.Null() }
func IntVal(n int64) Value { return relation.Int(n) }

// --- the constraint engine ---

// Expr is a linear expression over rational attributes.
type Expr = constraint.Expr

// LinearConstraint is one atomic linear constraint.
type LinearConstraint = constraint.Constraint

// Conjunction is a constraint tuple's conjunction of atomic constraints.
type Conjunction = constraint.Conjunction

// VarExpr returns the expression consisting of one variable.
func VarExpr(name string) Expr { return constraint.Var(name) }

// ConstExpr returns a constant expression.
func ConstExpr(r Rat) Expr { return constraint.Const(r) }

// NewConstraint builds lhs op rhs for op in =, <, <=, >, >=.
func NewConstraint(lhs Expr, op string, rhs Expr) (LinearConstraint, error) {
	return constraint.New(lhs, op, rhs)
}

// And conjoins constraints into a constraint tuple.
func And(cs ...LinearConstraint) Conjunction { return constraint.And(cs...) }

// ParseConstraints parses "x >= 0, x + 2y <= 3" into atomic constraints.
func ParseConstraints(src string) ([]LinearConstraint, error) {
	return query.ParseConstraints(src)
}

// --- the algebra (CQA) ---

// Select, Project, Join, Intersect, Union, Rename, Difference are the six
// (plus derived) CQA operators over heterogeneous relations. Each takes an
// execution context first: the per-tuple(-pair) satisfiability work fans
// out over the context's worker pool and per-operator stats are recorded
// on it; a nil context is sequential with no stats.
var (
	Select     = cqa.Select
	Project    = cqa.Project
	Join       = cqa.Join
	Intersect  = cqa.Intersect
	Union      = cqa.Union
	Rename     = cqa.Rename
	Difference = cqa.Difference
)

// Condition is a conjunction of selection atoms.
type Condition = cqa.Condition

// PlanNode is a CQA plan (expression tree).
type PlanNode = cqa.Node

// Env is the catalog of named relations a plan reads (Database.Env).
type Env = cqa.Env

// Optimize rewrites a plan over env's schemas (selection pushdown, ...).
func Optimize(n PlanNode, env Env) PlanNode { return cqa.Optimize(n, env) }

// --- parallel execution (package exec) ---

// ExecContext carries the parallel execution policy (worker-pool size,
// sequential-fallback threshold) and collects per-operator statistics.
// Every operator, Database.Run and RuleProgram.RunCtx take one; a nil
// *ExecContext means sequential with no stats.
// Parallel execution is deterministic: results are byte-identical to the
// sequential path at any parallelism.
type ExecContext = exec.Context

// OpStats is one operator invocation's execution record (tuples in/out,
// satisfiability checks, pruned-unsat count, sat-cache hits/misses, wall
// time).
type OpStats = exec.OpStats

// NewExecContext returns an execution context with the given worker-pool
// size (0 = GOMAXPROCS).
func NewExecContext(parallelism int) *ExecContext { return exec.New(parallelism) }

// --- canonical forms and the memoized satisfiability engine ---

// SatCache is the sharded, bounded-LRU memo of satisfiability decisions,
// keyed by canonical-form fingerprint. Set it on ExecContext.SatCache to
// have every operator's decisions memoized; share one across contexts and
// queries to carry the memo between runs. Safe for concurrent use.
type SatCache = constraint.SatCache

// CacheStats is a point-in-time snapshot of a SatCache's counters.
type CacheStats = constraint.CacheStats

// NewSatCache returns a sat-cache bounded to roughly capacity entries
// (non-positive = the default size).
func NewSatCache(capacity int) *SatCache { return constraint.NewSatCache(capacity) }

// FormatStats renders operator records as an aligned table.
func FormatStats(stats []OpStats) string { return exec.FormatStats(stats) }

// --- observability (package obs) ---

// Tracer collects hierarchical query execution spans. Set it on
// ExecContext.Tracer and every plan node, calculus rule, database load
// and pool fan-out records a span (Tracer.Roots). All tracing
// APIs are nil-safe: a nil Tracer (the default) costs a nil check.
type Tracer = obs.Tracer

// Span is one traced region: named, timed, parent-linked, carrying
// named int64 counters (tuples in/out, sat checks, cache hits, ...).
type Span = obs.Span

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// MetricsRegistry is a registry of counters, gauges and histograms with
// Prometheus text and expvar exposition. Set it as an ExecContext's
// Metrics to collect the per-operator families (cdb_op_*).
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// --- the query language ---

// Program is a parsed multi-step query in the paper's ASCII syntax.
type Program = query.Program

// ParseQuery parses a multi-statement query program.
func ParseQuery(src string) (*Program, error) { return query.Parse(src) }

// --- the declarative (calculus) front end ---

// RuleProgram is a parsed program of non-recursive conjunctive rules —
// the declarative CQC-style front end that translates to CQA plans.
type RuleProgram = calculus.Program

// ParseRules parses a rule program like
//
//	owned(name, t) :- Landownership(name, t, id), id = "A".
func ParseRules(src string) (*RuleProgram, error) { return calculus.Parse(src) }

// --- nested and indefinite extensions ---

// NestedRelation is the Dedale-style feature-grouped representation (§6):
// relational bindings stored once per feature, extents as nested sets of
// constraint tuples.
type NestedRelation = nested.Relation

// Nest groups a flat relation by its relational part; Unnest (a method on
// NestedRelation) flattens back.
func Nest(r *Relation) *NestedRelation { return nested.Nest(r) }

// IndefiniteRelation reinterprets constraint parts disjunctively (§3.1):
// one satisfying assignment is the truth, queries answer possibly or
// certainly.
type IndefiniteRelation = indefinite.Relation

// Answer modes for indefinite queries.
const (
	Possibly  = indefinite.Possibly
	Certainly = indefinite.Certainly
)

// NewIndefinite wraps a heterogeneous relation as indefinite information,
// rejecting inconsistent tuples.
func NewIndefinite(r *Relation) (*IndefiniteRelation, error) { return indefinite.New(r) }

// --- the catalog ---

// Database is a named collection of relations with text serialisation.
type Database = db.Database

// NewDatabase returns an empty database.
func NewDatabase() *Database { return db.New() }

// LoadDatabase reads a database file in the text format.
func LoadDatabase(path string) (*Database, error) { return db.LoadFile(path) }

// --- spatial layer ---

// Layer is a set of identified spatial features (the vector-side view of
// a spatial constraint relation).
type Layer = spatial.Layer

// Feature, Geometry, Pair, Neighbor are the spatial operator vocabulary.
type (
	Feature  = spatial.Feature
	Geometry = spatial.Geometry
	Pair     = spatial.Pair
	Neighbor = spatial.Neighbor
)

// NewLayer returns an empty feature layer.
func NewLayer(name string) *Layer { return spatial.NewLayer(name) }

// Geometry constructors.
var (
	PointGeom  = spatial.PointGeom
	LineGeom   = spatial.LineGeom
	RegionGeom = spatial.RegionGeom
)

// BufferJoin and KNearest are the paper's safe whole-feature operators;
// Overlaps, CoveredBy and WithinDistOf extend the same family (exact
// predicates, ID-relation outputs).
var (
	BufferJoin   = spatial.BufferJoin
	KNearest     = spatial.KNearest
	Overlaps     = spatial.Overlaps
	CoveredBy    = spatial.CoveredBy
	WithinDistOf = spatial.WithinDistOf
)

// SqDist returns the exact squared Euclidean distance between geometries
// — the rational object the spatial operators compare.
func SqDist(a, b Geometry) Rat { return spatial.SqDist(a, b) }

// DistanceApprox returns the display-only float distance; the exact
// object is SqDist (Euclidean distance is irrational in general, which is
// what makes a raw distance operator unsafe as query output).
func DistanceApprox(a, b Geometry) float64 { return spatial.Distance(a, b) }

// Geometric primitives.
type (
	Point    = geometry.Point
	Segment  = geometry.Segment
	Polyline = geometry.Polyline
	Polygon  = geometry.Polygon
)

// Pt builds an integer point; NewPolygon/NewPolyline validate vertex
// lists.
var (
	Pt          = geometry.Pt
	NewPolygon  = geometry.NewPolygon
	NewPolyline = geometry.NewPolyline
)

// --- index layer ---

// Index is a multi-attribute index strategy (joint / separate / scan).
type Index = rstar.Index

// Rect is an axis-aligned key rectangle.
type Rect = rstar.Rect

// Index strategy constructors and helpers.
var (
	NewJointIndex    = rstar.NewJointIndex
	NewSeparateIndex = rstar.NewSeparateIndex
	NewScanIndex     = rstar.NewScanIndex
	Rect1            = rstar.Rect1
	Rect2            = rstar.Rect2
	UnboundedQuery   = rstar.UnboundedQuery
)

// RStarOptions tune the underlying R*-trees.
type RStarOptions = rstar.Options

// NewRect validates and builds a key rectangle of any dimension.
func NewRect(min, max []float64) (Rect, error) { return rstar.NewRect(min, max) }

// AdviseIndexes enumerates all attribute partitions, replays the workload
// on each, and returns the measured costs, best first.
var AdviseIndexes = rstar.Advise

// Pager abstracts paged storage with disk-access counting.
type Pager = storage.Pager

// NewMemPager returns an in-memory pager (size 0 = 4 KiB pages).
func NewMemPager(size int) *storage.MemPager { return storage.NewMemPager(size) }

// --- experiments ---

// ExperimentParams are the §5.4 workload parameters.
type ExperimentParams = datagen.Params

// PaperWorkload returns the exact published workload parameters.
func PaperWorkload() ExperimentParams { return datagen.Paper() }

// The per-figure experiment runners.
var (
	Figure4A    = experiments.Figure4A
	Figure4B    = experiments.Figure4B
	Figure5A    = experiments.Figure5A
	Figure5B    = experiments.Figure5B
	Experiment3 = experiments.Experiment3
	CornerCase  = experiments.Corner
)
