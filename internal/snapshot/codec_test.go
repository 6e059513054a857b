package snapshot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/datagen"
	"cdb/internal/db"
	"cdb/internal/hurricane"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// canonical returns r with every tuple canonical, the form every loaded or
// operator-produced relation has and the only one the codec hands back.
func canonical(r *relation.Relation) *relation.Relation {
	out := relation.New(r.Schema())
	for _, t := range r.Tuples() {
		out.MustAdd(t.Canon())
	}
	return out
}

// edgeRelation holds what the families do not reach: NULL bindings, the
// empty and the false conjunction, a rational relational attribute, the
// int64 edges and values beyond them, strings made of the text format's
// own punctuation, an equality over three variables.
func edgeRelation() *relation.Relation {
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Rel("w", schema.Rational),
		schema.Con("x"), schema.Con("y"), schema.Con("z"))
	r := relation.New(s)
	huge := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(3))
	tiny := new(big.Rat).SetFrac(big.NewInt(-5), new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 67), big.NewInt(1)))
	rats := []rational.Rat{
		rational.Zero, rational.One, rational.New(-1, 2), rational.FromInt(math.MaxInt64), rational.FromInt(math.MinInt64 + 1),
		rational.FromBig(new(big.Rat).SetInt64(math.MinInt64)), rational.New(1, math.MaxInt64), rational.New(math.MaxInt64, math.MaxInt64-1),
		rational.FromBig(huge), rational.FromBig(tiny), rational.FromBig(new(big.Rat).Neg(huge)),
	}
	strs := []string{`a",b`, `a|b`, `a#b`, "a\nb", ` lead`, `a=b`, "", "é\x00", `\`}
	for i, q := range rats {
		rv := map[string]relation.Value{"w": relation.Rat(q)}
		if i%3 != 0 {
			rv["id"] = relation.Str(strs[i%len(strs)])
		}
		r.MustAdd(relation.NewTuple(rv, constraint.And(
			constraint.GeConst("x", q), constraint.LtConst("y", q.Neg()),
			constraint.Constraint{Expr: constraint.NewExpr([]constraint.Term{{Var: "x", Coef: rational.One},
				{Var: "y", Coef: rational.New(int64(i)+2, 7)}, {Var: "z", Coef: q.Add(rational.One)}}, q), Op: constraint.Eq})))
	}
	for _, v := range strs {
		r.MustAdd(relation.NewTuple(map[string]relation.Value{"id": relation.Str(v)}, constraint.True()))
	}
	r.MustAdd(relation.ConstraintTuple(constraint.True()))
	r.MustAdd(relation.ConstraintTuple(constraint.False()))
	r.MustAdd(relation.ConstraintTuple(constraint.And(constraint.LeConst("z", rational.FromInt(9)))))
	return canonical(r)
}

// codecFamilies is every shape of relation the tests and the benchmark
// commit: the datagen families, the hurricane case study, random schemas
// and tuples, the edge relation, an empty relation.
func codecFamilies() map[string]*relation.Relation {
	p := datagen.Scaled(20)
	out := map[string]*relation.Relation{
		"boxes":     datagen.BoxRelation(p, 64, 0),
		"boxes-mod": datagen.BoxRelation(p, 40, 5),
		"skewed":    datagen.SkewedBoxRelation(p, 48, 6),
		"clustered": datagen.ClusteredBoxRelation(p, 32, 3, 40, 7),
		"polygons":  datagen.PolygonRelation(p, 24, 3, 60, 11),
		"concave":   datagen.ConcavePolygonRelation(p, 12, 2, 60, 13),
		"edges":     edgeRelation(),
		"empty":     relation.New(schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"))),
	}
	h := hurricane.Build()
	for _, name := range h.Names() {
		out["hurricane-"+name], _ = h.Get(name)
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 6; i++ {
		out[fmt.Sprintf("random-%d", i)] = datagen.RandomRelation(rng, datagen.RandomSchema(rng), 12)
		out[fmt.Sprintf("random-polygons-%d", i)] = datagen.RandomPolygonRelation(rng, 10)
	}
	for name, r := range out {
		out[name] = canonical(r)
	}
	return out
}

// viaPages encodes r, cuts the stream into pages of cap bytes, and decodes
// their concatenation: the path of a commit followed by a materialise.
func viaPages(t testing.TB, r *relation.Relation, cap int) *relation.Relation {
	t.Helper()
	stream, ends, _, err := encodeRelation(r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var joined []byte
	for _, page := range chunkRecords(stream, ends, cap) {
		if len(page) == 0 || len(page) > cap {
			t.Fatalf("page of %d bytes, cap %d", len(page), cap)
		}
		joined = append(joined, page...)
	}
	if !bytes.Equal(joined, stream) {
		t.Fatalf("pages do not concatenate to the stream")
	}
	got, err := decodeRelation(r.Schema(), joined)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func saveOne(t testing.TB, r *relation.Relation) string {
	t.Helper()
	d := db.New()
	if err := d.Put("R", r); err != nil {
		t.Fatal(err)
	}
	return saveText(t, d)
}

// requireSame asserts got holds want's tuples in want's Rows order — equal
// relational parts, equal canonical constraint parts — and saves to the
// same bytes.
func requireSame(t testing.TB, want, got *relation.Relation) {
	t.Helper()
	rows := want.Rows()
	if got.Len() != len(rows) {
		t.Fatalf("%d tuples, want %d", got.Len(), len(rows))
	}
	for i, tp := range got.Tuples() {
		if !tp.SameRelationalPart(rows[i].Tuple) || !tp.Constraint().EqualCanonical(rows[i].Constraint()) {
			t.Fatalf("tuple %d: got %s, want %s", i, tp, rows[i])
		}
	}
	if a, b := saveOne(t, got), saveOne(t, want); a != b {
		t.Fatalf("saved text differs:\n--- got\n%s\n--- want\n%s", a, b)
	}
}

// requireCanonical asserts every constraint part of r is what Canon makes
// of its own atoms: the canonical flag is never set on anything else.
func requireCanonical(t testing.TB, r *relation.Relation) {
	t.Helper()
	for i, tp := range r.Tuples() {
		c := tp.Constraint()
		again := constraint.And(c.Constraints()...).Canon()
		if c.Len() != again.Len() || !c.EqualCanonical(again) || c.Fingerprint() != again.Fingerprint() {
			t.Fatalf("tuple %d is not canonical: %s, Canon gives %s", i, c, again)
		}
	}
}

func schemaJSON(t testing.TB, s schema.Schema) []byte {
	t.Helper()
	b, err := json.Marshal(attrsOf(s))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeCeiling bounds what decoding n bytes may allocate: linear in the
// input (a two-byte record costs a tuple, a canonical conjunction and its
// share of the slices that hold them), so a count read from the stream
// never sizes anything on its own.
func decodeCeiling(n int) uint64 { return 64<<10 + 768*uint64(n) }

// FuzzPageCodec holds the page codec to two lines. Decode ∘ encode is the
// identity on every family, at page sizes from one that splits every
// record to one that holds the relation. And arbitrary bytes against an
// arbitrary stored schema never panic, never allocate past decodeCeiling,
// and decode — when they decode at all — to canonical tuples that encode
// and decode to themselves.
func FuzzPageCodec(f *testing.F) {
	families := codecFamilies()
	for _, name := range sortedKeys(families) { // sorted: seed#N names the same input on every run
		r := families[name]
		for _, cap := range []int{7, 60, testPageSize - 4, 1 << 20} {
			got := viaPages(f, r, cap)
			requireCanonical(f, got)
			requireSame(f, r, got)
		}
		stream, _, _, err := encodeRelation(r)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(schemaJSON(f, r.Schema()), stream)
	}
	f.Fuzz(func(t *testing.T, attrs, stream []byte) {
		var rel RelationPages
		if json.Unmarshal(attrs, &rel.Schema) != nil {
			return
		}
		s, err := rel.schema()
		if err != nil {
			return
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r, err := decodeRelation(s, stream)
		runtime.ReadMemStats(&m1)
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > decodeCeiling(len(stream)) {
			t.Fatalf("decoding %d bytes allocated %d, ceiling %d", len(stream), grew, decodeCeiling(len(stream)))
		}
		if err != nil {
			return
		}
		requireCanonical(t, r)
		// The decoded order is the stream's, not necessarily Rows order
		// (arbitrary bytes are not a commit), so compare through a second
		// trip instead of against Rows.
		again, _, _, err := encodeRelation(r)
		if err != nil {
			t.Fatalf("decoded relation does not encode: %v", err)
		}
		r2, err := decodeRelation(s, again)
		if err != nil {
			t.Fatalf("re-encoded relation does not decode: %v", err)
		}
		requireSame(t, r, r2)
	})
}

// TestChunkRecordsAlignment: a page boundary falls inside a record only
// when the record is longer than a page, and appending records changes
// only the tail of the page run.
func TestChunkRecordsAlignment(t *testing.T) {
	r := codecFamilies()["boxes"]
	stream, ends, _, err := encodeRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	isEnd := map[int]bool{0: true}
	longest := 0
	for i, e := range ends {
		isEnd[e] = true
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		longest = max(longest, e-start)
	}
	for _, cap := range []int{longest, 2 * longest, 252} {
		off := 0
		for _, page := range chunkRecords(stream, ends, cap) {
			if !isEnd[off] {
				t.Fatalf("cap %d: a page starts inside a record at offset %d", cap, off)
			}
			off += len(page)
		}
		// Dropping the last ten records keeps every page but the tail.
		cut := len(ends) - 10
		short := chunkRecords(stream[:ends[cut-1]], ends[:cut], cap)
		full := chunkRecords(stream, ends, cap)
		for i := 0; i < len(short)-1; i++ {
			if !bytes.Equal(short[i], full[i]) {
				t.Fatalf("cap %d: page %d changed when records were appended behind it", cap, i)
			}
		}
	}
	if pages := chunkRecords(stream, ends, longest-1); len(pages) == 0 {
		t.Fatal("a record longer than a page produced no pages")
	}
}

// TestDecodeRejectsDamage: each way a stream can contradict the schema or
// itself is an error, named by record.
func TestDecodeRejectsDamage(t *testing.T) {
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"), schema.Con("y"))
	for name, stream := range map[string][]byte{
		"truncated record":        {1, 1, 'a'},
		"binding out of range":    {4, 0, 0},
		"binding to a constraint": {2, 1, 0, 0, 0},
		"bindings out of order":   {1, 0, 1, 0, 0, 0},
		"string past the end":     {1, 200, 'a', 0, 0},
		"atom count past the end": {0, 200},
		"term count past the end": {0, 1, 31<<2 | 1},
		"operator code 3":         {0, 1, 3, 1, 0},
		"term over a string":      {0, 1, 1<<2 | 1, 0, 1, 2, 1, 0},
		"term past the schema":    {0, 1, 1<<2 | 1, 3, 1, 2, 1, 0},
		"terms out of order":      {0, 1, 2<<2 | 1, 2, 1, 2, 1, 1, 2, 1, 0},
		"duplicate variable":      {0, 1, 2<<2 | 1, 1, 1, 2, 1, 1, 2, 1, 0},
		"zero coefficient":        {0, 1, 1<<2 | 1, 1, 1, 0, 1, 0},
		"big value, no bytes":     {0, 1, 0<<2 | 1, 0, 9},
		"big zero denominator":    {0, 1, 0<<2 | 1, 0, 2, 5, 1, 0},
		"denominator past int64":  {0, 1, 0<<2 | 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 2},
	} {
		if r, err := decodeRelation(s, stream); err == nil {
			t.Errorf("%s: decoded to %s", name, r)
		}
	}
	// Not damage: a value the bytes spell out of lowest terms, or in the
	// long form though it fits, is the value, reduced.
	r, err := decodeRelation(s, []byte{0, 1, 1<<2 | 1, 1, 4, 4, 0, 2, 3, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	requireCanonical(t, r)
	if got := r.Tuples()[0].Constraint().String(); got != "x <= -6" {
		t.Fatalf("2/4·x + 3/1 <= 0 (the 3/1 in the long form) decoded to %q, want x <= -6", got)
	}
}
