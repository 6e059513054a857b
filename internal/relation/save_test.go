package relation_test

import (
	"bytes"
	"math/rand"
	"testing"

	"cdb/internal/db"
	"cdb/internal/relation"
)

// TestNormalizeSaveMatchesReference: a database holding a NormalizeWith
// result saves to the bytes it saves to holding the former body's result.
// The text format is written from Rows, so this is the order and the
// rendering NormalizeWith remembered, end to end.
func TestNormalizeSaveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	save := func(r *relation.Relation) []byte {
		d := db.New()
		if err := d.Put("R", r); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := d.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for i := 0; i < 100; i++ {
		r := relation.OrderRelation(rng, 1+rng.Intn(80))
		got, want := save(r.Normalize()), save(relation.ReferenceNormalize(r, nil))
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: Save differs\n got  %s\n want %s", i, got, want)
		}
	}
}
