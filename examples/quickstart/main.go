// Quickstart: the heterogeneous data model and CQA in ~80 lines.
//
// Builds the paper's Example 3 relation (one relational attribute, one
// constraint attribute), shows the narrow/broad missing-attribute
// semantics, and runs a multi-step query in the ASCII query language.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cdb"
)

func main() {
	// Example 3 (§3.2): R = {(x=1), (y=1), (x=17, y=17)} with schema
	// [x: relational, y: constraint].
	s := cdb.MustSchema(
		cdb.Rel("x", cdb.Rational), // relational: missing ⇒ NULL (narrow)
		cdb.Con("y"),               // constraint: missing ⇒ any value (broad)
	)
	r := cdb.NewRelation(s)
	one, seventeen := cdb.RatFromInt(1), cdb.RatFromInt(17)

	// (x = 1): y is unconstrained, so it broadly admits every value.
	r.MustAdd(cdb.NewTuple(map[string]cdb.Value{"x": cdb.RatVal(one)}, cdb.And()))
	// (y = 1): x is NULL, which narrowly matches nothing.
	yEq1, err := cdb.NewConstraint(cdb.VarExpr("y"), "=", cdb.ConstExpr(one))
	if err != nil {
		log.Fatal(err)
	}
	r.MustAdd(cdb.NewTuple(nil, cdb.And(yEq1)))
	// (x = 17, y = 17).
	yEq17, _ := cdb.NewConstraint(cdb.VarExpr("y"), "=", cdb.ConstExpr(seventeen))
	r.MustAdd(cdb.NewTuple(map[string]cdb.Value{"x": cdb.RatVal(seventeen)}, cdb.And(yEq17)))

	d := cdb.NewDatabase()
	if err := d.Put("R", r); err != nil {
		log.Fatal(err)
	}

	// The paper's asymmetry, through the query language:
	// ς_{x=17} R returns one tuple (narrow: the (y=1) tuple has x = NULL).
	out1, err := d.Run(`A = select x = 17 from R`, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("select x = 17 from R  ->  %d tuple(s)\n%s\n\n", out1.Len(), out1)

	// ς_{y=17} R returns two tuples (broad: the (x=1) tuple's free y
	// admits 17).
	out2, err := d.Run(`A = select y = 17 from R`, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("select y = 17 from R  ->  %d tuple(s)\n%s\n\n", out2.Len(), out2)

	// A multi-step program: infinite data, finite answers. The constraint
	// attribute y ranges over an interval after a selection.
	out3, err := d.Run(`
S0 = select y >= 3, y <= 20 from R
S1 = project S0 on y`, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("project (select 3 <= y <= 20 from R) on y:\n%s\n", out3)

	// Exactness: coefficients are rationals, not floats.
	out4, err := d.Run(`T = select 1/3y <= 1/3 from R`, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nselect 1/3·y <= 1/3 (exact arithmetic, y <= 1):\n%s\n", out4)
}
