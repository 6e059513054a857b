// Calculus: the declarative side of the CQC ≡ CQA story (§2.2).
//
// The same Hurricane queries, written as conjunctive rules instead of
// algebra programs. Rules are translated to CQA plans, optimised, and
// evaluated — "declarative user queries are translated into algebraic
// expressions before they are optimized and evaluated".
//
// Run: go run ./examples/calculus
package main

import (
	"fmt"
	"log"

	"cdb"
	"cdb/internal/hurricane"
)

func main() {
	d := hurricane.Build()
	env := d.Env()

	programs := []struct {
		title string
		src   string
	}{
		{
			"Query 1: who owned Land A and when (constant in a comparison)",
			`owned(name, t) :- Landownership(name, t, id), id = "A".`,
		},
		{
			"Query 2: lands the hurricane passed (join by repeated variables)",
			`passed(id) :- Hurricane(t, x, y), Land(id, x, y).`,
		},
		{
			"Query 3: owners hit during [4,9] (two rules, comparisons)",
			`hitAt(name, t) :- Landownership(name, t, id), Land(id, x, y), Hurricane(t, x, y).
answer(name)   :- hitAt(name, t), t >= 4, t <= 9.`,
		},
		{
			"Where was the hurricane at t = 6? (rational constant in an atom)",
			`at6(x, y) :- Hurricane(6, x, y).`,
		},
		{
			"Self-symmetric track points: x = y via a repeated variable",
			`sym(t) :- Hurricane(t, v, v).`,
		},
	}

	for _, p := range programs {
		fmt.Printf("=== %s ===\n%s\n", p.title, p.src)
		prog, err := cdb.ParseRules(p.src)
		if err != nil {
			log.Fatal(err)
		}
		out, err := prog.RunCtx(env, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-- result --\n%s\n\n", out)
	}

	fmt.Println("Every rule above is a natural join: each body atom was selected and")
	fmt.Println("renamed towards its variable names, the atoms were joined, and the")
	fmt.Println("head projected — the CQC-to-CQA pipeline of the paper's Figure 1.")
}
