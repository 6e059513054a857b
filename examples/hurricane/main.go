// Hurricane: the paper's §3.3 case study, end to end.
//
// Prints the heterogeneous database instance (Figure 2, reconstructed)
// and runs the five case-study queries in the ASCII query language.
//
// Run: go run ./examples/hurricane
package main

import (
	"fmt"
	"log"

	"cdb/internal/hurricane"
)

func main() {
	d := hurricane.Build()

	fmt.Println("=== The Hurricane Database (heterogeneous data model) ===")
	for _, name := range d.Names() {
		r, _ := d.Get(name)
		fmt.Printf("\n%s %s\n", name, r.Schema())
		for _, t := range r.Sorted() {
			fmt.Printf("  %s\n", t)
		}
	}

	for _, nq := range hurricane.Queries() {
		fmt.Printf("\n=== %s: %s ===\n", nq.Name, nq.Description)
		fmt.Println(nq.Text)
		out, err := d.Run(nq.Text, nil)
		if err != nil {
			log.Fatalf("%s: %v", nq.Name, err)
		}
		fmt.Println("-- result --")
		fmt.Println(out)
	}
}
