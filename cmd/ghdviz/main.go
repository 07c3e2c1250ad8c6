// Command ghdviz prints the GHD query plans the EmptyHeaded-style engine
// chooses for the LUBM queries, reproducing Figures 2 and 3 of the paper:
//
//	ghdviz -query 2            # Figure 2: triangle root with type children
//	ghdviz -query 4 -compare   # Figure 3: baseline star vs +GHD chain
package main

import (
	"flag"
	"fmt"
	"log"
	"slices"

	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/store"
)

func main() {
	qn := flag.Int("query", 2, "LUBM query number")
	scale := flag.Int("scale", 1, "LUBM scale used for statistics")
	compare := flag.Bool("compare", false, "show the plan with and without the +GHD/+Attribute optimizations")
	flag.Parse()
	if !slices.Contains(lubm.QueryNumbers, *qn) {
		log.Fatalf("ghdviz: no LUBM query %d (valid numbers: %v)", *qn, lubm.QueryNumbers)
	}

	b := store.NewBuilder()
	lubm.GenerateTo(lubm.Config{Universities: *scale}, b.Add)
	st := b.Build()

	q, err := query.ParseSPARQL(lubm.Query(*qn, *scale))
	if err != nil {
		log.Fatalf("ghdviz: %v", err)
	}
	fmt.Printf("LUBM query %d:\n%s\n\n", *qn, q)

	show := func(label string, opts plan.Options) {
		p, err := plan.Compile(q, st, opts)
		if err != nil {
			log.Fatalf("ghdviz: plan: %v", err)
		}
		fmt.Printf("--- %s ---\n", label)
		if p.Decomposition != nil {
			fmt.Print(p.Decomposition)
		}
		fmt.Print(p)
		fmt.Println()
	}

	if *compare {
		show("baseline (min fhw, min height; natural attribute order)", plan.Options{Layout: true})
		show("+Attribute +GHD (+ selection pushdown)", plan.AllOptimizations)
	} else {
		show("chosen plan (all optimizations)", plan.AllOptimizations)
	}
}
