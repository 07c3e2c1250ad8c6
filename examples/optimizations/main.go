// Optimizations: a walk through §III of the paper. Runs selected LUBM
// queries with each classic optimization disabled in turn and reports the
// slowdown relative to the fully optimized engine — a miniature Table I.
//
//   - +Layout     (§III-A): bitsets for dense sets make equality probes O(1);
//   - +Attribute  (§III-B1): selections move to the front of the trie order,
//     turning full-relation walks into index descents;
//   - +GHD        (§III-B2): selective relations sink to the bottom of the
//     plan, so big relations are filtered before materialization.
//
// §III-C's pipelining has no row: it is not implemented (see the README's
// Table I notes).
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	const scale = 1
	ds := repro.GenerateLUBM(scale, 0)
	fmt.Printf("LUBM(%d): %d triples\n\n", scale, ds.NumTriples())

	type ablation struct {
		name string
		opts repro.Options
	}
	all := repro.AllOptimizations
	ablations := []ablation{
		{"-Layout", repro.Options{Layout: false, AttributeReorder: true, GHDPushdown: true}},
		{"-Attribute", repro.Options{Layout: true, AttributeReorder: false, GHDPushdown: true}},
		{"-GHD", repro.Options{Layout: true, AttributeReorder: true, GHDPushdown: false}},
	}

	measure := func(opts repro.Options, q *repro.BGP) time.Duration {
		e := repro.NewEmptyHeaded(ds, opts)
		if _, err := repro.Execute(e, q); err != nil { // warm tries + plan cache
			log.Fatal(err)
		}
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := repro.Execute(e, q); err != nil {
				log.Fatal(err)
			}
			if d := time.Since(t0); best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	fmt.Printf("%-6s %12s", "query", "optimized")
	for _, ab := range ablations {
		fmt.Printf(" %12s", ab.name)
	}
	fmt.Println()
	for _, qn := range []int{1, 2, 4, 7, 8, 14} {
		q, err := repro.Parse(repro.LUBMQuery(qn, scale))
		if err != nil {
			log.Fatal(err)
		}
		base := measure(all, q)
		fmt.Printf("Q%-5d %12v", qn, base.Round(time.Microsecond))
		for _, ab := range ablations {
			t := measure(ab.opts, q)
			fmt.Printf(" %11.2fx", float64(t)/float64(base))
		}
		fmt.Println()
	}
	fmt.Println("\nvalues are slowdowns when the named optimization is disabled")
	fmt.Println("(compare with Table I of the paper).")
}
