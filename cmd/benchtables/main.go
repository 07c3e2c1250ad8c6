// Command benchtables regenerates the paper's evaluation tables on a
// locally generated LUBM dataset:
//
//	benchtables -table 1 -scale 5 -reps 7   # Table I: optimization ablations
//	benchtables -table 2 -scale 5 -reps 7   # Table II: five-engine comparison
//
// Absolute times depend on the machine and scale; the comparison shape
// (who wins, by roughly what factor) is what reproduces the paper. Runs are
// not recorded in the repository; README "Benchmarks" says how to make one.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	table := flag.Int("table", 2, "which table to regenerate: 1 or 2")
	scale := flag.Int("scale", 5, "LUBM scale factor (universities)")
	seed := flag.Int64("seed", 0, "generator seed")
	reps := flag.Int("reps", 7, "timed repetitions per query (best/worst dropped)")
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Seed: *seed, Reps: *reps}
	fmt.Fprintf(os.Stderr, "generating LUBM(%d)...\n", *scale)
	start := time.Now()
	st := bench.NewDataset(cfg)
	fmt.Fprintf(os.Stderr, "loaded %d triples in %v\n", st.NumTriples(), time.Since(start).Round(time.Millisecond))

	switch *table {
	case 1:
		rows, err := bench.TableI(st, cfg)
		if err != nil {
			log.Fatalf("benchtables: %v", err)
		}
		fmt.Printf("TABLE I — relative slowdown when disabling each optimization (LUBM scale %d, %d triples)\n",
			*scale, st.NumTriples())
		fmt.Print(bench.FormatTableI(rows))
	case 2:
		rows, names, err := bench.TableII(st, cfg)
		if err != nil {
			log.Fatalf("benchtables: %v", err)
		}
		fmt.Printf("TABLE II — runtime relative to the best engine per query (LUBM scale %d, %d triples)\n",
			*scale, st.NumTriples())
		fmt.Print(bench.FormatTableII(rows, names))
	default:
		log.Fatalf("benchtables: unknown table %d (want 1 or 2)", *table)
	}
}
