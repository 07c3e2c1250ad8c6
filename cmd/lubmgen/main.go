// Command lubmgen generates LUBM benchmark data as N-Triples, standing in
// for the Java UBA 1.7 generator used by the paper.
//
// Usage:
//
//	lubmgen -scale 5 -seed 0 -o lubm5.nt
//
// For a fast-booting binary copy, seed a data directory from the file once
// (rdfserved -data lubm5.nt -data-dir DIR); later boots mmap its segment.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/lubm"
	"repro/internal/rdf"
)

func main() {
	scale := flag.Int("scale", 1, "number of universities (the paper used 1000)")
	seed := flag.Int64("seed", 0, "generator seed")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("lubmgen: %v", err)
		}
		w = f
	}

	count := 0
	nw := rdf.NewWriter(w)
	lubm.GenerateTo(lubm.Config{Universities: *scale, Seed: *seed}, func(t rdf.Triple) {
		if err := nw.Write(t); err != nil {
			log.Fatalf("lubmgen: write: %v", err)
		}
		count++
	})
	if err := nw.Flush(); err != nil {
		log.Fatalf("lubmgen: flush: %v", err)
	}
	if err := w.Close(); err != nil {
		log.Fatalf("lubmgen: close: %v", err)
	}
	fmt.Fprintf(os.Stderr, "lubmgen: wrote %d triples (scale %d, seed %d)\n", count, *scale, *seed)
}
