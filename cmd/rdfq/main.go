// Command rdfq runs a SPARQL basic-graph-pattern query against an
// N-Triples file or a generated LUBM dataset using any of the engines:
//
//	rdfq -data graph.nt -engine emptyheaded -query 'SELECT ?x WHERE { ... }'
//	rdfq -lubm 1 -engine rdf3x -lubm-query 2
//	rdfq -data graph.nt -update patch.nt -query '...'   # query the patched overlay
//	rdfq -data graph.nt -update patch.nt -compact ...   # ...compacted into a fresh base
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"repro"
	"repro/internal/obs"
)

func main() {
	data := flag.String("data", "", "N-Triples input file")
	lubmScale := flag.Int("lubm", 0, "generate a LUBM dataset at this scale instead of loading a file")
	engineName := flag.String("engine", "emptyheaded", "engine: "+strings.Join(repro.EngineNames(), " | "))
	queryText := flag.String("query", "", "SPARQL query text")
	lubmQuery := flag.Int("lubm-query", 0, "run this LUBM benchmark query instead of -query")
	limit := flag.Int("limit", 20, "max rows to print (0 = all; a LIMIT clause in the query tightens this)")
	offset := flag.Int("offset", 0, "skip this many result rows (adds to an OFFSET clause in the query)")
	workers := flag.Int("workers", 0, "intra-query parallelism for the enumeration (0 = engine default)")
	timeout := flag.Duration("timeout", 0, "abort the query after this long (0 = no limit)")
	shards := flag.Int("shards", 0, "partition the dataset into N subject-hash shards and run by scatter-gather (0/1 = unsharded)")
	update := flag.String("update", "", "apply this N-Triples patch file before querying ('+'/no prefix inserts, '-' deletes)")
	compact := flag.Bool("compact", false, "compact applied updates into a fresh base before querying")
	explain := flag.Bool("explain", false, "print the query's execution trace (span tree, JSON) to stderr after the rows")
	printQuery := flag.Bool("print-query", false, "print the -lubm-query text (adapted to -lubm scale, default 1) and exit without loading data")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()

	if *version {
		fmt.Printf("rdfq %s\n", obs.Build())
		return
	}

	if *printQuery {
		if !slices.Contains(repro.LUBMQueryNumbers, *lubmQuery) {
			log.Fatalf("rdfq: no LUBM query %d (valid numbers: %v)", *lubmQuery, repro.LUBMQueryNumbers)
		}
		scale := *lubmScale
		if scale == 0 {
			scale = 1
		}
		fmt.Println(repro.LUBMQuery(*lubmQuery, scale))
		return
	}

	var ds *repro.Dataset
	var err error
	switch {
	case *lubmScale > 0:
		ds = repro.GenerateLUBM(*lubmScale, 0)
	case *data != "":
		ds, err = repro.OpenDataset(*data)
		if err != nil {
			log.Fatalf("rdfq: %v", err)
		}
	default:
		log.Fatal("rdfq: provide -data FILE or -lubm SCALE")
	}
	fmt.Fprintf(os.Stderr, "loaded %d triples\n", ds.NumTriples())
	if *shards > 1 {
		if err := ds.Partition(*shards); err != nil {
			log.Fatalf("rdfq: %v", err)
		}
		fmt.Fprintf(os.Stderr, "partitioned into %d subject-hash shards\n", *shards)
	}
	if *update != "" {
		f, err := os.Open(*update)
		if err != nil {
			log.Fatalf("rdfq: %v", err)
		}
		res, err := ds.ApplyPatch(f)
		f.Close()
		if err != nil {
			log.Fatalf("rdfq: %v", err)
		}
		fmt.Fprintf(os.Stderr, "applied %s: +%d -%d (%d no-ops), %d triples visible\n",
			*update, res.Inserted, res.Deleted, res.Noops, ds.NumTriples())
	}
	if *compact {
		if err := ds.Compact(); err != nil {
			log.Fatalf("rdfq: %v", err)
		}
		fmt.Fprintf(os.Stderr, "compacted to epoch %d\n", ds.Epoch())
	}

	eng, err := repro.NewEngineByName(ds, *engineName)
	if err != nil {
		log.Fatalf("rdfq: %v", err)
	}

	text := *queryText
	if *lubmQuery > 0 {
		if !slices.Contains(repro.LUBMQueryNumbers, *lubmQuery) {
			log.Fatalf("rdfq: no LUBM query %d (valid numbers: %v)", *lubmQuery, repro.LUBMQueryNumbers)
		}
		scale := *lubmScale
		if scale == 0 {
			scale = 1
		}
		text = repro.LUBMQuery(*lubmQuery, scale)
	}
	if text == "" {
		log.Fatal("rdfq: provide -query or -lubm-query")
	}

	q, err := repro.Parse(text)
	if err != nil {
		log.Fatalf("rdfq: %v", err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// A LIMIT clause in the query tightens the -limit cap (never widens
	// it), and an OFFSET clause adds to -offset — both land on the same
	// exact cursor-level knobs. LIMIT 0 is a valid query: zero rows.
	effLimit := *limit
	if q.HasLimit {
		if q.Limit == 0 {
			fmt.Println("0 rows (query says LIMIT 0)")
			return
		}
		if effLimit == 0 || q.Limit < effLimit {
			effLimit = q.Limit
		}
	}
	// With -explain, an execute span rides the context: the engines attach
	// their decisions (scatter plan, per-shard drains) as the
	// query runs, and the tree prints once the cursor is drained.
	var tr *obs.Trace
	var execSp *obs.Span
	if *explain {
		tr = obs.NewTrace(obs.NextQueryID())
		tr.Query, tr.Engine = text, *engineName
		execSp = tr.Root().Child("execute")
		ctx = obs.WithSpan(ctx, execSp)
	}
	// Consume the engine's cursor directly: rows print as the join
	// enumerates them (no result materialization), and the row cap
	// is the cursor's exact MaxRows — hitting it stops the remaining
	// enumeration instead of computing rows nobody will see.
	cur, err := eng.Open(q, repro.ExecOpts{Ctx: ctx, MaxRows: effLimit, Offset: *offset + q.Offset, Workers: *workers})
	if err != nil {
		log.Fatalf("rdfq: %v", err)
	}
	defer cur.Close()
	dict := ds.Store().Dict()
	total := 0
	for {
		row, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatalf("rdfq: %v (after %d rows)", err, total)
		}
		total++
		execSp.AddRows(1)
		for j, id := range row {
			if j > 0 {
				fmt.Print("\t")
			}
			fmt.Print(dict.Decode(id))
		}
		fmt.Println()
	}
	if cur.Truncated() {
		fmt.Printf("%d rows (truncated by the row cap; more exist)\n", total)
	} else {
		fmt.Printf("%d rows\n", total)
	}
	if tr != nil {
		execSp.End()
		if b, err := json.MarshalIndent(tr.Snapshot(), "", "  "); err == nil {
			fmt.Fprintf(os.Stderr, "%s\n", b)
		}
	}
}
