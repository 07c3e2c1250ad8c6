// Package repro is a from-scratch Go reproduction of "Old Techniques for
// New Join Algorithms: A Case Study in RDF Processing" (Aberger, Tu,
// Olukotun, Ré — ICDE 2016).
//
// It provides:
//
//   - an EmptyHeaded-style worst-case optimal join engine over RDF data
//     (tries + generic join + GHD plans) with the paper's three classic
//     optimizations individually toggleable (NewEmptyHeaded);
//   - the paper's four comparison engines, modelled per §IV-A2:
//     LogicBlox-like (un-optimized WCOJ), MonetDB-like (pairwise column
//     store), RDF-3X-like and TripleBit-like (specialized RDF engines);
//     EmptyHeaded and the LogicBlox model are one engine type that differ
//     only in how they compile a query, and "auto" is the fully optimized
//     EmptyHeaded engine;
//   - a deterministic LUBM data generator and the benchmark's queries;
//   - N-Triples loading and a SPARQL basic-graph-pattern front end.
//
// Quick start:
//
//	ds := repro.GenerateLUBM(1, 0)
//	eh := repro.NewEmptyHeaded(ds, repro.AllOptimizations)
//	rows, err := repro.Query(eh, ds, repro.LUBMQuery(2, 1))
package repro

import (
	"io"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/engine/monetdb"
	"repro/internal/engine/naive"
	"repro/internal/engine/rdf3x"
	"repro/internal/engine/triplebit"
	"repro/internal/engines"
	"repro/internal/live"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Engine is the common query engine interface: Name plus Open, which
// streams a parsed basic graph pattern's rows through a Cursor.
type Engine = engine.Engine

// Cursor streams a query's dictionary-encoded rows incrementally; see
// engine.Cursor for the contract (NextBlock — or the per-row Next — until
// io.EOF, exact Truncated, Close to abandon early).
type Cursor = engine.Cursor

// Block is the reusable row-major batch a Cursor's NextBlock fills.
type Block = engine.Block

// ExecOpts bundles per-execution knobs: context cancellation, exact row
// caps, offsets, and intra-query parallelism.
type ExecOpts = engine.ExecOpts

// Result is a dictionary-encoded result set.
type Result = engine.Result

// Execute runs q to completion on e and materializes the result — the
// convenience form of Open + Collect.
func Execute(e Engine, q *BGP) (*Result, error) { return engine.Execute(e, q) }

// Collect drains a cursor (as returned by Engine.Open) into a Result.
func Collect(c Cursor, err error) (*Result, error) { return engine.Collect(c, err) }

// BGP is a parsed basic graph pattern query.
type BGP = query.BGP

// Triple is one RDF statement.
type Triple = rdf.Triple

// Options toggles the EmptyHeaded engine's classic optimizations
// (Table I of the paper): the set layout optimizer and selection pushdown
// within and across GHD nodes.
type Options = plan.Options

// AllOptimizations enables every optimization — the configuration
// benchmarked as "EmptyHeaded" in Table II.
var AllOptimizations = plan.AllOptimizations

// NoOptimizations disables all of them — the bare worst-case optimal
// engine.
var NoOptimizations = plan.NoOptimizations

// Dataset is a dictionary-encoded RDF dataset shared by any number of
// engines: an immutable, fully-indexed base plus a mutable delta overlay
// (internal/live), so it accepts inserts and deletes while existing engines
// keep serving. It is optionally partitioned into subject-hash shards
// (Partition / OpenDataset's WithShards), in which case NewEngineByName
// returns scatter-gather engines over the shard set. Opened with
// WithDataDir it is durable: updates flow through a write-ahead log and
// compactions persist mmap-able segment files (internal/durable); call
// Close on shutdown to seal the log.
type Dataset struct {
	ls  *live.Store
	dur *durable.Store // nil unless opened with WithDataDir
}

func newDataset(st *store.Store) *Dataset {
	ls, err := live.NewStore(st, live.Options{})
	if err != nil {
		// live.NewStore only fails on invalid shard counts; Options{} cannot.
		panic(err)
	}
	return &Dataset{ls: ls}
}

// Partition splits the dataset into n subject-hash shards (triples are
// additionally replicated to their object's shard — see internal/shard for
// the routing rule and its cost). Afterwards NewEngineByName builds
// scatter-gather engines over the shard set; results are indistinguishable
// from unsharded execution. n <= 1 reverts to unsharded engines. Future
// compactions keep the partitioning.
func (d *Dataset) Partition(n int) error {
	if n <= 1 {
		n = 0
	}
	return d.ls.SetShards(n)
}

// Shards returns the shard count (1 when unpartitioned).
func (d *Dataset) Shards() int { return d.ls.Shards() }

// LoadTriples builds a dataset from parsed triples.
func LoadTriples(ts []Triple) *Dataset {
	return newDataset(store.FromTriples(ts))
}

// LoadNTriples parses N-Triples from r and builds a dataset.
func LoadNTriples(r io.Reader) (*Dataset, error) {
	st, err := loadNTriples(r)
	if err != nil {
		return nil, err
	}
	return newDataset(st), nil
}

// GenerateLUBM generates the LUBM benchmark dataset at the given scale
// (number of universities; the paper used 1000 ≈ 133M triples) and loads
// it.
func GenerateLUBM(universities int, seed int64) *Dataset {
	b := store.NewBuilder()
	lubm.GenerateTo(lubm.Config{Universities: universities, Seed: seed}, b.Add)
	return newDataset(b.Build())
}

// NumTriples returns the number of distinct triples visible to queries
// (pending inserts and deletes included).
func (d *Dataset) NumTriples() int { return d.ls.NumTriples() }

// NumTerms returns the dictionary size (distinct RDF terms).
func (d *Dataset) NumTerms() int { return d.ls.Dict().Size() }

// Store exposes the current epoch's immutable base store for advanced
// integrations and the benchmark harness. Pending (uncompacted) updates are
// not reflected in it; Compact folds them in.
func (d *Dataset) Store() *store.Store { return d.ls.Base() }

// Live exposes the underlying live store (epoch, delta and compaction
// introspection beyond the convenience methods below).
func (d *Dataset) Live() *live.Store { return d.ls }

// Durable exposes the durability stack behind a dataset opened with
// WithDataDir — WAL and segment introspection (internal/durable.Stats) and
// the data directory path. Nil for in-memory datasets.
func (d *Dataset) Durable() *durable.Store { return d.dur }

// Close releases the dataset's durable resources: it seals the write-ahead
// log (the clean-shutdown marker boot recovery looks for) and unmaps the
// segment files. A no-op for in-memory datasets; the dataset must not be
// used afterwards if it was durable.
func (d *Dataset) Close() error {
	if d.dur == nil {
		return nil
	}
	return d.dur.Close()
}

// Insert adds triples to the dataset while existing engines keep serving;
// it returns how many were actually absent before. Engines created with
// NewEngineByName observe the change on their next query; the direct
// constructors (NewEmptyHeaded, ...) bind to the base snapshot they were
// built over.
func (d *Dataset) Insert(ts []Triple) (int, error) { return d.ls.Insert(ts) }

// Delete removes triples (tombstoning them over the immutable base),
// returning how many were actually present before.
func (d *Dataset) Delete(ts []Triple) (int, error) { return d.ls.Delete(ts) }

// ApplyPatch applies the N-Triples patch format read from r: one statement
// per line, '+' prefix (or none) inserts, '-' deletes.
func (d *Dataset) ApplyPatch(r io.Reader) (live.ApplyResult, error) {
	p, err := live.ParsePatch(r)
	if err != nil {
		return live.ApplyResult{}, err
	}
	return d.ls.Apply(p)
}

// Compact drains pending updates into a freshly indexed base store swapped
// in atomically under a new epoch; queries running concurrently are
// unaffected.
func (d *Dataset) Compact() error {
	_, err := d.ls.Compact()
	return err
}

// Epoch returns the dataset's compaction epoch (increments per base swap).
func (d *Dataset) Epoch() uint64 { return d.ls.Epoch() }

// NewEmptyHeaded returns the paper's primary engine with the given
// optimization configuration, bound to the dataset's current base snapshot
// (later updates are invisible to it; use NewEngineByName for a live
// engine).
func NewEmptyHeaded(d *Dataset, opts Options) Engine {
	return engines.NewEmptyHeaded(d.ls.Base(), opts)
}

// NewLogicBlox returns the LogicBlox-like baseline: worst-case optimal
// joins without EmptyHeaded's layout/plan optimizations.
func NewLogicBlox(d *Dataset) Engine { return engines.NewLogicBlox(d.ls.Base()) }

// NewMonetDB returns the MonetDB-like baseline: a pairwise column-store
// engine over vertically partitioned tables.
func NewMonetDB(d *Dataset) Engine { return monetdb.New(d.ls.Base()) }

// NewRDF3X returns the RDF-3X-like baseline: six clustered permutation
// indexes with selectivity-driven pairwise joins.
func NewRDF3X(d *Dataset) Engine { return rdf3x.New(d.ls.Base()) }

// NewTripleBit returns the TripleBit-like baseline: per-predicate matrix
// storage with selectivity-driven pairwise joins.
func NewTripleBit(d *Dataset) Engine { return triplebit.New(d.ls.Base()) }

// NewNaive returns the reference engine used as the correctness oracle in
// the test suite. It is slow; use it for validation only.
func NewNaive(d *Dataset) Engine { return naive.New(d.ls.Base()) }

// NewEngineByName builds the named engine (one of EngineNames) over d. It
// is the programmatic form of cmd/rdfq's and the query server's -engine
// selection. The engine is live: it observes Insert/Delete/Compact, and on
// a partitioned dataset it executes by scatter-gather over per-shard
// instances (rebuilt per compaction epoch).
func NewEngineByName(d *Dataset, name string) (Engine, error) {
	return engines.NewLive(name, d.ls)
}

// EngineNames lists the names NewEngineByName accepts.
func EngineNames() []string { return engines.Names() }

// Engines returns one instance of every benchmarked engine (the five rows
// of Table II), in the paper's column order.
func Engines(d *Dataset) []Engine { return engines.TableII(d.ls.Base()) }

// Parse parses a SPARQL basic-graph-pattern query (PREFIX + SELECT +
// WHERE).
func Parse(sparql string) (*BGP, error) { return query.ParseSPARQL(sparql) }

// MustParse is Parse that panics on error.
func MustParse(sparql string) *BGP { return query.MustParseSPARQL(sparql) }

// LUBMQuery returns the SPARQL text of LUBM query n (one of
// LUBMQueryNumbers), adapted to a dataset with the given number of
// universities.
func LUBMQuery(n, universities int) string { return lubm.Query(n, universities) }

// LUBMQueryNumbers lists the benchmark queries the paper evaluates.
var LUBMQueryNumbers = lubm.QueryNumbers

// Rows is a decoded result: terms instead of dictionary ids.
type Rows struct {
	// Vars is the projection, in SELECT order.
	Vars []string
	// Records holds one term slice per solution.
	Records [][]rdf.Term
}

// Query parses, executes, and decodes a SPARQL query on the given engine.
// The dataset must be the one the engine was built over (it supplies the
// dictionary for decoding). LIMIT/OFFSET clauses in the query text are
// honoured: they map onto the cursor-level ExecOpts caps.
func Query(e Engine, d *Dataset, sparql string) (*Rows, error) {
	q, err := Parse(sparql)
	if err != nil {
		return nil, err
	}
	opts := ExecOpts{Offset: q.Offset}
	if q.HasLimit {
		if q.Limit == 0 {
			return &Rows{Vars: q.Select}, nil
		}
		opts.MaxRows = q.Limit
	}
	res, err := Collect(e.Open(q, opts))
	if err != nil {
		return nil, err
	}
	return &Rows{Vars: res.Vars, Records: res.Decode(d.ls.Dict())}, nil
}
