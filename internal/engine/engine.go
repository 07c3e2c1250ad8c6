// Package engine defines the execution contract every query engine in this
// repository implements — a streaming, context-aware, row-bounded cursor
// model — plus the materialized result representation used for cross-engine
// comparisons (the paper's Table II benchmarks five engines on identical
// queries; our integration tests additionally assert that all engines
// return identical result multisets).
//
// The contract is Open(query, ExecOpts) → Cursor: rows are produced
// incrementally and handed over in reusable row-major Blocks, cancellation
// is cooperative (every engine stops promptly
// once ExecOpts.Ctx is done), and row caps/offsets are enforced exactly at
// the cursor layer (Truncated is true iff at least one row beyond MaxRows
// exists — no "limit+1 probe" leaks into engine code). Collect adapts a
// cursor back to the old materialized Result API for tests and benchmarks.
package engine

import (
	"context"
	"io"
	"sort"
	"strings"

	"repro/internal/dict"
	"repro/internal/query"
	"repro/internal/rdf"
)

// ExecOpts parameterizes one query execution. The zero value means: no
// cancellation, no row cap, no offset, engine-default parallelism.
type ExecOpts struct {
	// Ctx, when non-nil, cancels execution cooperatively: once it is done,
	// the cursor's Next returns the context's error within a bounded number
	// of rows (engines poll it on a stride inside their innermost loops).
	Ctx context.Context
	// MaxRows, when positive, caps the rows the cursor yields. The cap is
	// exact: after MaxRows rows Next returns io.EOF, and Truncated reports
	// true iff at least one further row existed.
	MaxRows int
	// Offset skips that many rows before the first one is yielded (applied
	// before MaxRows, after DISTINCT deduplication).
	Offset int
	// Workers requests intra-query parallelism (final-enumeration
	// partitioning in the WCOJ engines). Values <= 1 mean sequential;
	// engines without a parallel path ignore it.
	Workers int
}

// Context returns opts.Ctx, defaulting to context.Background().
func (o ExecOpts) Context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Err returns the context's error, if a context is set and it is done.
func (o ExecOpts) Err() error {
	if o.Ctx != nil {
		return o.Ctx.Err()
	}
	return nil
}

// BlockCursor streams one query's dictionary-encoded result rows, a Block at
// a time: NextBlock is the one hand-off contract every layer between the
// joiner and the socket composes through (row caps, the live overlay, the
// shard merge, the response encoders), and the four methods here are all a
// layer implements. Cursors are single-consumer: no two methods may be
// called concurrently. Close is idempotent and must be called when the
// consumer is done (it stops the producing computation and frees its
// resources); closing mid-stream is the supported way to abandon a result
// early, and stops the producer within one block.
type BlockCursor interface {
	// Vars is the projection, in the query's SELECT order.
	Vars() []string
	// NextBlock replaces b's contents with the next rows of the stream. On
	// a nil return b holds between 1 and BlockRows rows, which the caller
	// owns — it may read them, rewrite them, compact them in place — until
	// it passes b to NextBlock again. That call surrenders them: the
	// cursor may hand b's buffer back to its producer, so rows (and
	// sub-slices of them) taken from b must not be used afterwards. A
	// consumer that wants to keep rows either copies them out or passes a
	// fresh zero Block each time, which gives the cursor nothing to
	// recycle. After the last row NextBlock returns io.EOF; any other error
	// (context cancellation, execution failure) terminates the stream.
	// Rows delivered before an error stand. On any error b is left empty,
	// and the same error is returned from then on.
	NextBlock(b *Block) error
	// Truncated reports whether a MaxRows cap cut the stream short. It is
	// meaningful after the stream has returned io.EOF, and the report is
	// exact: true iff at least one row beyond the cap existed.
	Truncated() bool
	// Close stops the producer and releases resources. Safe to call more
	// than once, and after the stream returned an error.
	Close() error
}

// Cursor is what an Engine's Open returns: the block contract plus Next,
// the thin per-row adapter over it (see WithNext) for tests, Collect and
// other consumers off the hot path. Use Next or NextBlock on one cursor,
// not both.
type Cursor interface {
	BlockCursor
	// Next returns the next row, or io.EOF after the last one; any other
	// error terminates the stream. The rows it returns come from blocks
	// that are never recycled, so they are the caller's to keep and stay
	// unchanged.
	Next() ([]uint32, error)
}

// Engine is a query engine bound to one dataset.
type Engine interface {
	// Name identifies the engine in benchmark output.
	Name() string
	// Open starts executing a basic graph pattern query and returns the
	// cursor over its rows. Validation and planning errors are returned
	// synchronously; execution errors surface from the cursor's Next. A
	// pre-cancelled opts.Ctx returns its error immediately.
	Open(q *query.BGP, opts ExecOpts) (Cursor, error)
}

// Execute runs q to completion on e and materializes the result — the old
// one-shot API, preserved for tests, benchmarks, and CLIs on top of the
// cursor contract.
func Execute(e Engine, q *query.BGP) (*Result, error) {
	return Collect(e.Open(q, ExecOpts{}))
}

// Collect drains a freshly opened cursor into a materialized Result and
// closes it. Its signature matches Open's return values so call sites read
// engine.Collect(e.Open(q, opts)).
func Collect(c Cursor, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	defer c.Close()
	res := &Result{Vars: c.Vars()}
	for {
		row, err := c.Next()
		if err == io.EOF {
			res.Truncated = c.Truncated()
			return res, nil
		}
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
}

// Result is a dictionary-encoded query result: one row per solution, in the
// query's SELECT order. Rows are multisets (SPARQL semantics without
// DISTINCT).
type Result struct {
	Vars []string
	Rows [][]uint32
	// Truncated marks a result cut off by a row limit (serving-layer
	// protection); Rows holds the first rows found, not all of them.
	Truncated bool
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.Rows) }

// Decode maps every row back to RDF terms.
func (r *Result) Decode(d *dict.Dictionary) [][]rdf.Term {
	out := make([][]rdf.Term, len(r.Rows))
	for i, row := range r.Rows {
		terms := make([]rdf.Term, len(row))
		for j, id := range row {
			terms[j] = d.Decode(id)
		}
		out[i] = terms
	}
	return out
}

// Canonical returns a canonical string for the result multiset: rows
// rendered and sorted. Two results are equivalent iff their canonical forms
// are equal. Intended for tests; cost is O(n log n) in the row count.
func (r *Result) Canonical() string {
	lines := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		var b strings.Builder
		for j, v := range row {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(uitoa(v))
		}
		lines[i] = b.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func uitoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var buf [10]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
