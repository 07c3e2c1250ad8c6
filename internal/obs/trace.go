package obs

import (
	"context"
	"sync"
	"time"
)

// Trace is one query's span tree, from parse to last encoded byte. The
// server creates it per traced request; lower layers (the live overlay, the
// shard scatter planner, the per-shard drains) attach
// children and attributes through the context. A nil *Trace / *Span is the
// "not traced" state: every method no-ops on a nil receiver, so untraced
// queries pay one pointer check per instrumentation site and zero
// allocations.
type Trace struct {
	QueryID string
	Query   string // raw query text (truncated by the caller if huge)
	Engine  string
	Start   time.Time
	root    *Span
}

// NewTrace starts a trace rooted at a span named "query".
func NewTrace(queryID string) *Trace {
	now := time.Now()
	return &Trace{QueryID: queryID, Start: now, root: &Span{name: "query", start: now}}
}

// Root returns the trace's root span (nil-safe).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Span is one timed stage of a query: a name, wall-clock bounds, row/batch
// counters, time-to-first-row, free-form attributes, and children. All
// methods are nil-safe and safe for concurrent use (shard drains append
// children and rows from their own goroutines).
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time
	rows     int64
	batches  int64
	firstRow time.Duration // from span start; 0 = no row yet
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string
	Val any
}

// Child starts a new child span now. Returns nil on a nil receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stamps the span's end time (first call wins; later calls no-op, so a
// deferred End after an explicit one is harmless).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr records (or overwrites) one attribute.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = val
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.mu.Unlock()
}

// AddRows adds n to the span's row counter, stamping time-to-first-row on
// the first positive add.
func (s *Span) AddRows(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.mu.Lock()
	if s.rows == 0 && s.firstRow == 0 {
		s.firstRow = time.Since(s.start)
	}
	s.rows += n
	s.mu.Unlock()
}

// AddBatch records one delivered batch of n rows.
func (s *Span) AddBatch(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.rows == 0 && s.firstRow == 0 && n > 0 {
		s.firstRow = time.Since(s.start)
	}
	s.batches++
	s.rows += int64(n)
	s.mu.Unlock()
}

// Rows returns the span's row counter.
func (s *Span) Rows() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// spanKey is the context key carrying the current parent span.
type spanKey struct{}

// WithSpan returns ctx carrying sp as the current span for lower layers to
// attach children to. A nil sp returns ctx unchanged (no key lookup cost is
// added to the untraced path's children).
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFrom returns the current span in ctx, or nil when the query is not
// being traced (including a nil ctx).
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// SpanSnapshot is the serializable form of one span, durations in
// microseconds (query stages live in the µs–ms range; ms would round the
// interesting ones to zero).
type SpanSnapshot struct {
	Name string `json:"name"`
	// StartUs is the span's start offset from the trace start.
	StartUs    float64        `json:"start_us"`
	DurationUs float64        `json:"duration_us"`
	Rows       int64          `json:"rows,omitempty"`
	Batches    int64          `json:"batches,omitempty"`
	FirstRowUs float64        `json:"first_row_us,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanSnapshot `json:"children,omitempty"`
}

// TraceSnapshot is the serializable form of a whole trace — what ?explain=1
// returns and /debug/queries serves.
type TraceSnapshot struct {
	QueryID string       `json:"query_id"`
	Query   string       `json:"query,omitempty"`
	Engine  string       `json:"engine,omitempty"`
	Start   time.Time    `json:"start"`
	Root    SpanSnapshot `json:"trace"`
}

// Snapshot ends the root span (if still open) and copies the tree. Returns
// nil on a nil trace.
func (t *Trace) Snapshot() *TraceSnapshot {
	if t == nil {
		return nil
	}
	t.root.End()
	return &TraceSnapshot{
		QueryID: t.QueryID,
		Query:   t.Query,
		Engine:  t.Engine,
		Start:   t.Start,
		Root:    t.root.snapshot(t.Start),
	}
}

func (s *Span) snapshot(traceStart time.Time) SpanSnapshot {
	s.mu.Lock()
	end := s.end
	if end.IsZero() {
		end = time.Now()
	}
	out := SpanSnapshot{
		Name:       s.name,
		StartUs:    us(s.start.Sub(traceStart)),
		DurationUs: us(end.Sub(s.start)),
		Rows:       s.rows,
		Batches:    s.batches,
		FirstRowUs: us(s.firstRow),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Val
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.snapshot(traceStart))
	}
	return out
}

// Find returns the first span named name in a depth-first walk of the
// snapshot tree, or nil — the test-side accessor for span-tree assertions.
func (s *SpanSnapshot) Find(name string) *SpanSnapshot {
	if s.Name == name {
		return s
	}
	for i := range s.Children {
		if found := s.Children[i].Find(name); found != nil {
			return found
		}
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
