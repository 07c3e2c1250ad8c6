package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistObserveAndQuantile(t *testing.T) {
	h := NewHist([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 7, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if want := 0.5 + 1.5 + 1.5 + 3 + 3 + 3 + 7 + 100; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	wantCounts := []uint64{1, 2, 3, 1, 1} // <=1, <=2, <=4, <=8, +Inf
	for i, c := range wantCounts {
		if s.Counts[i] != c {
			t.Fatalf("bucket %d = %d, want %d", i, s.Counts[i], c)
		}
	}
	// p50: rank 4 lands in the <=4 bucket (cum 3 before, 3 in-bucket).
	q := s.Quantile(0.5)
	if q < 2 || q > 4 {
		t.Fatalf("p50 = %v, want within (2,4]", q)
	}
	// Quantile must be monotone in p.
	if s.Quantile(0.99) < s.Quantile(0.5) {
		t.Fatalf("p99 %v < p50 %v", s.Quantile(0.99), s.Quantile(0.5))
	}
	// +Inf bucket clamps to the largest finite bound.
	if got := s.Quantile(1); got != 8 {
		t.Fatalf("p100 = %v, want clamp to 8", got)
	}
	if got := (HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestHistConcurrent(t *testing.T) {
	h := NewHist(LatencyBuckets())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
	if s.Sum < 7.99 || s.Sum > 8.01 {
		t.Fatalf("sum = %v, want ~8.0", s.Sum)
	}
}

func TestPromWriterFormat(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter("rdf_queries_total", "Total queries.", 42)
	p.Gauge("rdf_build_info", "Build info.", 1, "version", "(devel)", "revision", "abc")
	h := NewHist([]float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)
	p.Histogram("rdf_query_latency_seconds", "Latency.", h.Snapshot(), "engine", "auto")
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP rdf_queries_total Total queries.",
		"# TYPE rdf_queries_total counter",
		"rdf_queries_total 42",
		`rdf_build_info{version="(devel)",revision="abc"} 1`,
		"# TYPE rdf_query_latency_seconds histogram",
		`rdf_query_latency_seconds_bucket{engine="auto",le="0.001"} 1`,
		`rdf_query_latency_seconds_bucket{engine="auto",le="0.01"} 2`,
		`rdf_query_latency_seconds_bucket{engine="auto",le="+Inf"} 3`,
		`rdf_query_latency_seconds_count{engine="auto"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if err := CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("self-written exposition fails validation: %v", err)
	}
}

func TestPromWriterDuplicateFamily(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter("rdf_x_total", "x", 1)
	p.Gauge("rdf_x_total", "x", 2) // same family, different type
	if p.Err() == nil {
		t.Fatal("want error on family re-declared with a different type")
	}
	// Same family, same type (e.g. labelled counters) is fine.
	var sb2 strings.Builder
	p2 := NewPromWriter(&sb2)
	p2.Counter("rdf_y_total", "y", 1, "engine", "a")
	p2.Counter("rdf_y_total", "y", 2, "engine", "b")
	if err := p2.Err(); err != nil {
		t.Fatal(err)
	}
	if strings.Count(sb2.String(), "# TYPE rdf_y_total") != 1 {
		t.Fatalf("TYPE header repeated:\n%s", sb2.String())
	}
}

func TestCheckExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no type header": "rdf_a 1\n",
		"duplicate type": "# TYPE rdf_a counter\nrdf_a 1\n# TYPE rdf_a counter\nrdf_a 2\n",
		"bad value":      "# TYPE rdf_a counter\nrdf_a nope\n",
		"bad name":       "# TYPE 0bad counter\n0bad 1\n",
	}
	for name, in := range cases {
		if err := CheckExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: malformed exposition accepted:\n%s", name, in)
		}
	}
}

func TestSpanTree(t *testing.T) {
	tr := NewTrace("q1")
	root := tr.Root()
	parse := root.Child("parse")
	parse.End()
	exec := root.Child("execute")
	sh := exec.Child("shard_drain")
	sh.SetAttr("shard", 2)
	sh.AddBatch(64)
	sh.AddBatch(3)
	sh.End()
	exec.AddRows(67)
	exec.End()
	snap := tr.Snapshot()
	if snap.QueryID != "q1" || snap.Root.Name != "query" {
		t.Fatalf("snapshot header wrong: %+v", snap)
	}
	if len(snap.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(snap.Root.Children))
	}
	drain := snap.Root.Find("shard_drain")
	if drain == nil {
		t.Fatal("shard_drain span missing")
	}
	if drain.Rows != 67 || drain.Batches != 2 {
		t.Fatalf("drain rows/batches = %d/%d, want 67/2", drain.Rows, drain.Batches)
	}
	if drain.Attrs["shard"] != 2 {
		t.Fatalf("drain attrs = %v", drain.Attrs)
	}
	if drain.FirstRowUs <= 0 {
		t.Fatalf("first_row_us = %v, want > 0", drain.FirstRowUs)
	}
	// Children must nest: the drain span starts no earlier than execute.
	ex := snap.Root.Find("execute")
	if drain.StartUs < ex.StartUs {
		t.Fatalf("drain starts (%v) before its parent execute (%v)", drain.StartUs, ex.StartUs)
	}
}

func TestNilSpanIsNoop(t *testing.T) {
	var sp *Span
	sp.End()
	sp.SetAttr("k", 1)
	sp.AddRows(5)
	sp.AddBatch(3)
	if sp.Child("x") != nil {
		t.Fatal("nil span Child must return nil")
	}
	if sp.Rows() != 0 {
		t.Fatal("nil span Rows must be 0")
	}
	var tr *Trace
	if tr.Root() != nil || tr.Snapshot() != nil {
		t.Fatal("nil trace accessors must return nil")
	}
	ctx := WithSpan(context.Background(), nil)
	if SpanFrom(ctx) != nil {
		t.Fatal("WithSpan(nil) must not store a span")
	}
	if SpanFrom(nil) != nil {
		t.Fatal("SpanFrom(nil ctx) must be nil")
	}
}

func TestSpanContextPropagation(t *testing.T) {
	tr := NewTrace("q2")
	ctx := WithSpan(context.Background(), tr.Root())
	got := SpanFrom(ctx)
	if got != tr.Root() {
		t.Fatal("SpanFrom did not return the stored span")
	}
	child := got.Child("inner")
	child.End()
	if tr.Snapshot().Root.Find("inner") == nil {
		t.Fatal("child attached via context missing from snapshot")
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	if r.Len() != 0 {
		t.Fatal("new ring not empty")
	}
	for i := 1; i <= 5; i++ {
		tr := NewTrace("q" + string(rune('0'+i)))
		r.Add(tr.Snapshot())
	}
	got := r.Snapshot()
	if len(got) != 3 || r.Len() != 3 {
		t.Fatalf("ring len = %d, want 3", len(got))
	}
	// Newest first: q5, q4, q3.
	for i, want := range []string{"q5", "q4", "q3"} {
		if got[i].QueryID != want {
			t.Fatalf("ring[%d] = %s, want %s", i, got[i].QueryID, want)
		}
	}
	r.Add(nil) // must not panic or store
	if r.Len() != 3 {
		t.Fatal("nil Add changed ring")
	}
}

func TestNextQueryID(t *testing.T) {
	a, b := NextQueryID(), NextQueryID()
	if a == b || !strings.HasPrefix(a, "q") {
		t.Fatalf("query IDs not unique/prefixed: %s %s", a, b)
	}
}

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.GoVersion == "" || b.Version == "" || b.Revision == "" {
		t.Fatalf("incomplete build info: %+v", b)
	}
	if !strings.Contains(b.String(), b.GoVersion) {
		t.Fatalf("String() missing go version: %s", b.String())
	}
}

func TestQuantileDuration(t *testing.T) {
	h := NewHist(LatencyBuckets())
	for i := 0; i < 100; i++ {
		h.ObserveDuration(5 * time.Millisecond)
	}
	d := h.Snapshot().QuantileDuration(0.5)
	if d < time.Millisecond || d > 20*time.Millisecond {
		t.Fatalf("p50 duration = %v, want around 5ms", d)
	}
}
