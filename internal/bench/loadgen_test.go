package bench

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/lubm"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// TestLoadGenLUBM drives the acceptance criterion "a loadgen run against
// LUBM scale 1 reports ≥ 8 concurrent clients' throughput/latency without
// errors": it spins up the real handler over a generated scale-1 dataset
// and fires 8 concurrent clients at it. Afterwards it scrapes the
// observability surfaces the way the CI smoke does: /metrics must be valid
// Prometheus exposition reflecting the run, and the /debug/queries trace
// ring must have captured it.
func TestLoadGenLUBM(t *testing.T) {
	b := store.NewBuilder()
	lubm.GenerateTo(lubm.Config{Universities: 1, Seed: 0}, b.Add)
	srv, err := server.New(server.Config{Store: b.Build()})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	report, err := RunLoadGen(context.Background(), LoadGenConfig{
		URL:      ts.URL,
		Queries:  []string{lubm.Query(1, 1), lubm.Query(2, 1), lubm.Query(8, 1), lubm.Query(14, 1)},
		Clients:  8,
		Requests: 64,
		Timeout:  30 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunLoadGen: %v", err)
	}
	t.Logf("\n%s", report)
	if report.Errors != 0 {
		t.Fatalf("loadgen saw %d errors (first: %s)", report.Errors, report.FirstErr)
	}
	if report.Requests != 64 {
		t.Fatalf("requests = %d, want 64", report.Requests)
	}
	if report.QPS <= 0 || report.MeanLat <= 0 || report.P99Lat < report.P50Lat {
		t.Fatalf("implausible report: %+v", report)
	}
	if st := srv.Stats(); st.Queries != 64 || st.PlanCache.Hits == 0 {
		t.Fatalf("server stats after loadgen: %+v", st)
	}

	// Post-run observability scrape: malformed exposition or an empty trace
	// ring fails the build here, not a dashboard later.
	metrics := getBody(t, ts.URL+"/metrics")
	if err := obs.CheckExposition(strings.NewReader(metrics)); err != nil {
		t.Fatalf("/metrics exposition invalid after loadgen: %v", err)
	}
	for _, want := range []string{"rdf_build_info{", "rdf_queries_total 64", "rdf_query_latency_seconds_count 64"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q after loadgen", want)
		}
	}
	var ring struct {
		Count  int                  `json:"count"`
		Traces []*obs.TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/debug/queries")), &ring); err != nil {
		t.Fatalf("/debug/queries JSON: %v", err)
	}
	if ring.Count == 0 {
		t.Fatal("trace ring empty after 64 traced queries")
	}
	if ring.Traces[0].Root.Find("execute") == nil {
		t.Fatal("newest ring trace has no execute span")
	}
}

// getBody GETs a URL and returns the body, failing the test on transport or
// non-200 status.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestQuantile pins loadgen's nearest-rank percentile: the sample at rank
// p·n rounded half up, clamped to [1, n], so p99 of 100 samples is the
// 99th, not the max.
func TestQuantile(t *testing.T) {
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = time.Duration(i+1) * time.Millisecond
	}
	one := []time.Duration{7 * time.Millisecond}
	for _, tc := range []struct {
		name   string
		sorted []time.Duration
		p      float64
		want   time.Duration
	}{
		{"empty", nil, 0.5, 0},
		{"one/p0", one, 0, 7 * time.Millisecond},
		{"one/p50", one, 0.5, 7 * time.Millisecond},
		{"one/p99", one, 0.99, 7 * time.Millisecond},
		{"one/p100", one, 1, 7 * time.Millisecond},
		{"hundred/p0", hundred, 0, 1 * time.Millisecond},
		{"hundred/p12.5", hundred, 0.125, 13 * time.Millisecond}, // rank 12.5 rounds up
		{"hundred/p50", hundred, 0.5, 50 * time.Millisecond},
		{"hundred/p99", hundred, 0.99, 99 * time.Millisecond},
		{"hundred/p100", hundred, 1, 100 * time.Millisecond},
	} {
		if got := quantile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: quantile(p=%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
}

func TestLoadGenConfigValidation(t *testing.T) {
	if _, err := RunLoadGen(context.Background(), LoadGenConfig{}); err == nil {
		t.Fatal("want error for missing URL")
	}
	if _, err := RunLoadGen(context.Background(), LoadGenConfig{URL: "http://x"}); err == nil {
		t.Fatal("want error for missing queries")
	}
}
