package bench

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"
)

// LoadGenConfig parameterizes a load-generation run against a running query
// server (cmd/rdfserved): Clients goroutines issue Requests total queries,
// cycling through Queries, and the run records throughput and latency
// percentiles — the serving-layer analogue of the paper's Tables I/II.
type LoadGenConfig struct {
	// URL is the server base URL, e.g. "http://localhost:8080".
	URL string
	// Queries are the SPARQL texts to cycle through; at least one.
	Queries []string
	// Engine selects the server-side engine ("" = server default).
	Engine string
	// Clients is the number of concurrent clients (default 8).
	Clients int
	// Requests is the total number of requests across all clients
	// (default 100 per client).
	Requests int
	// Timeout bounds each request (default 60s). It is passed to the
	// server as ?timeout= and enforced client-side with a margin.
	Timeout time.Duration
}

// LoadGenReport is the outcome of a load-generation run.
type LoadGenReport struct {
	Clients   int
	Requests  int
	Errors    int           // non-200 responses and transport failures
	Duration  time.Duration // wall clock for the whole run
	QPS       float64       // successful requests per second
	MeanLat   time.Duration
	P50Lat    time.Duration
	P90Lat    time.Duration
	P99Lat    time.Duration
	MaxLat    time.Duration
	FirstErr  string // first error observed, for diagnosis
	BytesRead int64  // total response body bytes read across successful requests
}

// RunLoadGen fires cfg.Clients concurrent clients at the server and
// collects the report. It returns an error only for invalid configuration;
// request failures are counted in the report.
func RunLoadGen(ctx context.Context, cfg LoadGenConfig) (*LoadGenReport, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("loadgen: URL is required")
	}
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("loadgen: at least one query is required")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 100 * cfg.Clients
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}

	client := &http.Client{Timeout: cfg.Timeout + 5*time.Second}
	base := strings.TrimSuffix(cfg.URL, "/")

	type clientResult struct {
		lats     []time.Duration
		errs     int
		firstErr string
		bytes    int64
	}
	results := make([]clientResult, cfg.Clients)
	// next hands out request indices; clients pull until exhausted, so a
	// slow client does not leave queued work unissued.
	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < cfg.Requests; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			for i := range next {
				q := cfg.Queries[i%len(cfg.Queries)]
				params := url.Values{"query": {q}, "timeout": {cfg.Timeout.String()}}
				if cfg.Engine != "" {
					params.Set("engine", cfg.Engine)
				}
				reqStart := time.Now()
				resp, err := client.Get(base + "/query?" + params.Encode())
				if err != nil {
					r.errs++
					if r.firstErr == "" {
						r.firstErr = err.Error()
					}
					continue
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				// Trailers are populated only after the body is drained.
				// Responses stream: a mid-stream failure (deadline, engine
				// error) arrives as status 200 plus an X-Error trailer, so
				// the status code alone no longer identifies failed queries.
				trailerErr := resp.Trailer.Get("X-Error")
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || trailerErr != "" {
					r.errs++
					if r.firstErr == "" {
						if trailerErr != "" {
							r.firstErr = fmt.Sprintf("query %d: %s", i%len(cfg.Queries), trailerErr)
						} else {
							r.firstErr = fmt.Sprintf("query %d: HTTP %d", i%len(cfg.Queries), resp.StatusCode)
						}
					}
					continue
				}
				r.bytes += n
				r.lats = append(r.lats, time.Since(reqStart))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report := &LoadGenReport{Clients: cfg.Clients, Duration: elapsed}
	var all []time.Duration
	for _, r := range results {
		report.Errors += r.errs
		report.BytesRead += r.bytes
		if report.FirstErr == "" {
			report.FirstErr = r.firstErr
		}
		all = append(all, r.lats...)
	}
	report.Requests = len(all) + report.Errors
	if len(all) == 0 {
		return report, nil
	}
	slices.Sort(all)
	var sum time.Duration
	for _, d := range all {
		sum += d
	}
	report.MeanLat = sum / time.Duration(len(all))
	report.P50Lat = quantile(all, 0.50)
	report.P90Lat = quantile(all, 0.90)
	report.P99Lat = quantile(all, 0.99)
	report.MaxLat = all[len(all)-1]
	if elapsed > 0 {
		report.QPS = float64(len(all)) / elapsed.Seconds()
	}
	return report, nil
}

// quantile returns the p-quantile of sorted durations (nearest-rank
// method).
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// String renders the report for terminal output.
func (r *LoadGenReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d clients, %d requests (%d errors) in %v\n",
		r.Clients, r.Requests, r.Errors, r.Duration.Round(time.Millisecond))
	if r.FirstErr != "" {
		fmt.Fprintf(&b, "  first error: %s\n", r.FirstErr)
	}
	fmt.Fprintf(&b, "  throughput: %.1f q/s\n", r.QPS)
	fmt.Fprintf(&b, "  latency: mean=%v p50=%v p90=%v p99=%v max=%v\n",
		r.MeanLat.Round(time.Microsecond), r.P50Lat.Round(time.Microsecond),
		r.P90Lat.Round(time.Microsecond), r.P99Lat.Round(time.Microsecond),
		r.MaxLat.Round(time.Microsecond))
	return b.String()
}
