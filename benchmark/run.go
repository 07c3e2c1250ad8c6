package main

// run.go is one run of one workload: generate the inputs, boot the real
// server, check it against the oracle, drive the measured window and turn
// the samples into the end-to-end metrics.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// setupBoots is how many times a run boots the server; setup_s is the
// median, and the last boot serves the run.
const setupBoots = 3

// jsonLenSlack is how far a JSON body may differ in length from the
// warm-up's: the query id, the cache marker and took_ms vary, the rows do not.
const jsonLenSlack = 64

// endToEnd lists the end-to-end metrics with their units, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"ttfb_p50_ms", "ms"},
	{"server_cpu_ms_per_query", "ms"},
	{"peak_rss_mb", "MB"},
}

type metricDef struct{ name, unit string }

// config is what every run of this process shares.
type config struct {
	root    string // repository root
	bin     string // rdfserved binary
	tmp     string // scratch directory, removed on exit
	sz      size
	seconds float64 // measured window
}

// phaseCount counts the requests of one phase of a run.
type phaseCount struct {
	Sent   int `json:"sent"`
	OK     int `json:"ok"`
	Failed int `json:"failed"`
}

func (p *phaseCount) add(err error) {
	p.Sent++
	if err != nil {
		p.Failed++
	} else {
		p.OK++
	}
}

// result is what one run measured.
type result struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Traced    bool                  `json:"traced"`
	Triples   int                   `json:"triples"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Samples   int                   `json:"latency_samples"`
	Phases    map[string]phaseCount `json:"phases"`
	Metrics   map[string]float64    `json:"metrics"`
	Errors    []string              `json:"errors,omitempty"`

	spans []span
}

// count records one request of phase and its outcome.
func (r *result) count(phase string, err error) {
	p := r.Phases[phase]
	p.add(err)
	r.Phases[phase] = p
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Errors) < 10 {
			r.Errors = append(r.Errors, phase+": "+err.Error())
		}
	}
}

// want is what the window checks on every response to one request; -1
// leaves a field unchecked.
type want struct{ count, length int }

func runWorkload(cfg config, name string, seed int64, trace bool) (*result, error) {
	dir, err := os.MkdirTemp(cfg.tmp, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	measured := time.Duration(cfg.seconds * float64(time.Second))
	warm := measured / 10
	ds := generate(cfg.sz, seed)
	ntPath := filepath.Join(dir, "data.nt")
	if err := ds.writeNT(ntPath); err != nil {
		return nil, err
	}
	w, err := newWorkload(name, ds, cfg.sz, seed, warm+measured)
	if err != nil {
		return nil, err
	}
	orc := newOracle(ds.triples)
	res := &result{Workload: name, Seed: seed, Traced: trace, Triples: orc.st.NumTriples(),
		Phases: map[string]phaseCount{}, Metrics: map[string]float64{}}

	expects := make([]expect, len(w.requests))
	byText := map[string]expect{}
	for i, r := range w.requests {
		e, ok := byText[r.text]
		if !ok {
			if e, err = orc.expect(r.text); err != nil {
				return nil, fmt.Errorf("oracle on %s: %w", r.class, err)
			}
			byText[r.text] = e
		}
		expects[i] = e
	}

	// Boot. Each boot of a durable workload seeds a fresh data directory,
	// so every one of them pays the segment write.
	logPath := filepath.Join(dir, "server.log")
	runtime.GC() // so that this process's collector is idle while the server boots
	var srv *serverProc
	var boots []float64
	var dataDir string
	for b := 0; b < setupBoots; b++ {
		if srv != nil {
			srv.kill()
			os.RemoveAll(dataDir)
		}
		dataDir = filepath.Join(dir, fmt.Sprintf("datadir%d", b))
		if srv, err = startServer(cfg.bin, w.serverArgs(ntPath, dataDir, measured), logPath); err != nil {
			return nil, err
		}
		boots = append(boots, srv.bootS)
	}
	defer func() { srv.kill() }() // whichever server is the last one started
	res.Metrics["setup_s"] = median(boots)

	// Oracle pass: every distinct request once, decoded in full.
	urls := make([]*url.URL, len(w.requests))
	wants := make([]want, len(w.requests))
	oc := newConn()
	for i, r := range w.requests {
		urls[i] = queryURL(srv.base, r)
		body, _, err := oc.do(getRequest(urls[i]))
		if err == nil {
			err = expects[i].check(body, r.tsv)
		}
		res.count("oracle", err)
		wants[i] = want{count: expects[i].count, length: len(body)}
		if w.patches != nil {
			// The writer changes every answer but the size of a LIMIT one.
			wants[i].length = -1
			if expects[i].rows == nil {
				wants[i].count = -1
			}
		}
	}
	oc.close()
	check := func(req int, body []byte) error {
		r, wt := w.requests[req], wants[req]
		n, err := tailCount(body, r.tsv)
		if err != nil {
			return err
		}
		if wt.count >= 0 && n != wt.count {
			return fmt.Errorf("%s: count %d, want %d", r.class, n, wt.count)
		}
		slack := 0
		if !r.tsv {
			slack = jsonLenSlack
		}
		if d := len(body) - wt.length; wt.length >= 0 && (d > slack || d < -slack) {
			return fmt.Errorf("%s: body of %d bytes, want %d", r.class, len(body), wt.length)
		}
		return nil
	}

	// Warm-up, then the measured window, in one go: clients do not pause
	// between the two, samples are split by their start time.
	t0 := time.Now()
	warmEnd := t0.Add(warm)
	deadline := warmEnd.Add(measured)
	reads := make([][]sample, w.readers)
	var writes []sample
	var wg sync.WaitGroup
	for k := 0; k < w.readers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads[k] = reader(urls, w.cycle, w.offsets[k], deadline, check)
		}()
	}
	if w.patches != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = writer(srv.base, w.patches, t0, updateInterval, deadline)
		}()
	}
	time.Sleep(time.Until(warmEnd))
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	scrape0, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	wg.Wait()
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	scrape1, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	if res.Metrics["peak_rss_mb"], err = srv.peakRSSMB(); err != nil {
		return nil, err
	}

	// End-to-end metrics, from the samples that started inside the window.
	var lat []float64
	perClass, ttfbPerClass := map[string][]float64{}, map[string][]float64{}
	okRequests := 0
	for _, rs := range reads {
		var first, last time.Time
		n := 0
		for _, s := range rs {
			if s.start.Before(warmEnd) {
				res.count("warmup", s.err)
				continue
			}
			res.count("window", s.err)
			if first.IsZero() {
				first = s.start
			}
			last = s.start.Add(time.Duration(s.latMs * float64(time.Millisecond)))
			if s.err == nil {
				n++
				lat = append(lat, s.latMs)
				c := w.requests[s.req].class
				perClass[c] = append(perClass[c], s.latMs)
				ttfbPerClass[c] = append(ttfbPerClass[c], s.ttfbMs)
			}
		}
		if n > 0 {
			res.Metrics["qps"] += float64(n) / last.Sub(first).Seconds()
		}
		okRequests += n
	}
	var updLat, updLate []float64
	var acked []string
	writerFailed := false
	for i, s := range writes {
		phase := "window_update"
		if s.start.Before(warmEnd) {
			phase = "warmup_update"
		}
		res.count(phase, s.err)
		if s.err != nil {
			writerFailed = true
			continue
		}
		acked = append(acked, w.patches[i])
		if phase == "window_update" {
			okRequests++
			updLat = append(updLat, s.latMs)
			updLate = append(updLate, s.lateMs)
		}
	}
	sort.Float64s(lat)
	res.Samples = len(lat)
	res.Metrics["latency_p50_ms"] = percentile(lat, 50)
	res.Metrics["latency_p95_ms"] = percentile(lat, 95)
	// Time to first byte is a property of the query, and the classes of a
	// cycle differ by orders of magnitude: the median of the pooled samples
	// would sit on the boundary between two classes and jump from run to
	// run. So take each class's median, then their mean by share of the
	// cycle.
	classes, weights := w.classWeights()
	medians := make([]float64, len(classes))
	for i, c := range classes {
		medians[i] = median(ttfbPerClass[c])
	}
	res.Metrics["ttfb_p50_ms"] = weightedMean(medians, weights)
	if okRequests > 0 {
		res.Metrics["server_cpu_ms_per_query"] = (cpu1 - cpu0) * 1000 / float64(okRequests)
	}

	if trace {
		clientMetrics(res.Metrics, perClass, updLat, updLate)
		scrapedMetrics(res.Metrics, scrape0, scrape1)
	}

	if w.patches != nil {
		res.Metrics["durable.disk_mb"] = dirSizeMB(dataDir)
		srv.kill()
		rebooted, err := startServer(cfg.bin, w.serverArgs(ntPath, dataDir, measured), logPath)
		if err != nil {
			return nil, fmt.Errorf("reboot after SIGKILL: %w", err)
		}
		srv = rebooted
		res.Metrics["durable.recovery_ms"] = srv.bootS * 1000
		if writerFailed {
			// A patch that failed may or may not have been applied, so
			// there is no state to compare the recovered server against.
			res.count("recovery", errors.New("not verified: a patch went unacknowledged"))
		} else if err := verifyRecovery(res, srv, ds, w, acked); err != nil {
			return nil, err
		}
	}

	if trace {
		srv.kill()
		if err := ladder(res, ds, ntPath, w); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return res, nil
}

// clientMetrics fills the client.* attribution metrics.
func clientMetrics(m map[string]float64, perClass map[string][]float64, updLat, updLate []float64) {
	for _, c := range classNames {
		v := perClass[c]
		sort.Float64s(v)
		if len(v) > 0 {
			m["client."+c+".p50_ms"] = percentile(v, 50)
			m["client."+c+".p99_ms"] = percentile(v, 99)
		}
	}
	if len(updLat) > 0 {
		sort.Float64s(updLat)
		sort.Float64s(updLate)
		m["client.update.p50_ms"] = percentile(updLat, 50)
		m["client.update.p95_ms"] = percentile(updLat, 95)
		m["client.writer_late_ms_p95"] = percentile(updLate, 95)
	}
}

// scrapedMetrics fills the layer metrics read off the server's /metrics at
// the two ends of the window.
func scrapedMetrics(m, a, b map[string]float64) {
	delta := func(name string) float64 { return b[name] - a[name] }
	ratio := func(num, rest float64) float64 {
		if num+rest == 0 {
			return 0
		}
		return num / (num + rest)
	}
	m["server.plan_cache_hit_ratio"] = ratio(delta("rdf_plan_cache_hits_total"), delta("rdf_plan_cache_misses_total"))
	m["server.rejected"] = delta("rdf_queries_rejected_total")
	m["shard.plan_reuse_ratio"] = ratio(delta("rdf_scatter_plan_reuse_hits_total"), delta("rdf_scatter_plans_compiled_total"))
	// Scatter plans are compiled once per query text, during the oracle
	// pass, so pruning is read since boot and not over the window.
	if n := b["rdf_shards_pruned_per_query_count"]; n > 0 {
		m["shard.pruned_per_query"] = b["rdf_shards_pruned_per_query_sum"] / n
	}
	m["wal.syncs"] = delta("rdf_wal_syncs_total")
	m["durable.compactions"] = delta("rdf_compactions_persisted_total")
}

// verifyRecovery compares the rebooted server with the base triples plus the
// acknowledged patches, replayed here into a fresh oracle: the reader's
// queries and the triple count.
func verifyRecovery(res *result, srv *serverProc, ds *dataset, w *workload, acked []string) error {
	triples, err := applyPatches(ds.triples, acked)
	if err != nil {
		return err
	}
	orc := newOracle(triples)
	c := newConn()
	defer c.close()
	for _, r := range w.requests {
		e, err := orc.expect(r.text)
		if err != nil {
			return fmt.Errorf("oracle on %s after replay: %w", r.class, err)
		}
		body, _, err := c.do(getRequest(queryURL(srv.base, r)))
		if err == nil {
			err = e.check(body, r.tsv)
		}
		res.count("recovery", err)
	}

	var health struct {
		Triples int `json:"triples"`
	}
	err = getJSON(srv.base+"/healthz", &health)
	if err == nil && health.Triples != orc.st.NumTriples() {
		err = fmt.Errorf("recovered server holds %d triples, replay gives %d", health.Triples, orc.st.NumTriples())
	}
	res.count("recovery", err)

	var stats struct {
		Durability struct {
			ReplayedRecords float64 `json:"replayed_records"`
		} `json:"durability"`
	}
	if err := getJSON(srv.base+"/stats", &stats); err != nil {
		return err
	}
	res.Metrics["durable.replayed_records"] = stats.Durability.ReplayedRecords
	return nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s answered %d: %s", url, resp.StatusCode, b)
	}
	return json.Unmarshal(b, v)
}
