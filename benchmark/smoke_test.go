package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload at smoke size against a real rdfserved, and
// mixed_update once more with the traced pass: no operation may fail, the
// oracle and the post-SIGKILL recovery check included.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rdfserved")
	}
	tmp := t.TempDir()
	bin, err := buildServer("..", tmp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{root: "..", bin: bin, tmp: tmp, sz: smokeSize, seconds: 2}
	type run struct {
		workload string
		trace    bool
	}
	runs := []run{{"mixed_update", true}}
	for _, name := range workloadNames {
		runs = append(runs, run{name, false})
	}
	listed := map[string]bool{}
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		listed[d.name] = true
	}
	// Correctness, not timing, is under test: the runs may share the cores.
	t.Run("runs", func(t *testing.T) {
		for _, r := range runs {
			t.Run(r.workload, func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(cfg, r.workload, 1, r.trace)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Errors)
				}
				if r.trace {
					if res.Metrics["durable.recovery_ms"] == 0 || res.Metrics["engine.drain_us"] == 0 {
						t.Errorf("traced mixed_update recovered in %v ms and drained in %v us",
							res.Metrics["durable.recovery_ms"], res.Metrics["engine.drain_us"])
					}
					if len(res.spans) == 0 {
						t.Error("traced run recorded no spans")
					}
				}
				for name := range res.Metrics {
					if !listed[name] {
						t.Errorf("metric %s is not in BENCHMARK.json's lists", name)
					}
				}
				for _, d := range endToEnd {
					if res.Metrics[d.name] <= 0 {
						t.Errorf("%s = %v, end-to-end metrics are never 0", d.name, res.Metrics[d.name])
					}
				}
			})
		}
	})
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, qps, q1, q3 float64) string {
		rep := report{Workloads: map[string]*workloadReport{}}
		for _, w := range workloadNames {
			wr := &workloadReport{EndToEnd: map[string]summary{}}
			for _, d := range endToEnd {
				wr.EndToEnd[d.name] = summary{Unit: d.unit, Median: 100, Q1: 99, Q3: 101}
			}
			wr.EndToEnd["qps"] = summary{Unit: "1/s", Median: qps, Q1: q1, Q3: q3}
			rep.Workloads[w] = wr
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("base.json", 100, 99, 101)
	for _, c := range []struct {
		name      string
		new       string
		wantWorse bool
		wantWord  string
	}{
		{"same", mk("same.json", 100, 99, 101), false, "ok"},
		{"faster", mk("faster.json", 150, 149, 151), false, "ok"},
		{"slower", mk("slower.json", 50, 49.5, 50.5), true, "worse"},
		{"noisy", mk("noisy.json", 50, 30, 70), false, "unresolved"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, "../BENCHMARK.json", base, c.new)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.wantWorse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, worse, c.wantWorse, out.String())
		}
		if !strings.Contains(out.String(), c.wantWord) {
			t.Errorf("%s: no %q row in\n%s", c.name, c.wantWord, out.String())
		}
		if rows := strings.Count(out.String(), "\n"); rows != 1+len(workloadNames)*len(endToEnd) {
			t.Errorf("%s: %d lines, want a header and one row per workload and metric", c.name, rows)
		}
	}
}
