package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges new against base for one metric. worsening is how much
// worse new's median is, as a share of base's; spread is the wider of the
// two runs' interquartile ranges, as a share of its median.
func verdict(worsening, spread, bound float64) string {
	switch {
	case spread > bound:
		return "unresolved"
	case worsening > bound:
		return "worse"
	default:
		return "ok"
	}
}

// compareFiles prints one row per workload × end-to-end metric and reports
// whether any row is worse than its bound in BENCHMARK.json allows.
func compareFiles(w io.Writer, benchmarkPath, basePath, newPath string) (worse bool, err error) {
	var bf benchmarkFile
	var base, cur report
	for path, v := range map[string]any{benchmarkPath: &bf, basePath: &base, newPath: &cur} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tnew/base\tspread\tbound\tverdict")
	for _, name := range workloadNames {
		b, c := base.Workloads[name], cur.Workloads[name]
		if b == nil || c == nil {
			return false, fmt.Errorf("workload %s is missing from one of the files", name)
		}
		for _, m := range bf.EndToEnd {
			bs, cs := b.EndToEnd[m.Name], c.EndToEnd[m.Name]
			if bs.Median == 0 {
				return false, fmt.Errorf("%s %s: base median is 0", name, m.Name)
			}
			worsening := (cs.Median - bs.Median) / bs.Median
			if m.Better == "higher" {
				worsening = -worsening
			}
			spread := max((bs.Q3-bs.Q1)/bs.Median, (cs.Q3-cs.Q1)/cs.Median)
			v := verdict(worsening, spread, m.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f (base %.4g)\t%.3f\t%.2f\t%s\n",
				name, m.Name, m.Unit, bs.Median, cs.Median, cs.Median/bs.Median, bs.Median, spread, m.Bound, v)
		}
	}
	return worse, tw.Flush()
}
