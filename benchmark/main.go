// Command benchmark is this repository's benchmark: five client-visible
// workloads against the real rdfserved binary, and a traced pass that times
// every layer from the set kernels to the wire. BENCHMARK.json at the
// repository root names its metrics; README.md in this directory explains
// them.
//
//	bash benchmark/run.sh                                  # the whole suite
//	bash benchmark/run.sh --workload cyclic_join --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh -repeat 5 -out base              # medians and quartiles
//	bash benchmark/run.sh -compare base/result.json new/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is the measured window, the run_seconds of BENCHMARK.json.
const defaultSeconds = 10

func main() {
	root := flag.String("root", ".", "repository root")
	workload := flag.String("workload", "", "run one workload ("+strings.Join(workloadNames, " | ")+"); empty runs all, untraced and traced")
	seed := flag.Int64("seed", 1, "seed of the knows graph, the queried constants, the request cycle and the patch stream")
	seconds := flag.Float64("seconds", defaultSeconds, "measured window in seconds")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	smoke := flag.Bool("smoke", false, "LUBM scale 1 and 2 s windows")
	repeat := flag.Int("repeat", 1, "suite only: untraced runs per workload, on seeds seed, seed+1, …")
	out := flag.String("out", "", "suite only: directory for result.json and trace.json (default <root>/benchmark/out)")
	compare := flag.Bool("compare", false, "compare two result.json files given as arguments and exit")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files: base.json new.json"))
		}
		worse, err := compareFiles(os.Stdout, filepath.Join(*root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	cfg := config{root: *root, sz: fullSize, seconds: *seconds}
	if *smoke {
		cfg.sz, cfg.seconds = smokeSize, 2
	}
	var err error
	if cfg.tmp, err = os.MkdirTemp("", "rdfbench-"); err != nil {
		fatal(err)
	}
	code := 0
	if err := run(cfg, *workload, *seed, *trace == 1, *repeat, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	os.RemoveAll(cfg.tmp)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func run(cfg config, workload string, seed int64, trace bool, repeat int, out string) error {
	var err error
	if cfg.bin, err = buildServer(cfg.root, cfg.tmp); err != nil {
		return err
	}
	if workload != "" {
		res, err := runWorkload(cfg, workload, seed, trace)
		if err != nil {
			return err
		}
		return printDriverResult(res)
	}
	return runSuite(cfg, seed, repeat, out)
}

// printLines prints "workload metric unit value" for defs.
func printLines(res *result, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%s %s %s %v\n", res.Workload, d.name, d.unit, res.Metrics[d.name])
	}
}

// printDriverResult prints the metric lines of a single run and then, as the
// last line, the JSON object the driver reads.
func printDriverResult(res *result) error {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	printLines(res, defs)
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "benchmark:", res.Workload, e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// summary is one end-to-end metric of one workload over the suite's repeats.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type workloadReport struct {
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`
	Runs     []*result          `json:"runs"`
}

// report is result.json.
type report struct {
	Seed       int64                      `json:"seed"`
	Repeat     int                        `json:"repeat"`
	Seconds    float64                    `json:"seconds"`
	Commit     string                     `json:"commit"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"server_gomaxprocs"`
	Go         string                     `json:"go"`
	Triples    int                        `json:"triples"`
	Workloads  map[string]*workloadReport `json:"workloads"`
	// Claim is what this run claims to have improved. The benchmark itself
	// claims nothing.
	Claim *string `json:"claim"`
}

// runSuite runs every workload: repeat untraced runs and one traced run.
func runSuite(cfg config, seed int64, repeat int, out string) error {
	if out == "" {
		out = filepath.Join(cfg.root, "benchmark", "out")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	rep := &report{Seed: seed, Repeat: repeat, Seconds: cfg.seconds, Commit: commit(cfg.root),
		NProc: runtime.NumCPU(), GOMAXPROCS: 2, Go: runtime.Version(), Workloads: map[string]*workloadReport{}}
	var spans []span
	failed := 0
	for _, name := range workloadNames {
		wr := &workloadReport{EndToEnd: map[string]summary{}}
		rep.Workloads[name] = wr
		for i := 0; i < repeat; i++ {
			res, err := runWorkload(cfg, name, seed+int64(i), false)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			wr.Runs = append(wr.Runs, res)
		}
		traced, err := runWorkload(cfg, name, seed, true)
		if err != nil {
			return fmt.Errorf("%s traced: %w", name, err)
		}
		wr.Runs = append(wr.Runs, traced)
		rep.Triples = traced.Triples

		med := &result{Workload: name, Metrics: map[string]float64{}}
		for _, d := range endToEnd {
			var vals []float64
			for _, r := range wr.Runs[:repeat] {
				vals = append(vals, r.Metrics[d.name])
			}
			q1, q2, q3 := quartiles(vals)
			wr.EndToEnd[d.name] = summary{d.unit, q2, q1, q3, vals}
			med.Metrics[d.name] = q2
		}
		printLines(med, endToEnd)
		wr.PerLayer = map[string]float64{}
		for _, d := range perLayer {
			wr.PerLayer[d.name] = traced.Metrics[d.name]
		}
		printLines(traced, perLayer)
		for _, s := range traced.spans {
			s.Trace = name + "/" + s.Trace
			spans = append(spans, s)
		}
		for _, r := range wr.Runs {
			failed += r.Failed
			for _, e := range r.Errors {
				fmt.Fprintln(os.Stderr, "benchmark:", name, e)
			}
		}
	}
	if err := writeJSON(filepath.Join(out, "result.json"), rep); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(out, "trace.json"), spans); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit is the checked-out revision, or "unknown" outside a git checkout.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// perLayer lists the per-layer metrics with their units, in print order. A
// layer a workload does not exercise — the WAL without a writer, a class the
// cycle does not hold — reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"rdf.parse_s", "s"},
		{"store.build_s", "s"},
		{"store.heap_bytes_per_triple", "bytes"},
		{"trie.build_ms", "ms"},
		{"query.parse_us", "us"},
		{"plan.compile_us", "us"},
		{"set.intersect_ns_per_elem", "ns"},
		{"set.seek_ns", "ns"},
		{"engine.drain_us", "us"},
		{"engine.ns_per_row", "ns"},
		{"engine.allocs_per_row", "count"},
		{"live.drain_overhead_ratio", "ratio"},
		{"live.pending_overhead_ratio", "ratio"},
		{"live.apply_us", "us"},
		{"live.compact_ms", "ms"},
		{"shard.partition_s", "s"},
		{"shard.drain_us", "us"},
		{"shard.speedup", "ratio"},
		{"shard.pruned_per_query", "count"},
		{"shard.plan_reuse_ratio", "ratio"},
		{"server.handler_json_us", "us"},
		{"server.handler_tsv_us", "us"},
		{"server.encode_self_ns_per_row", "ns"},
		{"server.allocs_per_row", "count"},
		{"server.alloc_bytes_per_row", "bytes"},
		{"server.plan_cache_hit_ratio", "ratio"},
		{"server.rejected", "count"},
		{"obs.trace_overhead_ratio", "ratio"},
		{"http.loopback_us", "us"},
		{"http.self_us", "us"},
		{"wal.append_us", "us"},
		{"wal.syncs", "count"},
		{"wal.bytes_per_patch_byte", "ratio"},
		{"segment.write_ms", "ms"},
		{"segment.open_ms", "ms"},
		{"segment.bytes_per_triple", "bytes"},
		{"durable.recovery_ms", "ms"},
		{"durable.replayed_records", "count"},
		{"durable.disk_mb", "MB"},
		{"durable.compactions", "count"},
		{"cluster.drain_us", "us"},
		{"cluster.overhead_ratio", "ratio"},
		{"client.update.p50_ms", "ms"},
		{"client.update.p95_ms", "ms"},
		{"client.writer_late_ms_p95", "ms"},
	}
	for _, c := range classNames {
		defs = append(defs,
			metricDef{"shard.speedup." + c, "ratio"},
			metricDef{"client." + c + ".p50_ms", "ms"},
			metricDef{"client." + c + ".p99_ms", "ms"})
	}
	return defs
}()
