package main

import (
	"reflect"
	"testing"
)

// BENCHMARK.json is what later changes quote; the program must print exactly
// the names and units it lists.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	var bf benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default window is %d", bf.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end lists\n%v\nthe program prints\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer lists\n%v\nthe program prints\n%v", layer, perLayer)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(perLayer))
	}
}

func TestEveryCycleClassHasMetrics(t *testing.T) {
	known := map[string]bool{}
	for _, c := range classNames {
		known[c] = true
	}
	d := generate(smokeSize, 1)
	for _, name := range workloadNames {
		w, err := newWorkload(name, d, smokeSize, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range w.requests {
			if !known[r.class] {
				t.Errorf("%s sends class %s, which has no client.%s.* metric", name, r.class, r.class)
			}
		}
	}
}
