package main

import (
	"fmt"
	"math/rand"
	"time"
)

// workloadNames lists the workloads in the order the suite runs them.
var workloadNames = []string{"select_point", "cyclic_join", "wide_result", "mixed_update", "sharded_mix"}

// classNames lists every request class of any workload: the client.<class>
// and shard.speedup.<class> metric names are made from it.
var classNames = []string{
	"q1", "q2", "q3", "q4", "q5", "q7", "q9", "q11", "q12", "tri",
	"q8_json", "q8_tsv", "q14_json", "q14_tsv", "q14_limit",
}

// fixedCycles are the request cycles of the workloads whose texts do not
// depend on the seed.
var fixedCycles = map[string][]string{
	"cyclic_join":  {"tri", "q2", "q9", "q2", "q9", "q2", "q9", "q2", "q9"},
	"wide_result":  {"q14_json", "q14_tsv", "q8_json", "q8_tsv", "q14_limit"},
	"mixed_update": {"q1", "q5", "q2", "q9", "q14_limit"},
	"sharded_mix":  {"q1", "q2", "q9", "q8_json", "q14_tsv", "tri"},
}

const (
	// pointCycleLen is how many Zipf draws make the select_point cycle.
	pointCycleLen = 1 << 14
	// updateInterval spaces the open-loop writer's patches: 40 per second.
	updateInterval = 25 * time.Millisecond
	// compactionsPerWindow is how many background compaction cycles the
	// mixed_update server is configured to run inside the measured window.
	compactionsPerWindow = 5
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name     string
	requests []request // distinct requests
	cycle    []int     // indexes into requests, in send order
	readers  int       // closed-loop reader connections
	// offsets[k] is where reader k starts in the cycle.
	offsets []int
	// patches is the open-loop writer's stream; nil when there is no writer.
	patches []string
}

// newWorkload builds the named workload's inputs from the seed. window is
// the warm-up plus the measured window, which the patch stream must cover.
func newWorkload(name string, d *dataset, sz size, seed int64, window time.Duration) (*workload, error) {
	// One stream per purpose, so that a change to how one input is drawn
	// does not move the others.
	rng := func(purpose int64) *rand.Rand { return rand.New(rand.NewSource(seed*16 + purpose)) }
	w := &workload{name: name, readers: 2}
	switch name {
	case "select_point":
		w.requests = d.pointPool(sz, rng(1))
		w.cycle = zipfCycle(rng(2), len(w.requests), pointCycleLen)
	case "cyclic_join", "wide_result", "mixed_update", "sharded_mix":
		fixed := fixedRequests(sz)
		index := map[string]int{}
		for _, class := range fixedCycles[name] {
			if _, ok := index[class]; !ok {
				index[class] = len(w.requests)
				w.requests = append(w.requests, fixed[class])
			}
			w.cycle = append(w.cycle, index[class])
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if name == "mixed_update" {
		w.readers = 1
		w.patches = d.patchStream(rng(3), int(window/updateInterval)+1)
	}
	// Readers start half a cycle apart, from a seeded point.
	first := rng(4).Intn(len(w.cycle))
	for k := 0; k < w.readers; k++ {
		w.offsets = append(w.offsets, first+k*len(w.cycle)/w.readers)
	}
	return w, nil
}

// serverArgs are the rdfserved flags of the workload; every flag not named
// here keeps its default.
func (w *workload) serverArgs(ntPath, dataDir string, measured time.Duration) []string {
	args := []string{"-data", ntPath, "-engine", "auto"}
	switch w.name {
	case "mixed_update":
		args = append(args, "-data-dir", dataDir, "-fsync", "always",
			"-compact-every", (measured / compactionsPerWindow).String(), "-compact-min-delta", "1")
	case "sharded_mix":
		args = append(args, "-shards", "4")
	}
	return args
}

// classWeights returns the distinct classes of the cycle and each one's share
// of it.
func (w *workload) classWeights() (classes []string, weights []float64) {
	idx := map[string]int{}
	for _, r := range w.cycle {
		c := w.requests[r].class
		i, ok := idx[c]
		if !ok {
			i = len(classes)
			idx[c] = i
			classes = append(classes, c)
			weights = append(weights, 0)
		}
		weights[i] += 1 / float64(len(w.cycle))
	}
	return classes, weights
}
