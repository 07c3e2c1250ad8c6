package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// inputs renders everything a run of every workload sends or loads.
func inputs(t *testing.T, seed int64) (nt []byte, workloads map[string]*workload) {
	t.Helper()
	d := generate(smokeSize, seed)
	path := filepath.Join(t.TempDir(), "data.nt")
	if err := d.writeNT(path); err != nil {
		t.Fatal(err)
	}
	nt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	workloads = map[string]*workload{}
	for _, name := range workloadNames {
		w, err := newWorkload(name, d, smokeSize, seed, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		workloads[name] = w
	}
	return nt, workloads
}

func TestSameSeedSameInputs(t *testing.T) {
	nt1, w1 := inputs(t, 7)
	nt2, w2 := inputs(t, 7)
	if !bytes.Equal(nt1, nt2) {
		t.Error("two generations with one seed wrote different datasets")
	}
	if !reflect.DeepEqual(w1, w2) {
		t.Error("two generations with one seed made different requests, cycles or patches")
	}
}

func TestSeedsDiverge(t *testing.T) {
	nt1, w1 := inputs(t, 7)
	nt2, w2 := inputs(t, 8)
	if bytes.Equal(nt1, nt2) {
		t.Error("seeds 7 and 8 wrote the same dataset")
	}
	if len(nt1) == 0 || bytes.Count(nt1, []byte{'\n'}) != bytes.Count(nt2, []byte{'\n'}) {
		t.Error("the seed must not change the dataset's size")
	}
	for _, name := range []string{"select_point", "mixed_update"} {
		if reflect.DeepEqual(w1[name].requests, w2[name].requests) && reflect.DeepEqual(w1[name].patches, w2[name].patches) {
			t.Errorf("%s: seeds 7 and 8 made the same texts and patches", name)
		}
	}
	for name := range w1 {
		if reflect.DeepEqual(w1[name].cycle, w2[name].cycle) && reflect.DeepEqual(w1[name].offsets, w2[name].offsets) {
			t.Errorf("%s: seeds 7 and 8 made the same request order", name)
		}
	}
}

func TestPointPoolIsDistinctAndTemplateBalanced(t *testing.T) {
	_, w := inputs(t, 7)
	sp := w["select_point"]
	if len(sp.requests) != smokeSize.poolTexts {
		t.Fatalf("pool holds %d texts, want %d", len(sp.requests), smokeSize.poolTexts)
	}
	seen := map[string]bool{}
	for _, r := range sp.requests {
		if seen[r.text] {
			t.Fatalf("text repeated in the pool:\n%s", r.text)
		}
		seen[r.text] = true
	}
	want := []string{"q1", "q3", "q4", "q5", "q7", "q11", "q12"}
	for i, c := range want {
		if sp.requests[i].class != c {
			t.Errorf("rank %d is %s, want %s", i, sp.requests[i].class, c)
		}
	}
}

func TestApplyPatches(t *testing.T) {
	d := generate(smokeSize, 7)
	patches := d.patchStream(rand.New(rand.NewSource(7)), 3)
	got, err := applyPatches(d.triples, patches)
	if err != nil {
		t.Fatal(err)
	}
	// 8 inserts of new triples and 2 deletes of base triples per patch.
	if want := len(d.triples) + 3*(8-2); len(got) != want {
		t.Errorf("%d triples after 3 patches, want %d", len(got), want)
	}
	again, err := applyPatches(got, patches)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(got) {
		t.Errorf("replaying the same patches changed the size from %d to %d", len(got), len(again))
	}
}
