package stats

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestLevelObserveAndDerived(t *testing.T) {
	var l Level
	l.Observe(10, 100, true, false)
	l.Observe(30, 100, false, true)
	if l.Nodes != 2 || l.TotalCard != 40 || l.MinCard != 10 || l.MaxCard != 30 {
		t.Fatalf("level after two observations: %+v", l)
	}
	if l.BitsetNodes != 1 || l.UintNodes != 1 || l.Flips != 1 {
		t.Fatalf("layout counters: %+v", l)
	}
	if l.SpanSum != 200 {
		t.Errorf("SpanSum = %d", l.SpanSum)
	}
}

func TestChooserSnapshotUnderConcurrency(t *testing.T) {
	var c Chooser
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.RecordLayout(3, 2, 1)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.LayoutBitsetNodes != 2400 || s.LayoutUintNodes != 1600 || s.LayoutFlips != 800 {
		t.Fatalf("layout counters: %+v", s)
	}
	// The snapshot must serialize with the documented field names — /stats
	// consumers key on them.
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"layout_bitset_nodes", "layout_uint_nodes", "layout_flips"} {
		if !json.Valid(data) || !contains(string(data), key) {
			t.Errorf("snapshot JSON missing %q: %s", key, data)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
