package server

import (
	"fmt"
	"sync"
	"testing"
)

func TestPlanCacheLRU(t *testing.T) {
	c := newPlanCache(2)
	a, b, d := &preparedQuery{}, &preparedQuery{}, &preparedQuery{}
	c.add("a", a)
	c.add("b", b)
	if _, ok := c.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.add("d", d) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (a was refreshed)")
	}
	if got, ok := c.get("a"); !ok || got != a {
		t.Fatal("a lost")
	}
	if got, ok := c.get("d"); !ok || got != d {
		t.Fatal("d lost")
	}
	st := c.stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want size 2 evictions 1", st)
	}
	// hits: a, a, d = 3; misses: a(first get? no—get("a") after add is a hit)...
	// Accounting: get(a)=hit, get(b)=miss, get(a)=hit, get(d)=hit.
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 hits 1 miss", st)
	}
}

func TestPlanCacheUpdateExisting(t *testing.T) {
	c := newPlanCache(4)
	p1, p2 := &preparedQuery{}, &preparedQuery{}
	c.add("k", p1)
	c.add("k", p2)
	if got, _ := c.get("k"); got != p2 {
		t.Fatal("re-add did not replace value")
	}
	if st := c.stats(); st.Size != 1 {
		t.Fatalf("size = %d, want 1", st.Size)
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	c := newPlanCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%32)
				if _, ok := c.get(key); !ok {
					c.add(key, &preparedQuery{})
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.stats()
	if st.Size > 16 {
		t.Fatalf("size %d exceeds capacity", st.Size)
	}
	if st.Hits+st.Misses != 8*500 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*500)
	}
}

// TestPlanCacheTextHitRefreshesTemplate: a template nobody looks up
// survives a stream of one-off entries while a text bound from it stays
// hot, and template lookups count apart from text lookups.
func TestPlanCacheTextHitRefreshesTemplate(t *testing.T) {
	c := newPlanCache(3)
	c.add("t|shape", &preparedQuery{})
	c.add("hot", &preparedQuery{template: "t|shape"})
	for i := 0; i < 10; i++ {
		c.add(fmt.Sprintf("once%d", i), &preparedQuery{})
		if _, ok := c.get("hot"); !ok {
			t.Fatalf("hot text evicted after %d one-offs", i)
		}
	}
	if _, ok := c.getTemplate("t|shape"); !ok {
		t.Fatal("template evicted although a text bound from it stayed hot")
	}
	if _, ok := c.getTemplate("t|other"); ok {
		t.Fatal("unknown template found")
	}
	st := c.stats()
	if st.Hits != 10 || st.Misses != 0 || st.TemplateHits != 1 || st.TemplateMisses != 1 {
		t.Fatalf("stats = %+v, want 10 text hits, 1 template hit and 1 miss", st)
	}
}
