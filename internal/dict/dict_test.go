package dict

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func TestEncodeDense(t *testing.T) {
	d := New()
	a := d.Encode(rdf.NewIRI("http://a"))
	b := d.Encode(rdf.NewIRI("http://b"))
	c := d.Encode(rdf.NewLiteral("c"))
	if a != 0 || b != 1 || c != 2 {
		t.Errorf("ids not dense: %d %d %d", a, b, c)
	}
	if d.Size() != 3 {
		t.Errorf("Size = %d, want 3", d.Size())
	}
}

func TestEncodeIdempotent(t *testing.T) {
	d := New()
	term := rdf.NewIRI("http://x")
	first := d.Encode(term)
	for i := 0; i < 5; i++ {
		if got := d.Encode(term); got != first {
			t.Fatalf("Encode not stable: %d then %d", first, got)
		}
	}
	if d.Size() != 1 {
		t.Errorf("Size = %d, want 1", d.Size())
	}
}

func TestKindsDoNotCollide(t *testing.T) {
	d := New()
	iri := d.Encode(rdf.NewIRI("x"))
	lit := d.Encode(rdf.NewLiteral("x"))
	blk := d.Encode(rdf.NewBlank("x"))
	lang := d.Encode(rdf.NewLangLiteral("x", "en"))
	typed := d.Encode(rdf.NewTypedLiteral("x", "http://dt"))
	ids := []uint32{iri, lit, blk, lang, typed}
	seen := map[uint32]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("id collision among kinds: %v", ids)
		}
		seen[id] = true
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	d := New()
	terms := []rdf.Term{
		rdf.NewIRI("http://a"),
		rdf.NewLiteral("with \"quotes\""),
		rdf.NewLangLiteral("hi", "en"),
		rdf.NewBlank("b0"),
	}
	for _, term := range terms {
		id := d.Encode(term)
		if got := d.Decode(id); got != term {
			t.Errorf("Decode(Encode(%v)) = %v", term, got)
		}
	}
}

func TestLookup(t *testing.T) {
	d := New()
	term := rdf.NewIRI("http://present")
	id := d.Encode(term)
	if got, ok := d.Lookup(term); !ok || got != id {
		t.Errorf("Lookup(present) = %d,%v", got, ok)
	}
	if _, ok := d.Lookup(rdf.NewIRI("http://absent")); ok {
		t.Errorf("Lookup(absent) reported present")
	}
	if _, ok := d.LookupIRI("http://present"); !ok {
		t.Errorf("LookupIRI(present) reported absent")
	}
	if !d.Contains(term) || d.Contains(rdf.NewIRI("http://absent")) {
		t.Errorf("Contains wrong")
	}
}

func TestDecodePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Decode of unassigned id should panic")
		}
	}()
	New().Decode(7)
}

func TestEncodeTriple(t *testing.T) {
	d := New()
	tr := rdf.Triple{S: rdf.NewIRI("http://s"), P: rdf.NewIRI("http://p"), O: rdf.NewLiteral("o")}
	s, p, o := d.EncodeTriple(tr)
	if d.Decode(s) != tr.S || d.Decode(p) != tr.P || d.Decode(o) != tr.O {
		t.Errorf("EncodeTriple round trip failed: %d %d %d", s, p, o)
	}
}

// Property: for any sequence of strings, encoding assigns equal ids iff the
// terms are equal, and Decode inverts Encode.
func TestEncodeBijectionProperty(t *testing.T) {
	f := func(values []string) bool {
		d := New()
		ids := make([]uint32, len(values))
		for i, v := range values {
			ids[i] = d.Encode(rdf.NewLiteral(v))
		}
		for i := range values {
			for j := range values {
				if (values[i] == values[j]) != (ids[i] == ids[j]) {
					return false
				}
			}
			if d.Decode(ids[i]).Value != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeNew(b *testing.B) {
	terms := make([]rdf.Term, 1<<16)
	for i := range terms {
		terms[i] = rdf.NewIRI(fmt.Sprintf("http://example.org/entity/%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New()
		for _, tm := range terms {
			d.Encode(tm)
		}
	}
}

func BenchmarkEncodeExisting(b *testing.B) {
	d := New()
	terms := make([]rdf.Term, 1<<12)
	for i := range terms {
		terms[i] = rdf.NewIRI(fmt.Sprintf("http://example.org/entity/%d", i))
		d.Encode(terms[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Encode(terms[i&(len(terms)-1)])
	}
}

// TestRenderingRoundTrip: every term kind and every escape survives
// Encode → Render (the served form) and Encode → Decode (the re-parse).
func TestRenderingRoundTrip(t *testing.T) {
	d := New()
	long := strings.Repeat("x", 3*chunkSize) // a record spanning several chunk slots
	terms := []rdf.Term{
		rdf.NewIRI("http://a"),
		rdf.NewIRI(""),
		rdf.NewIRI("http://a>b"),
		rdf.NewBlank("b0"),
		rdf.NewBlank("with space"),
		rdf.NewLiteral(""),
		rdf.NewLiteral(`q"uo\te` + "\n\r\t"),
		rdf.NewLiteral(`ends with backslash\`),
		rdf.NewLiteral("héllo \xff"),
		rdf.NewLangLiteral(`say "hi"`, "en-GB"),
		rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
		rdf.NewTypedLiteral("a@b^^<c>", "http://dt"),
		rdf.NewLiteral(long),
		rdf.NewIRI("http://after/the/long/one"),
	}
	v := d.View()
	for i, term := range terms {
		id := d.Encode(term)
		if id != ID(i) {
			t.Fatalf("term %d got id %d", i, id)
		}
		if got := d.Decode(id); got != term {
			t.Errorf("Decode(Encode(%.40q)) = %.40q", term, got)
		}
		// The view predates the term: Render re-snapshots to find it.
		rendering, plain := v.Render(id)
		if string(rendering) != term.String() {
			t.Errorf("Render(%d) = %.40q, want %.40q", id, rendering, term.String())
		}
		wantPlain := !strings.ContainsAny(term.String(), "\"\\\n\r\t\xff") && !strings.Contains(term.String(), "é")
		if plain != wantPlain {
			t.Errorf("Render(%.40q) plain = %v, want %v", term, plain, wantPlain)
		}
		if got, ok := d.Lookup(term); !ok || got != id {
			t.Errorf("Lookup(%.40q) = %d,%v", term, got, ok)
		}
	}
}

func TestRenderPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Render of unassigned id should panic")
		}
	}()
	New().View().Render(7)
}

// TestViewReadersRaceWriters: readers render ids from their snapshots — no
// lock per cell — while writers append terms across many chunk boundaries.
// Run under -race this checks the snapshot's claim: the tables only grow,
// so what a snapshot can see is never written again.
func TestViewReadersRaceWriters(t *testing.T) {
	d := New()
	name := func(w, i int) rdf.Term {
		// ~100-byte renderings: the writers cross a 64 KiB chunk boundary
		// every ~650 terms.
		return rdf.NewIRI(fmt.Sprintf("http://example.org/writer%d/%s/%06d", w, strings.Repeat("p", 60), i))
	}
	const writers, perWriter, readers = 2, 4000, 4
	for i := 0; i < 100; i++ {
		d.Encode(name(0, i))
	}

	var wg sync.WaitGroup
	ids := make([][]ID, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ids[w] = append(ids[w], d.Encode(name(w, i)))
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := d.Size()
				v := d.View()
				for id := 0; id < n; id += 7 {
					b, plain := v.Render(ID(id))
					if len(b) < 20 || b[0] != '<' || b[len(b)-1] != '>' || !plain {
						t.Errorf("Render(%d) = %q plain=%v", id, b, plain)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	// Writer 0 re-encodes the 100 terms registered up front.
	if want := writers * perWriter; d.Size() != want {
		t.Fatalf("Size = %d, want %d", d.Size(), want)
	}
	v := d.View()
	for w := range ids {
		for i, id := range ids[w] {
			if b, _ := v.Render(id); string(b) != name(w, i).String() {
				t.Fatalf("writer %d term %d (id %d) renders as %q", w, i, id, b)
			}
		}
	}
}
