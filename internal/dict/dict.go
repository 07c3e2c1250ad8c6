// Package dict implements the dictionary encoding step described in §II-A1
// of the paper: RDF terms of arbitrary type are mapped to dense 32-bit
// unsigned integer keys before any relation is built. All engines in this
// repository share one dictionary per dataset, so encoded ids are directly
// comparable across engines.
//
// Ids are assigned densely in first-registration order. Data generators and
// loaders that register terms grouped by entity class therefore produce
// id-clusters per class, which is what makes the bitset layout in
// internal/set effective (dense ranges of, say, all UndergraduateStudent
// ids).
package dict

import (
	"encoding/binary"
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/rdf"
)

// ID is a dictionary-encoded term identifier. The paper's engines use 32-bit
// values; so do we.
type ID = uint32

// The arena is addressed by one uint32 per term: the high bits pick the
// chunk, the low chunkShift bits the position inside it. 64 KiB chunks keep
// the tail waste of a chunk negligible and bound the arena at 4 GiB, the
// same order as the id space.
const (
	chunkShift = 16
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	maxChunks  = 1 << (32 - chunkShift)
)

// Dictionary maps rdf.Term values to dense uint32 ids and back.
//
// Every term is stored exactly once, as its N-Triples rendering — the form
// it is keyed by and the form results are served in — in a chunked
// append-only byte arena, with one uint32 offset per id. A record is a
// uvarint header (rendering length << 1, low bit set when the rendering
// holds a byte outside printable ASCII or a '"' or '\\') followed by the
// rendering; records never move and are never rewritten, and the lookup
// map's keys alias them.
//
// Ids are append-only: once assigned, an id's term never changes, so any id
// a reader obtained stays decodable forever. All methods are safe for
// concurrent use — the live-update write path (internal/live) encodes new
// terms while the immutable base keeps serving readers. The result path
// does not go through the lock per cell: it takes a View once per response
// and renders ids from that snapshot.
//
// Decode re-parses the rendering and is meant for cold callers (the
// segment writer, CLIs, materialized results). A literal carrying
// both a language tag and a datatype decodes with the tag only: the
// rendering, which has always been the term's identity here, drops the
// datatype.
//
// The zero value is not usable; call New.
type Dictionary struct {
	mu     sync.RWMutex
	byKey  map[string]ID
	chunks [][]byte // chunk k holds arena offsets [k<<chunkShift, ...)
	offs   []uint32 // offs[id] is the arena offset of id's record
	next   uint32   // arena offset of the next record
}

// New returns an empty dictionary.
func New() *Dictionary {
	return &Dictionary{byKey: make(map[string]ID)}
}

// keyBuf is the stack scratch a term is rendered into before probing the
// map; renderings longer than this spill to the heap.
type keyBuf [160]byte

// Encode returns the id for t, assigning the next dense id if t has not been
// seen before.
func (d *Dictionary) Encode(t rdf.Term) ID {
	var buf keyBuf
	key := t.AppendTo(buf[:0])
	d.mu.RLock()
	id, ok := d.byKey[string(key)]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byKey[string(key)]; ok {
		return id
	}
	id = ID(len(d.offs))
	stored := d.store(key)
	d.byKey[unsafe.String(unsafe.SliceData(stored), len(stored))] = id
	return id
}

// store appends one record for rendering to the arena and its offset to the
// table, returning the stored copy of the rendering. Callers hold d.mu.
func (d *Dictionary) store(rendering []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	h := uint64(len(rendering)) << 1
	if !isPlain(rendering) {
		h |= 1
	}
	hn := binary.PutUvarint(hdr[:], h)
	need := hn + len(rendering)

	pos := int(d.next & chunkMask)
	if pos == 0 || pos+need > chunkSize {
		// Start a new chunk (d.next sits on a chunk boundary exactly when
		// the chunk it names does not exist yet). A record larger than a
		// chunk gets a dedicated allocation spanning several chunk slots:
		// the first slot holds the whole of it, so offset arithmetic stays
		// uniform. Chunks are created at full length and their slice
		// headers never change afterwards — View snapshots read them
		// without the lock.
		slots := (need + chunkSize - 1) / chunkSize
		if len(d.chunks)+slots > maxChunks {
			panic("dict: term arena exceeds 4 GiB")
		}
		d.next = uint32(len(d.chunks)) << chunkShift
		d.chunks = append(d.chunks, make([]byte, slots*chunkSize))
		for i := 1; i < slots; i++ {
			d.chunks = append(d.chunks, nil)
		}
		pos = 0
	}
	rec := d.chunks[d.next>>chunkShift][pos : pos+need]
	copy(rec, hdr[:hn])
	copy(rec[hn:], rendering)
	d.offs = append(d.offs, d.next)
	if pos+need >= chunkSize {
		d.next = uint32(len(d.chunks)) << chunkShift
	} else {
		d.next += uint32(need)
	}
	return rec[hn:]
}

// isPlain reports whether b is printable ASCII without '"' or '\\' — the
// renderings a JSON string can carry verbatim between its quotes.
func isPlain(b []byte) bool {
	for _, c := range b {
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// record returns id's rendering and plain flag from the given tables.
func record(chunks [][]byte, offs []uint32, id ID) (rendering []byte, plain bool) {
	off := offs[id]
	c := chunks[off>>chunkShift]
	p := int(off & chunkMask)
	h := uint64(c[p])
	if h < 0x80 {
		p++
	} else {
		var n int
		h, n = binary.Uvarint(c[p:])
		p += n
	}
	return c[p : p+int(h>>1)], h&1 == 0
}

// EncodeTriple encodes all three positions of t.
func (d *Dictionary) EncodeTriple(t rdf.Triple) (s, p, o ID) {
	return d.Encode(t.S), d.Encode(t.P), d.Encode(t.O)
}

// Lookup returns the id for t without assigning a new one. The second result
// reports whether t was present.
func (d *Dictionary) Lookup(t rdf.Term) (ID, bool) {
	var buf keyBuf
	key := t.AppendTo(buf[:0])
	d.mu.RLock()
	id, ok := d.byKey[string(key)]
	d.mu.RUnlock()
	return id, ok
}

// LookupIRI is shorthand for Lookup(rdf.NewIRI(iri)).
func (d *Dictionary) LookupIRI(iri string) (ID, bool) {
	return d.Lookup(rdf.NewIRI(iri))
}

// Decode returns the term for id, parsed back from its rendering. It panics
// if id was never assigned, which indicates corrupted engine state rather
// than bad user input.
func (d *Dictionary) Decode(id ID) rdf.Term {
	d.mu.RLock()
	chunks, offs := d.chunks, d.offs
	d.mu.RUnlock()
	if int(id) >= len(offs) {
		panic(fmt.Sprintf("dict: decode of unassigned id %d (size %d)", id, len(offs)))
	}
	b, _ := record(chunks, offs, id)
	return parseRendering(b)
}

// Size returns the number of distinct terms registered.
func (d *Dictionary) Size() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.offs)
}

// Contains reports whether t has been assigned an id.
func (d *Dictionary) Contains(t rdf.Term) bool {
	_, ok := d.Lookup(t)
	return ok
}

// View is a lock-free read snapshot of a dictionary: every id assigned
// before the view was taken renders with an offset lookup and no
// synchronization, however many terms writers append meanwhile (records
// are immutable and the tables only grow, so the snapshot's slice headers
// stay valid). An id newer than the snapshot makes the view re-snapshot
// itself once under the read lock. A View is for one goroutine; take one
// per response.
type View struct {
	d      *Dictionary
	chunks [][]byte
	offs   []uint32
}

// View returns a read snapshot of d.
func (d *Dictionary) View() *View {
	v := &View{d: d}
	v.refresh()
	return v
}

func (v *View) refresh() {
	v.d.mu.RLock()
	v.chunks, v.offs = v.d.chunks, v.d.offs
	v.d.mu.RUnlock()
}

// Render returns id's N-Triples rendering — arena memory the caller must
// not modify — and whether it is plain: printable ASCII without '"' or
// '\\', so a JSON encoder can copy it between quotes without escaping. It
// panics on an id that was never assigned, like Decode.
func (v *View) Render(id ID) (rendering []byte, plain bool) {
	if int(id) >= len(v.offs) {
		v.refresh()
		if int(id) >= len(v.offs) {
			panic(fmt.Sprintf("dict: render of unassigned id %d (size %d)", id, len(v.offs)))
		}
	}
	return record(v.chunks, v.offs, id)
}

// parseRendering inverts rdf.Term.AppendTo. The returned term's strings
// alias b wherever no unescaping is needed, which is safe for arena records
// (immutable, and kept alive by the strings that point into them).
func parseRendering(b []byte) rdf.Term {
	alias := func(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
	switch {
	case len(b) >= 2 && b[0] == '<':
		return rdf.Term{Kind: rdf.IRI, Value: alias(b[1 : len(b)-1])}
	case len(b) >= 2 && b[0] == '_':
		return rdf.Term{Kind: rdf.Blank, Value: alias(b[2:])}
	case len(b) >= 2 && b[0] == '"':
		// Every quote inside the lexical form is escaped, so the first bare
		// one closes it.
		end, escaped := 1, false
		for b[end] != '"' {
			if b[end] == '\\' {
				escaped = true
				end++
			}
			end++
		}
		t := rdf.Term{Kind: rdf.Literal, Value: alias(b[1:end])}
		if escaped {
			t.Value = unescapeLiteral(b[1:end])
		}
		switch rest := b[end+1:]; {
		case len(rest) > 0 && rest[0] == '@':
			t.Lang = alias(rest[1:])
		case len(rest) > 3:
			t.Datatype = alias(rest[3 : len(rest)-1]) // ^^<...>
		}
		return t
	}
	panic(fmt.Sprintf("dict: corrupt term rendering %q", b))
}

// unescapeLiteral undoes the N-Triples literal escapes AppendTo writes.
func unescapeLiteral(b []byte) string {
	out := make([]byte, 0, len(b))
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c == '\\' {
			i++
			switch b[i] {
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			default:
				c = b[i] // '"' and '\\'
			}
		}
		out = append(out, c)
	}
	return string(out)
}
