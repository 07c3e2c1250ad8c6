package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"unsafe"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/set"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/trie"
)

// Loaded is an open segment: the assembled store plus the mapping backing
// its arenas.
type Loaded struct {
	// Store serves queries directly over the mapped arenas.
	Store *store.Store
	// Bytes is the segment file size.
	Bytes int64
	// Mapped reports whether the payload is an mmap view (false = the
	// heap-read fallback on platforms without mmap or when mapping failed).
	Mapped bool

	m mapping
}

// Close releases the mapping. The Store and everything derived from it
// (tries, engines, cursors) become invalid — Close is for tests and
// controlled teardown; a serving process keeps the mapping for its
// lifetime and lets process exit clean up.
func (l *Loaded) Close() error {
	return l.m.close()
}

// Open maps the segment at path and assembles a Store over it. The payload
// checksum is verified up front (one sequential pass over the mapping —
// still far cheaper than a parse), so a torn or bit-rotted segment fails
// loudly here rather than serving garbage.
func Open(path string) (*Loaded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerSize {
		return nil, fmt.Errorf("segment: %s: file too small (%d bytes)", path, size)
	}
	m, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	advise(m)
	l, err := open(path, m)
	if err != nil {
		m.close()
		return nil, err
	}
	return l, nil
}

func open(path string, m mapping) (*Loaded, error) {
	data := m.data
	hdr := data[:headerSize]
	if string(hdr[0:8]) != Magic {
		return nil, fmt.Errorf("segment: %s: bad magic %q", path, hdr[0:8])
	}
	if crc32.Checksum(hdr[0:28], crcTable) != binary.LittleEndian.Uint32(hdr[28:32]) {
		return nil, fmt.Errorf("segment: %s: header checksum mismatch", path)
	}
	fileVersion := binary.LittleEndian.Uint32(hdr[8:12])
	if fileVersion < minVersion || fileVersion > version {
		return nil, fmt.Errorf("segment: %s: unsupported version %d (want %d..%d)",
			path, fileVersion, minVersion, version)
	}
	if *(*uint32)(unsafe.Pointer(&hdr[12])) != byteOrderMark {
		return nil, fmt.Errorf("segment: %s: foreign byte order", path)
	}
	payloadLen := binary.LittleEndian.Uint64(hdr[16:24])
	if headerSize+payloadLen > uint64(len(data)) {
		return nil, fmt.Errorf("segment: %s: truncated (payload %d bytes, file %d)", path, payloadLen, len(data))
	}
	payload := data[headerSize : headerSize+payloadLen]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[24:28]) {
		return nil, fmt.Errorf("segment: %s: payload checksum mismatch", path)
	}

	r := &payloadReader{data: payload}
	dictLen := r.u64()
	d, err := decodeDict(r.take(int(dictLen)))
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	r.pad()

	if fileVersion < 3 {
		// The triple table the relations duplicate: skipped.
		r.take(int(r.u64()) * int(unsafe.Sizeof(store.Triple{})))
		r.pad()
	}

	nRels := int(r.u64())
	rels := make([]store.RelationData, 0, nRels)
	for i := 0; i < nRels; i++ {
		var rd store.RelationData
		rd.Predicate = r.u32()
		rows := int(r.u32())
		rd.DistinctS = int(r.u32())
		rd.DistinctO = int(r.u32())
		rd.S = viewU32(r.take(rows * 4))
		r.pad()
		rd.O = viewU32(r.take(rows * 4))
		r.pad()
		if rd.SO, err = readTrie(r, fileVersion); err != nil {
			return nil, fmt.Errorf("segment: %s: relation %d SO: %w", path, i, err)
		}
		if rd.OS, err = readTrie(r, fileVersion); err != nil {
			return nil, fmt.Errorf("segment: %s: relation %d OS: %w", path, i, err)
		}
		if fileVersion >= 2 {
			rd.Policy = set.PolicyAdaptive
		}
		rels = append(rels, rd)
	}
	if r.err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, r.err)
	}
	return &Loaded{
		Store:  store.FromParts(d, rels),
		Bytes:  int64(len(data)),
		Mapped: m.mapped,
		m:      m,
	}, nil
}

func readTrie(r *payloadReader, fileVersion uint32) (*trie.Trie, error) {
	arity := int(r.u32())
	tuples := int(int32(r.u32()))
	if r.err != nil {
		return nil, r.err
	}
	if arity <= 0 || arity > 3 {
		return nil, fmt.Errorf("implausible trie arity %d", arity)
	}
	levels := make([]trie.LevelData, arity)
	for l := range levels {
		startLen := int(r.u64())
		valsLen := int(r.u64())
		wordsLen := int(r.u64())
		ranksLen := int(r.u64())
		layoutLen := int(r.u64())
		bitsetN := int(r.u64())
		ld := &levels[l]
		if fileVersion >= 2 {
			ld.Stats = stats.Level{
				Nodes:       r.u64(),
				TotalCard:   r.u64(),
				MinCard:     r.u64(),
				MaxCard:     r.u64(),
				SpanSum:     r.u64(),
				BitsetNodes: r.u64(),
				UintNodes:   r.u64(),
				Flips:       r.u64(),
			}
		}
		ld.Start = viewI32(r.take(startLen * 4))
		r.pad()
		ld.Vals = viewU32(r.take(valsLen * 4))
		r.pad()
		ld.Words = viewU64(r.take(wordsLen * 8))
		r.pad()
		ld.Ranks = viewI32(r.take(ranksLen * 4))
		r.pad()
		ld.LayoutBits = viewU64(r.take(layoutLen * 8))
		r.pad()
		ld.BitsetBase = viewU32(r.take(bitsetN * 4))
		r.pad()
		ld.BitsetNWords = viewI32(r.take(bitsetN * 4))
		r.pad()
	}
	if r.err != nil {
		return nil, r.err
	}
	return trie.FromLevels(tuples, levels)
}

// payloadReader cursors over the mapped payload; take returns zero-copy
// subslices with bounds checking folded into one error flag.
type payloadReader struct {
	data []byte
	off  int
	err  error
}

func (r *payloadReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.err = fmt.Errorf("section of %d bytes at offset %d overruns payload (%d bytes)", n, r.off, len(r.data))
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *payloadReader) pad() {
	if rem := r.off % align; rem != 0 {
		r.take(align - rem)
	}
}

func (r *payloadReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return *(*uint32)(unsafe.Pointer(&b[0]))
}

func (r *payloadReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return *(*uint64)(unsafe.Pointer(&b[0]))
}

// Typed zero-copy views over mapped bytes. The writer emitted these
// sections at 8-byte alignment from slices of the same element types, so
// the pointer casts are exact inversions.

func viewU32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func viewI32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func viewU64(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func decodeDict(b []byte) (*dict.Dictionary, error) {
	d := dict.New()
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, fmt.Errorf("bad dictionary header")
	}
	b = b[w:]
	readString := func() (string, error) {
		l, w := binary.Uvarint(b)
		if w <= 0 || l > uint64(len(b)-w) {
			return "", fmt.Errorf("bad dictionary string")
		}
		s := string(b[w : w+int(l)])
		b = b[w+int(l):]
		return s, nil
	}
	for i := uint64(0); i < n; i++ {
		if len(b) == 0 {
			return nil, fmt.Errorf("dictionary truncated at term %d", i)
		}
		kind := rdf.TermKind(b[0])
		b = b[1:]
		if kind > rdf.Blank {
			return nil, fmt.Errorf("term %d has invalid kind %d", i, kind)
		}
		t := rdf.Term{Kind: kind}
		var err error
		if t.Value, err = readString(); err != nil {
			return nil, err
		}
		if kind == rdf.Literal {
			if t.Datatype, err = readString(); err != nil {
				return nil, err
			}
			if t.Lang, err = readString(); err != nil {
				return nil, err
			}
		}
		if got := d.Encode(t); got != uint32(i) {
			return nil, fmt.Errorf("duplicate term %v (id %d vs %d)", t, got, i)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing dictionary bytes", len(b))
	}
	return d, nil
}
