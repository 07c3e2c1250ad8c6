// Package segment persists a compacted base store as a single versioned,
// checksummed file whose on-disk layout IS the in-memory layout of the flat
// CSR trie arenas (internal/trie) and relation columns: every large array is
// written verbatim in native byte order at 8-byte alignment, so loading is
// an open + mmap + one cheap O(nodes) pass rebuilding set headers — not a
// multi-pass parse-and-rebuild. N server processes mapping the same segment
// share one page-cache copy.
//
// # Layout
//
//	header (32 bytes):
//	  magic "RDFSEG01" · version u32 · byte-order mark u32 (0x01020304,
//	  native) · payload length u64 · payload CRC-32C u32 · header CRC u32
//	payload (offset 32, every section 8-aligned):
//	  dict     u64 byte length + varint term count; per term: kind byte,
//	           varint-length-prefixed value (and datatype, lang for literals)
//	  triples  (versions 1 and 2 only) u64 count + count×12-byte
//	           store.Triple rows
//	  relations u64 count; per relation:
//	    meta   predicate u32 · rows u32 · distinctS u32 · distinctO u32
//	    S, O   columns (u32 rows each)
//	    SO, OS tries (see trie blob below)
//	trie blob:
//	  arity u32 · tuples i32; per level:
//	    six u64 lengths (start, vals, words, ranks, layout-bit words,
//	    bitset-node count), then (version ≥ 2) the eight u64 fields of the
//	    level's stats.Level histogram, then the start/vals/words/ranks
//	    arenas, the layout bitmap, and the per-bitset-node (base u32,
//	    nwords u32) table
//
// Version 3 drops the triple table: the relations are the store's only copy
// of the data, and their columns are sorted by (S, O). Version 2 tries are
// built under set.PolicyAdaptive (the statistics-driven layout rule) and
// carry per-level histograms; version 1 files (PolicyAuto, no histograms)
// still load, with statistics reported as unknown. Both older versions load
// with their triple table skipped; their columns are in arrival order.
//
// The dictionary is the one heap-decoded section: it must stay mutable
// (live updates register new terms). Everything else — columns and trie
// arenas — is served straight from the mapping; only the per-node set
// headers (Go slice headers) are materialized at load.
//
// The format is explicitly not portable across byte order or word size;
// the byte-order mark and version gate refuse a foreign file. That is the
// price of mmap-is-the-format, and the WAL and N-Triples remain the portable
// representations.
package segment

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"os"
	"unsafe"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/set"
	"repro/internal/store"
	"repro/internal/trie"
)

const (
	// Magic identifies a segment file.
	Magic         = "RDFSEG01"
	version       = 3
	minVersion    = 1
	byteOrderMark = 0x01020304
	headerSize    = 32
	align         = 8
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Write serializes st's base image (dictionary, relations with their
// PolicyAdaptive SO/OS tries — built now if not yet cached) to path
// atomically: temp file, fsync, rename, parent-directory fsync. A crash
// mid-write leaves any previous segment intact.
func Write(path string, st *store.Store) error {
	return atomicWriteFile(path, func(f *os.File) error { return writeTo(f, st) })
}

// writeTo streams the segment: a placeholder header, then the payload with
// a running CRC, then a seek back to stamp the real header.
func writeTo(f *os.File, st *store.Store) error {
	if _, err := f.Write(make([]byte, headerSize)); err != nil {
		return err
	}
	w := &payloadWriter{w: bufio.NewWriterSize(f, 1<<20)}

	// Dictionary, varint-encoded, as one length-prefixed blob so the loader
	// can skip-scan it without decoding twice.
	dictBytes := encodeDict(st.Dict())
	w.u64(uint64(len(dictBytes)))
	w.bytes(dictBytes)
	w.pad()

	// Relations in predicate order.
	preds := st.Predicates()
	w.u64(uint64(len(preds)))
	for _, p := range preds {
		rel := st.Relation(p)
		w.u32(p)
		w.u32(uint32(rel.Len()))
		w.u32(uint32(rel.DistinctS()))
		w.u32(uint32(rel.DistinctO()))
		w.bytes(u32Bytes(rel.S))
		w.pad()
		w.bytes(u32Bytes(rel.O))
		w.pad()
		if err := writeTrie(w, rel.TrieSO(set.PolicyAdaptive)); err != nil {
			return err
		}
		if err := writeTrie(w, rel.TrieOS(set.PolicyAdaptive)); err != nil {
			return err
		}
	}
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}

	var hdr [headerSize]byte
	copy(hdr[0:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	*(*uint32)(unsafe.Pointer(&hdr[12])) = byteOrderMark // native order on purpose
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(w.off))
	binary.LittleEndian.PutUint32(hdr[24:28], w.crc)
	binary.LittleEndian.PutUint32(hdr[28:32], crc32.Checksum(hdr[0:28], crcTable))
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	return nil
}

func writeTrie(w *payloadWriter, t *trie.Trie) error {
	levels := t.Export()
	w.u32(uint32(t.Arity()))
	w.u32(uint32(int32(t.Len())))
	for _, ld := range levels {
		w.u64(uint64(len(ld.Start)))
		w.u64(uint64(len(ld.Vals)))
		w.u64(uint64(len(ld.Words)))
		w.u64(uint64(len(ld.Ranks)))
		w.u64(uint64(len(ld.LayoutBits)))
		w.u64(uint64(len(ld.BitsetBase)))
		w.u64(ld.Stats.Nodes)
		w.u64(ld.Stats.TotalCard)
		w.u64(ld.Stats.MinCard)
		w.u64(ld.Stats.MaxCard)
		w.u64(ld.Stats.SpanSum)
		w.u64(ld.Stats.BitsetNodes)
		w.u64(ld.Stats.UintNodes)
		w.u64(ld.Stats.Flips)
		w.bytes(i32Bytes(ld.Start))
		w.pad()
		w.bytes(u32Bytes(ld.Vals))
		w.pad()
		w.bytes(u64Bytes(ld.Words))
		w.pad()
		w.bytes(i32Bytes(ld.Ranks))
		w.pad()
		w.bytes(u64Bytes(ld.LayoutBits))
		w.pad()
		w.bytes(u32Bytes(ld.BitsetBase))
		w.pad()
		w.bytes(i32Bytes(ld.BitsetNWords))
		w.pad()
	}
	return w.err
}

// payloadWriter tracks the payload offset (for alignment padding) and a
// running CRC over everything written.
type payloadWriter struct {
	w   *bufio.Writer
	off int64
	crc uint32
	err error
}

func (w *payloadWriter) bytes(p []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.w.Write(p); err != nil {
		w.err = err
		return
	}
	w.crc = crc32.Update(w.crc, crcTable, p)
	w.off += int64(len(p))
}

var zeroPad [align]byte

func (w *payloadWriter) pad() {
	if rem := w.off % align; rem != 0 {
		w.bytes(zeroPad[:align-rem])
	}
}

func (w *payloadWriter) u32(v uint32) {
	var b [4]byte
	*(*uint32)(unsafe.Pointer(&b[0])) = v
	w.bytes(b[:])
}

func (w *payloadWriter) u64(v uint64) {
	var b [8]byte
	*(*uint64)(unsafe.Pointer(&b[0])) = v
	w.bytes(b[:])
}

// Native-order byte views of typed slices. The segment is mapped back into
// the same representation, so no per-element encoding happens in either
// direction.

func u32Bytes(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

func i32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

func u64Bytes(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

func encodeDict(d *dict.Dictionary) []byte {
	n := d.Size()
	buf := binary.AppendUvarint(nil, uint64(n))
	for id := 0; id < n; id++ {
		t := d.Decode(uint32(id))
		buf = append(buf, byte(t.Kind))
		buf = binary.AppendUvarint(buf, uint64(len(t.Value)))
		buf = append(buf, t.Value...)
		if t.Kind == rdf.Literal {
			buf = binary.AppendUvarint(buf, uint64(len(t.Datatype)))
			buf = append(buf, t.Datatype...)
			buf = binary.AppendUvarint(buf, uint64(len(t.Lang)))
			buf = append(buf, t.Lang...)
		}
	}
	return buf
}
