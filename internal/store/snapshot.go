package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// Snapshot format: a compact binary serialization of a Store (dictionary +
// encoded triples) so large datasets load without re-parsing N-Triples or
// re-running dictionary encoding. Layout (all integers unsigned varints):
//
//	magic "RDFSNAP1"
//	term count
//	  per term: kind byte, value, datatype, lang (length-prefixed strings;
//	  datatype/lang only for literals)
//	triple count
//	  per triple: S, P, O ids
//
// Tries and statistics are rebuilt on load — they are derived state.
const snapshotMagic = "RDFSNAP1"

// WriteSnapshot serializes the store to w.
func (s *Store) WriteSnapshot(w io.Writer) error {
	return WriteSnapshotData(w, s.dict, s.triples)
}

// WriteSnapshotData serializes an encoded triple table plus its dictionary
// in the snapshot format, without requiring an assembled Store. The
// live-update layer uses it to persist a delta overlay (base minus
// tombstones plus inserts) directly. The dictionary may keep growing
// concurrently — ids are append-only, so the size captured here stays
// decodable — but every triple must reference only ids assigned before the
// call.
func WriteSnapshotData(w io.Writer, d *dict.Dictionary, triples []Triple) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	writeString := func(str string) error {
		if err := writeUvarint(uint64(len(str))); err != nil {
			return err
		}
		_, err := bw.WriteString(str)
		return err
	}

	n := d.Size()
	if err := writeUvarint(uint64(n)); err != nil {
		return err
	}
	for id := 0; id < n; id++ {
		t := d.Decode(uint32(id))
		if err := bw.WriteByte(byte(t.Kind)); err != nil {
			return err
		}
		if err := writeString(t.Value); err != nil {
			return err
		}
		if t.Kind == rdf.Literal {
			if err := writeString(t.Datatype); err != nil {
				return err
			}
			if err := writeString(t.Lang); err != nil {
				return err
			}
		}
	}
	if err := writeUvarint(uint64(len(triples))); err != nil {
		return err
	}
	for _, tr := range triples {
		if err := writeUvarint(uint64(tr.S)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(tr.P)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(tr.O)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AtomicWriteFile writes a file via write-to-temp, fsync, rename. write
// receives the temporary file; on any error the temporary is removed and
// path is untouched.
func AtomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// The rename itself is only durable once the directory entry is
	// fsynced; without it a power loss can roll path back to the old file
	// (or to nothing) even though the data blocks survived.
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so preceding renames and creates in it survive
// power loss. Filesystems that do not support fsync on directories
// (returning EINVAL/ENOTSUP) are treated as success — there is nothing more
// the caller can do there — but real I/O errors are reported.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("store: fsync %s: %w", dir, err)
	}
	return nil
}

// ReadSnapshot deserializes a store written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (*Store, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("store: reading snapshot magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("store: not a snapshot (magic %q)", magic)
	}
	readString := func() (string, error) {
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		if l > 1<<24 {
			return "", fmt.Errorf("store: implausible string length %d", l)
		}
		buf := make([]byte, l)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	b := NewBuilder()
	nTerms, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: reading term count: %w", err)
	}
	terms := make([]rdf.Term, nTerms)
	for i := range terms {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("store: reading term %d: %w", i, err)
		}
		if rdf.TermKind(kind) > rdf.Blank {
			return nil, fmt.Errorf("store: term %d has invalid kind %d", i, kind)
		}
		t := rdf.Term{Kind: rdf.TermKind(kind)}
		if t.Value, err = readString(); err != nil {
			return nil, fmt.Errorf("store: reading term %d value: %w", i, err)
		}
		if t.Kind == rdf.Literal {
			if t.Datatype, err = readString(); err != nil {
				return nil, err
			}
			if t.Lang, err = readString(); err != nil {
				return nil, err
			}
		}
		// Re-register in id order so ids are preserved exactly.
		if got := b.dict.Encode(t); got != uint32(i) {
			return nil, fmt.Errorf("store: duplicate term %v in snapshot (id %d vs %d)", t, got, i)
		}
		terms[i] = t
	}

	nTriples, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: reading triple count: %w", err)
	}
	readID := func() (uint32, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, err
		}
		if v >= nTerms {
			return 0, fmt.Errorf("store: triple references unknown term id %d", v)
		}
		return uint32(v), nil
	}
	for i := uint64(0); i < nTriples; i++ {
		var tr Triple
		if tr.S, err = readID(); err != nil {
			return nil, fmt.Errorf("store: triple %d: %w", i, err)
		}
		if tr.P, err = readID(); err != nil {
			return nil, fmt.Errorf("store: triple %d: %w", i, err)
		}
		if tr.O, err = readID(); err != nil {
			return nil, fmt.Errorf("store: triple %d: %w", i, err)
		}
		if !b.seen[tr] {
			b.seen[tr] = true
			b.triples = append(b.triples, tr)
		}
	}
	return b.Build(), nil
}
