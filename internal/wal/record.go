package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/rdf"
)

// Record types (payload byte 0).
const (
	// recPatch is a patch batch: uvarint op count, then per op a flags byte
	// (bit0 = delete) followed by the subject, predicate, and object terms
	// (see appendTerm for the term encoding).
	recPatch byte = 1
	// recSeal is the clean-shutdown marker; no payload beyond the type byte.
	recSeal byte = 2
)

// Op is one logged operation. It mirrors live.Op structurally (wal cannot
// import live: live imports wal's types through its Durability hook).
type Op struct {
	// Delete marks a deletion; otherwise the op is an insert.
	Delete bool
	// Triple is the statement inserted or deleted.
	Triple rdf.Triple
}

// Batch is one logged patch batch — the unit of atomicity: a batch is
// replayed entirely or (if its frame is torn) not at all.
type Batch struct {
	Ops []Op
}

// Term encoding: a kind byte whose low 2 bits are the rdf.TermKind, bit 2 =
// has datatype, bit 3 = has lang; then the value as a uvarint-length-
// prefixed string, followed by the datatype and lang strings when their
// bits are set, so an empty datatype or lang costs nothing.
const (
	termKindMask    = 0b0011
	termHasDatatype = 0b0100
	termHasLang     = 0b1000
)

const opFlagDelete = 0b0001

var errBadRecord = errors.New("wal: malformed record")

// encodeBatch serializes b as a recPatch payload.
func encodeBatch(b Batch) []byte {
	// Size estimate: type byte + count + per op ~1 flag byte + 3 terms.
	n := 1 + binary.MaxVarintLen64
	for _, op := range b.Ops {
		n += 1 + termSize(op.Triple.S) + termSize(op.Triple.P) + termSize(op.Triple.O)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, recPatch)
	buf = binary.AppendUvarint(buf, uint64(len(b.Ops)))
	for _, op := range b.Ops {
		var flags byte
		if op.Delete {
			flags |= opFlagDelete
		}
		buf = append(buf, flags)
		buf = appendTerm(buf, op.Triple.S)
		buf = appendTerm(buf, op.Triple.P)
		buf = appendTerm(buf, op.Triple.O)
	}
	return buf
}

func termSize(t rdf.Term) int {
	n := 1 + binary.MaxVarintLen32 + len(t.Value)
	if t.Datatype != "" {
		n += binary.MaxVarintLen32 + len(t.Datatype)
	}
	if t.Lang != "" {
		n += binary.MaxVarintLen32 + len(t.Lang)
	}
	return n
}

func appendTerm(buf []byte, t rdf.Term) []byte {
	kind := byte(t.Kind) & termKindMask
	if t.Datatype != "" {
		kind |= termHasDatatype
	}
	if t.Lang != "" {
		kind |= termHasLang
	}
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(len(t.Value)))
	buf = append(buf, t.Value...)
	if t.Datatype != "" {
		buf = binary.AppendUvarint(buf, uint64(len(t.Datatype)))
		buf = append(buf, t.Datatype...)
	}
	if t.Lang != "" {
		buf = binary.AppendUvarint(buf, uint64(len(t.Lang)))
		buf = append(buf, t.Lang...)
	}
	return buf
}

// decodeBatch parses a recPatch payload (after the type byte). It never
// panics on malformed input — every length is validated against the
// remaining buffer before use.
func decodeBatch(p []byte) (Batch, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return Batch{}, errBadRecord
	}
	p = p[n:]
	// Each op is at least 1 flag byte + 3 minimal terms (2 bytes each);
	// reject counts the remaining bytes cannot possibly hold so a corrupted
	// count cannot drive a huge allocation.
	if count > uint64(len(p))/7 {
		return Batch{}, fmt.Errorf("%w: op count %d exceeds payload", errBadRecord, count)
	}
	b := Batch{Ops: make([]Op, 0, count)}
	for i := uint64(0); i < count; i++ {
		if len(p) == 0 {
			return Batch{}, errBadRecord
		}
		flags := p[0]
		p = p[1:]
		var op Op
		op.Delete = flags&opFlagDelete != 0
		var err error
		if op.Triple.S, p, err = decodeTerm(p); err != nil {
			return Batch{}, err
		}
		if op.Triple.P, p, err = decodeTerm(p); err != nil {
			return Batch{}, err
		}
		if op.Triple.O, p, err = decodeTerm(p); err != nil {
			return Batch{}, err
		}
		b.Ops = append(b.Ops, op)
	}
	if len(p) != 0 {
		return Batch{}, fmt.Errorf("%w: %d trailing bytes", errBadRecord, len(p))
	}
	return b, nil
}

func decodeTerm(p []byte) (rdf.Term, []byte, error) {
	if len(p) == 0 {
		return rdf.Term{}, nil, errBadRecord
	}
	kind := p[0]
	p = p[1:]
	var t rdf.Term
	t.Kind = rdf.TermKind(kind & termKindMask)
	if t.Kind > rdf.Blank {
		return rdf.Term{}, nil, fmt.Errorf("%w: term kind %d", errBadRecord, t.Kind)
	}
	var err error
	if t.Value, p, err = decodeString(p); err != nil {
		return rdf.Term{}, nil, err
	}
	if kind&termHasDatatype != 0 {
		if t.Datatype, p, err = decodeString(p); err != nil {
			return rdf.Term{}, nil, err
		}
	}
	if kind&termHasLang != 0 {
		if t.Lang, p, err = decodeString(p); err != nil {
			return rdf.Term{}, nil, err
		}
	}
	return t, p, nil
}

func decodeString(p []byte) (string, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return "", nil, errBadRecord
	}
	return string(p[w : w+int(n)]), p[w+int(n):], nil
}
