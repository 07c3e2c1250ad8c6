package engine

// BlockRows is the fixed row capacity of a Block: large enough that the
// per-block costs (a channel hand-off, a virtual call per layer, a span
// update) vanish per row, small enough that a closed or capped cursor
// strands at most a few hundred rows of work.
const BlockRows = 128

// Block is the unit rows travel in from the joiner to the socket: up to
// BlockRows dictionary-encoded rows of one width, row-major in one reusable
// []uint32. The zero Block is empty and owns no buffer.
//
// A Block is filled by Cursor.NextBlock. Between two NextBlock calls the
// caller owns its rows outright and may rewrite them in place — Filter,
// Truncate and friends are how the layers above the joiner (row caps,
// ownership filters, DISTINCT, tombstones) drop rows without copying the
// ones that stay.
type Block struct {
	stride int
	n      int
	data   []uint32 // row i is data[i*stride : (i+1)*stride]
}

// Len returns the number of rows.
func (b *Block) Len() int { return b.n }

// Row returns row i. It aliases the block: valid until the block is next
// passed to NextBlock, and capped so appending to it cannot run into the
// following row.
func (b *Block) Row(i int) []uint32 {
	o := i * b.stride
	return b.data[o : o+b.stride : o+b.stride]
}

// Reset drops every row and keeps the buffer.
func (b *Block) Reset() { b.n = 0 }

// Truncate keeps the first n rows.
func (b *Block) Truncate(n int) {
	if n < b.n {
		b.n = n
	}
}

// DropFront removes the first k rows.
func (b *Block) DropFront(k int) {
	if k >= b.n {
		b.n = 0
		return
	}
	copy(b.data, b.data[k*b.stride:b.n*b.stride])
	b.n -= k
}

// Filter keeps the rows keep accepts, in order, compacting in place.
func (b *Block) Filter(keep func(row []uint32) bool) {
	w := 0
	for i := 0; i < b.n; i++ {
		row := b.Row(i)
		if !keep(row) {
			continue
		}
		if w != i {
			copy(b.data[w*b.stride:], row)
		}
		w++
	}
	b.n = w
}

// DropLastColumn narrows every row by its last column, in place.
func (b *Block) DropLastColumn() {
	s := b.stride - 1
	for i := 1; i < b.n; i++ {
		copy(b.data[i*s:(i+1)*s], b.data[i*b.stride:])
	}
	b.stride = s
}

// init readies b for rows of the given stride, keeping its buffer when that
// is large enough.
func (b *Block) init(stride int) {
	b.stride, b.n = stride, 0
	if need := BlockRows * stride; cap(b.data) < need {
		b.data = make([]uint32, need)
	} else {
		b.data = b.data[:cap(b.data)]
	}
}

// FillBlock is the one adapter from a per-row source to the block contract,
// for cursors that produce rows one at a time by nature (a remote frame
// stream, a test fake): it resets b and copies rows from next into it until
// the block is full or next fails. A failure after at least one row is held
// back — next must return it again on the following call, as cursors do
// with their terminal error.
func FillBlock(b *Block, next func() ([]uint32, error)) error {
	b.n = 0
	for b.n < BlockRows {
		row, err := next()
		if err != nil {
			if b.n > 0 {
				return nil
			}
			return err
		}
		if b.n == 0 {
			b.init(len(row))
		}
		copy(b.data[b.n*b.stride:], row)
		b.n++
	}
	return nil
}

// WithNext completes a BlockCursor into a Cursor by adding the per-row Next
// adapter (a BlockCursor that already is a Cursor is returned as is). Every
// block the adapter pulls is a fresh one that is never handed back for
// recycling, so the rows Next returns stay valid — and the caller's to
// keep — for as long as the caller holds them.
func WithNext(c BlockCursor) Cursor {
	if full, ok := c.(Cursor); ok {
		return full
	}
	return &rowCursor{BlockCursor: c}
}

type rowCursor struct {
	BlockCursor
	blk Block
	i   int
}

func (r *rowCursor) Next() ([]uint32, error) {
	for r.i >= r.blk.n {
		r.blk, r.i = Block{}, 0
		if err := r.BlockCursor.NextBlock(&r.blk); err != nil {
			return nil, err
		}
	}
	row := r.blk.Row(r.i)
	r.i++
	return row, nil
}

// Close also drops the rows Next had buffered: after Close, Next reports
// the end of the stream.
func (r *rowCursor) Close() error {
	r.blk, r.i = Block{}, 0
	return r.BlockCursor.Close()
}

// AppendRowKey appends row's fixed-width little-endian encoding to dst: the
// repository-wide row key. Building it in a reused buffer and probing with
// m[string(key)] keeps map lookups allocation-free; only an insert pays for
// a key string.
func AppendRowKey(dst []byte, row []uint32) []byte {
	for _, v := range row {
		dst = AppendRowKeyCol(dst, v)
	}
	return dst
}

// AppendRowKeyCol appends one column's fixed-width little-endian encoding
// to a row-key buffer (for keys over a subset of columns).
func AppendRowKeyCol(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// RowSet is the streaming DISTINCT every engine and merge layer shares: a
// set of rows keyed by AppendRowKey. The zero value is ready to use.
type RowSet struct {
	seen map[string]struct{}
	key  []byte
}

// Add inserts row and reports whether it was new. A duplicate allocates
// nothing.
func (s *RowSet) Add(row []uint32) bool {
	s.key = AppendRowKey(s.key[:0], row)
	if _, dup := s.seen[string(s.key)]; dup {
		return false
	}
	if s.seen == nil {
		s.seen = make(map[string]struct{})
	}
	s.seen[string(s.key)] = struct{}{}
	return true
}
