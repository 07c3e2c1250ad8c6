package engine

import (
	"context"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// countingRows is rowsOf with a counter of rows the producer got to emit,
// and no context polling of its own: only the Emitter stops it.
func countingRows(n int, produced *atomic.Int64) Cursor {
	return NewGenerator(nil, []string{"x", "y"}, func(_ context.Context, out *Emitter) error {
		for i := 0; i < n; i++ {
			row := out.Slot()
			row[0], row[1] = uint32(i), uint32(2*i)
			if err := out.Push(); err != nil {
				return err
			}
			produced.Add(1)
		}
		return nil
	})
}

// waitGoroutines polls until the goroutine count is back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNextRowsSurviveLaterCalls: a Next consumer owns its rows — rows kept
// across calls are unchanged at the end, however many blocks the producer
// recycled meanwhile. (The same stream read through NextBlock with one
// reused Block does recycle, which is what makes this worth pinning.)
func TestNextRowsSurviveLaterCalls(t *testing.T) {
	const n = 20 * BlockRows
	var produced atomic.Int64
	for _, c := range []Cursor{
		countingRows(n, &produced),
		Limit(countingRows(2*n, &produced), 0, n),
	} {
		var kept [][]uint32
		for {
			row, err := c.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, row)
		}
		c.Close()
		if len(kept) != n {
			t.Fatalf("%d rows, want %d", len(kept), n)
		}
		for i, row := range kept {
			if row[0] != uint32(i) || row[1] != uint32(2*i) {
				t.Fatalf("retained row %d changed to %v", i, row)
			}
		}
	}
}

// TestNextBlockRecyclesBuffers: a NextBlock consumer that passes the same
// Block back makes the stream allocation-free in steady state.
func TestNextBlockRecyclesBuffers(t *testing.T) {
	const n = 200 * BlockRows
	drain := func() {
		var produced atomic.Int64
		c := countingRows(n, &produced)
		defer c.Close()
		var blk Block
		rows := 0
		for {
			err := c.NextBlock(&blk)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if blk.Len() == 0 || blk.Len() > BlockRows || blk.stride != 2 {
				t.Fatalf("block of %d rows, stride %d", blk.Len(), blk.stride)
			}
			for i := 0; i < blk.Len(); i++ {
				if row := blk.Row(i); row[0] != uint32(rows+i) || row[1] != 2*uint32(rows+i) {
					t.Fatalf("row %d = %v", rows+i, row)
				}
			}
			rows += blk.Len()
		}
		if rows != n {
			t.Fatalf("%d rows, want %d", rows, n)
		}
	}
	if perRow := testing.AllocsPerRun(3, drain) / n; perRow > 0.01 {
		t.Fatalf("%.4f allocs/row draining through one reused Block, want ~0", perRow)
	}
}

// TestEarlyStopBoundsProducer: closing mid-stream, and hitting a row cap,
// both stop the producer within the blocks already in flight — it never
// runs on to the end — and leave no goroutine behind.
func TestEarlyStopBoundsProducer(t *testing.T) {
	const total = 1 << 20
	// What may exist beyond the rows the consumer took: the blocks queued in
	// the channel, the one being filled, and the one the consumer holds.
	const slack = (genChanDepth + 2) * BlockRows

	t.Run("close", func(t *testing.T) {
		base := runtime.NumGoroutine()
		var produced atomic.Int64
		c := countingRows(total, &produced)
		var blk Block
		if err := c.NextBlock(&blk); err != nil {
			t.Fatal(err)
		}
		c.Close()
		waitGoroutines(t, base)
		if got := produced.Load(); got > int64(blk.Len()+slack) {
			t.Fatalf("producer emitted %d rows after a close at %d", got, blk.Len())
		}
		if err := c.NextBlock(&blk); err != io.EOF || blk.Len() != 0 {
			t.Fatalf("NextBlock after Close = %v with %d rows, want io.EOF and none", err, blk.Len())
		}
	})

	t.Run("limit", func(t *testing.T) {
		base := runtime.NumGoroutine()
		for _, limit := range []int{1, BlockRows - 1, BlockRows, 3*BlockRows + 5} {
			var produced atomic.Int64
			c := Limit(countingRows(total, &produced), 0, limit)
			var blk Block
			rows := 0
			for {
				err := c.NextBlock(&blk)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				rows += blk.Len()
			}
			// No Close: reaching the cap must stop the producer by itself.
			waitGoroutines(t, base)
			if rows != limit || !c.Truncated() {
				t.Fatalf("limit %d: %d rows, truncated=%v", limit, rows, c.Truncated())
			}
			if got := produced.Load(); got > int64(limit+BlockRows+slack) {
				t.Fatalf("limit %d: producer emitted %d rows", limit, got)
			}
			c.Close()
		}
	})
}

func TestBlockInPlaceEdits(t *testing.T) {
	fill := func(n int) *Block {
		b := &Block{}
		i := 0
		if err := FillBlock(b, func() ([]uint32, error) {
			if i == n {
				return nil, io.EOF
			}
			i++
			return []uint32{uint32(i), uint32(10 * i), uint32(100 * i)}, nil
		}); err != nil {
			t.Fatal(err)
		}
		return b
	}
	col0 := func(b *Block) []uint32 {
		var out []uint32
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i)[0])
		}
		return out
	}
	eq := func(got []uint32, want ...uint32) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	b := fill(6)
	b.Filter(func(row []uint32) bool { return row[0]%2 == 0 })
	if !eq(col0(b), 2, 4, 6) || b.Row(2)[2] != 600 {
		t.Fatalf("Filter: %v", col0(b))
	}
	b.DropLastColumn()
	if b.stride != 2 || !eq(col0(b), 2, 4, 6) || b.Row(1)[1] != 40 {
		t.Fatalf("DropLastColumn: stride %d, %v", b.stride, col0(b))
	}
	b.DropFront(1)
	if !eq(col0(b), 4, 6) {
		t.Fatalf("DropFront: %v", col0(b))
	}
	b.Truncate(1)
	if !eq(col0(b), 4) {
		t.Fatalf("Truncate: %v", col0(b))
	}
	b.DropFront(5)
	if b.Len() != 0 {
		t.Fatalf("DropFront past the end left %d rows", b.Len())
	}

	// A row is capped: appending to it must not spill into its neighbour.
	b = fill(2)
	_ = append(b.Row(0), 999)
	if b.Row(1)[0] != 2 {
		t.Fatalf("append to row 0 overwrote row 1: %v", b.Row(1))
	}

	// FillBlock holds a mid-block failure back until the rows are out.
	calls := 0
	src := func() ([]uint32, error) {
		calls++
		if calls > 3 {
			return nil, io.ErrUnexpectedEOF
		}
		return []uint32{uint32(calls)}, nil
	}
	var fb Block
	if err := FillBlock(&fb, src); err != nil || fb.Len() != 3 {
		t.Fatalf("FillBlock = %v with %d rows, want 3 rows first", err, fb.Len())
	}
	if err := FillBlock(&fb, src); err != io.ErrUnexpectedEOF || fb.Len() != 0 {
		t.Fatalf("FillBlock = %v with %d rows, want the held-back error", err, fb.Len())
	}
}

func TestRowSetAndKeys(t *testing.T) {
	var s RowSet
	if !s.Add([]uint32{1, 2}) || s.Add([]uint32{1, 2}) || !s.Add([]uint32{2, 1}) || !s.Add([]uint32{1}) {
		t.Fatal("RowSet.Add misreports membership")
	}
	row := []uint32{7, 1 << 31, 0}
	if got := AppendRowKey(nil, row); string(got) != "\x07\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00" {
		t.Fatalf("AppendRowKey = %q", got)
	}
	// A probe of a reused key buffer, hit or miss, allocates nothing.
	var key []byte
	key = AppendRowKey(key, row)
	m := map[string]int{string(key): 1}
	other := []uint32{8, 8, 8}
	if n := testing.AllocsPerRun(100, func() {
		key = AppendRowKey(key[:0], row)
		_ = m[string(key)]
		key = AppendRowKey(key[:0], other)
		_ = m[string(key)]
		s.Add(row[:2])
	}); n != 0 {
		t.Fatalf("%v allocs per probe, want 0", n)
	}
}
