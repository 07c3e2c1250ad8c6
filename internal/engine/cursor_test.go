package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/query"
)

// rowsOf builds a generator emitting n single-column rows 0..n-1.
func rowsOf(ctx context.Context, n int) Cursor {
	return NewGenerator(ctx, []string{"x"}, func(gctx context.Context, out *Emitter) error {
		for i := 0; i < n; i++ {
			if err := gctx.Err(); err != nil {
				return err
			}
			if err := out.Emit([]uint32{uint32(i)}); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestGeneratorStreamsAllRowsInOrder(t *testing.T) {
	c := rowsOf(nil, 1000)
	defer c.Close()
	for i := 0; i < 1000; i++ {
		row, err := c.Next()
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if row[0] != uint32(i) {
			t.Fatalf("row %d = %d, out of order", i, row[0])
		}
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("after last row: %v, want io.EOF", err)
	}
	if c.Truncated() {
		t.Fatal("bare generator reported Truncated")
	}
}

func TestGeneratorPropagatesProducerError(t *testing.T) {
	boom := errors.New("boom")
	c := NewGenerator(nil, []string{"x"}, func(ctx context.Context, out *Emitter) error {
		if err := out.Emit([]uint32{1}); err != nil {
			return err
		}
		return boom
	})
	defer c.Close()
	if _, err := c.Next(); err != nil {
		t.Fatalf("first row: %v", err)
	}
	if _, err := c.Next(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestGeneratorCloseStopsBlockedProducer: a consumer that walks away after
// one row must unblock a producer stuck on a full channel.
func TestGeneratorCloseStopsBlockedProducer(t *testing.T) {
	stopped := make(chan struct{})
	c := NewGenerator(nil, []string{"x"}, func(ctx context.Context, out *Emitter) error {
		defer close(stopped)
		for i := 0; ; i++ {
			if err := out.Emit([]uint32{uint32(i)}); err != nil {
				return err
			}
		}
	})
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("producer did not stop after Close")
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("Next after Close = %v, want io.EOF", err)
	}
}

func TestLimitExactTruncation(t *testing.T) {
	for _, tc := range []struct {
		total, max, wantRows int
		wantTrunc            bool
	}{
		{100, 10, 10, true},
		{100, 99, 99, true},
		{100, 100, 100, false}, // exact fit: the probe proves completeness
		{100, 101, 100, false},
		{0, 5, 0, false},
	} {
		c := Limit(rowsOf(nil, tc.total), 0, tc.max)
		got := 0
		for {
			_, err := c.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got++
		}
		if got != tc.wantRows || c.Truncated() != tc.wantTrunc {
			t.Errorf("total=%d max=%d: rows=%d truncated=%v, want %d/%v",
				tc.total, tc.max, got, c.Truncated(), tc.wantRows, tc.wantTrunc)
		}
		c.Close()
	}
}

func TestLimitOffset(t *testing.T) {
	c := Limit(rowsOf(nil, 20), 15, 3)
	res, err := Collect(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 || res.Rows[0][0] != 15 || !res.Truncated {
		t.Fatalf("offset+cap: %+v", res)
	}
	// Offset past the end: empty, not truncated.
	res, err = Collect(Limit(rowsOf(nil, 20), 30, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 || res.Truncated {
		t.Fatalf("offset past end: %+v", res)
	}
}

func TestCollectPassesThroughOpenError(t *testing.T) {
	boom := errors.New("open failed")
	if _, err := Collect(nil, boom); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestGeneratorHonoursParentContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := rowsOf(ctx, 1<<30)
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	for i := 0; ; i++ {
		_, err := c.Next()
		if errors.Is(err, context.Canceled) {
			break
		}
		if err != nil {
			t.Fatalf("err = %v", err)
		}
		if i > BlockRows*(genChanDepth+2) {
			t.Fatalf("drained %d rows after cancel without seeing the error", i)
		}
	}
	c.Close()
}

func TestTickerPollsOnStride(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tick := NewTicker(ctx)
	seen := false
	for i := 0; i < cancelStride+1; i++ {
		if err := tick.Check(); err != nil {
			seen = true
			break
		}
	}
	if !seen {
		t.Fatal("ticker never surfaced the cancelled context within one stride")
	}
	nilTick := NewTicker(nil)
	for i := 0; i < cancelStride*2; i++ {
		if err := nilTick.Check(); err != nil {
			t.Fatalf("nil-context ticker returned %v", err)
		}
	}
}

func TestExecuteHelperMatchesCollect(t *testing.T) {
	// A stub engine over the generator, to pin the Execute = Collect(Open)
	// contract without pulling a real engine package into this one.
	e := stubEngine{rows: 7}
	res, err := Execute(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 || fmt.Sprint(res.Vars) != "[x]" {
		t.Fatalf("res = %+v", res)
	}
}

type stubEngine struct{ rows int }

func (s stubEngine) Name() string { return "stub" }
func (s stubEngine) Open(_ *query.BGP, opts ExecOpts) (Cursor, error) {
	return Limit(rowsOf(opts.Ctx, s.rows), opts.Offset, opts.MaxRows), nil
}
