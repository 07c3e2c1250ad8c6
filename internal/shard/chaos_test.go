package shard

// Race and chaos tests for the scatter-gather merge cursor, with fault
// injection at the shard-cursor seam: one shard artificially slow, one
// failing mid-stream. The whole package runs under -race in CI, so the
// drain machinery's synchronization is exercised here too.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// engineCursor shortens the fault-injected open signatures below.
type engineCursor = engine.Cursor

// fakeCursor is a scripted shard cursor: emits total rows, optionally
// sleeping per row, optionally failing after failAfter rows. It honours its
// context like a real engine cursor and records whether it was closed.
type fakeCursor struct {
	ctx       context.Context
	total     int
	perRow    time.Duration
	failAfter int // -1: never fail
	emitted   int
	closed    atomic.Bool
}

var errBoom = errors.New("shard blew up mid-stream")

func (c *fakeCursor) Vars() []string { return []string{"x"} }

func (c *fakeCursor) Next() ([]uint32, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	if c.failAfter >= 0 && c.emitted >= c.failAfter {
		return nil, errBoom
	}
	if c.emitted >= c.total {
		return nil, io.EOF
	}
	if c.perRow > 0 {
		select {
		case <-time.After(c.perRow):
		case <-c.ctx.Done():
			return nil, c.ctx.Err()
		}
	}
	c.emitted++
	return []uint32{uint32(c.emitted)}, nil
}

func (c *fakeCursor) NextBlock(b *engine.Block) error { return engine.FillBlock(b, c.Next) }

func (c *fakeCursor) Truncated() bool { return false }
func (c *fakeCursor) Close() error    { c.closed.Store(true); return nil }

// waitGoroutines polls until the goroutine count drops back to at most
// base, failing after a deadline. A small tolerance covers runtime
// background goroutines that may start during the test.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMergeCursorShardFailure: with one slow shard and one failing
// mid-stream, the merge cursor surfaces the failure, cancels the sibling
// shards, closes every shard cursor, and leaks no goroutines.
func TestMergeCursorShardFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	var cursors [3]*fakeCursor
	var slowCtx atomic.Value // context.Context of the slow shard
	opens := []openFunc{
		func(ctx context.Context) (engineCursor, error) { // healthy, finite
			cursors[0] = &fakeCursor{ctx: ctx, total: 100, failAfter: -1}
			return cursors[0], nil
		},
		func(ctx context.Context) (engineCursor, error) { // artificially slow
			cursors[1] = &fakeCursor{ctx: ctx, total: 100000, perRow: 2 * time.Millisecond, failAfter: -1}
			slowCtx.Store(ctx)
			return cursors[1], nil
		},
		func(ctx context.Context) (engineCursor, error) { // fails mid-stream
			cursors[2] = &fakeCursor{ctx: ctx, total: 100, failAfter: 2}
			return cursors[2], nil
		},
	}
	cur := engine.WithNext(gather(context.Background(), []string{"x"}, nil, opens, nil, false, 0, nil))
	var err error
	rows := 0
	for {
		_, err = cur.Next()
		if err != nil {
			break
		}
		rows++
		if rows > 1000 {
			t.Fatal("merge cursor kept streaming long after a shard failed")
		}
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("merge error = %v, want %v", err, errBoom)
	}
	cur.Close()

	// Sibling cancellation: the slow shard's context must be done.
	ctx := slowCtx.Load().(context.Context)
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("slow sibling shard was not cancelled after the failure")
	}
	waitGoroutines(t, base)
	for i, c := range cursors {
		if c != nil && !c.closed.Load() {
			t.Fatalf("shard cursor %d was never closed", i)
		}
	}
}

// TestMergeCursorEarlyCloseUnderLoad: closing the merge cursor while every
// shard is still streaming cancels them all and leaks no goroutines.
func TestMergeCursorEarlyCloseUnderLoad(t *testing.T) {
	base := runtime.NumGoroutine()
	const shards = 8
	opens := make([]openFunc, shards)
	var cursors [shards]*fakeCursor
	for i := 0; i < shards; i++ {
		opens[i] = func(ctx context.Context) (engineCursor, error) {
			c := &fakeCursor{ctx: ctx, total: 1 << 30, failAfter: -1}
			cursors[i] = c
			return c, nil
		}
	}
	cur := engine.WithNext(gather(context.Background(), []string{"x"}, nil, opens, nil, false, 0, nil))
	for i := 0; i < 50; i++ {
		if _, err := cur.Next(); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != io.EOF {
		t.Fatalf("Next after Close = %v, want io.EOF", err)
	}
	waitGoroutines(t, base)
	for i, c := range cursors {
		if c != nil && !c.closed.Load() {
			t.Fatalf("shard cursor %d was never closed", i)
		}
	}
}

// TestMergeCursorOpenFailure: a shard whose Open itself fails (planning
// error) surfaces like a mid-stream failure and cancels siblings.
func TestMergeCursorOpenFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	errOpen := fmt.Errorf("shard 1 failed to open")
	opens := []openFunc{
		func(ctx context.Context) (engineCursor, error) {
			return &fakeCursor{ctx: ctx, total: 1 << 30, failAfter: -1}, nil
		},
		func(ctx context.Context) (engineCursor, error) { return nil, errOpen },
	}
	cur := engine.WithNext(gather(context.Background(), []string{"x"}, nil, opens, nil, false, 0, nil))
	var err error
	for {
		if _, err = cur.Next(); err != nil {
			break
		}
	}
	if !errors.Is(err, errOpen) {
		t.Fatalf("merge error = %v, want %v", err, errOpen)
	}
	cur.Close()
	waitGoroutines(t, base)
}

// TestMergeCursorCallerCancel: cancelling the caller's context mid-drain
// surfaces context.Canceled and winds everything down.
func TestMergeCursorCallerCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	opens := []openFunc{
		func(c context.Context) (engineCursor, error) {
			return &fakeCursor{ctx: c, total: 1 << 30, failAfter: -1}, nil
		},
		func(c context.Context) (engineCursor, error) {
			return &fakeCursor{ctx: c, total: 1 << 30, failAfter: -1}, nil
		},
	}
	cur := engine.WithNext(gather(ctx, []string{"x"}, nil, opens, nil, false, 0, nil))
	for i := 0; i < 20; i++ {
		if _, err := cur.Next(); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	cancel()
	var err error
	for {
		if _, err = cur.Next(); err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("merge error = %v, want context.Canceled", err)
	}
	cur.Close()
	waitGoroutines(t, base)
}
