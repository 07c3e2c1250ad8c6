package engine

import (
	"context"
	"errors"
	"io"
)

// genFlushMin is the smallest partial block the producer will flush
// opportunistically. Flushing partials keeps first-byte latency low, but
// trying on every row would degenerate into one channel send per row
// whenever the consumer keeps up; trying only at power-of-two sizes ≥
// genFlushMin bounds the sends per full block.
const genFlushMin = 16

// genChanDepth is how many blocks may sit between producer and consumer.
// Together with BlockRows it bounds how many rows a producer can run ahead
// of a stalled or closed consumer.
const genChanDepth = 4

// generator adapts a push-style enumeration (engines naturally emit rows
// from recursive loops) to the pull-style Cursor contract: the producer
// runs on its own goroutine and hands over blocks through a bounded
// channel; the buffers of blocks the consumer is done with travel back
// through a second one, so a steady stream allocates nothing. Closing the
// cursor cancels the producer's context, so abandoned queries stop within
// one cancellation stride instead of enumerating to completion.
type generator struct {
	vars   []string
	ch     chan Block
	free   chan []uint32 // spent buffers on their way back to the producer
	result chan error
	cancel context.CancelFunc

	done   bool
	err    error
	closed bool
}

// Emitter is the producer's end of a generator: rows are written straight
// into the block that will carry them. Either fill Slot and Push, or Emit a
// row held elsewhere. Once Push or Emit returns an error the producer must
// return; the Emitter is dead.
type Emitter struct {
	g   *generator
	ctx context.Context
	blk Block
}

// Slot returns the storage of the next row, len(vars) wide. Nothing is
// emitted until Push; an unpushed slot is simply overwritten by the next.
func (e *Emitter) Slot() []uint32 { return e.blk.Row(e.blk.n) }

// Push emits the row in Slot. It returns the context's error when the
// producer should stop.
func (e *Emitter) Push() error {
	e.blk.n++
	n := e.blk.n
	if n < BlockRows {
		// Opportunistic flush at power-of-two partial sizes: a waiting
		// consumer gets its first rows after ≤ genFlushMin, while a
		// keeping-up consumer still receives amortized blocks instead of
		// one send per row. A cancelled producer flushes nothing more:
		// the drain in Close would otherwise keep taking its partials.
		if n >= genFlushMin && n&(n-1) == 0 {
			if err := e.ctx.Err(); err != nil {
				return err
			}
			select {
			case e.g.ch <- e.blk:
				e.blk = e.g.fresh()
			default:
			}
		}
		return nil
	}
	select {
	case e.g.ch <- e.blk:
		e.blk = e.g.fresh()
		return nil
	case <-e.ctx.Done():
		e.blk.n-- // keep Slot in bounds; the row is dropped with the stream
		return e.ctx.Err()
	}
}

// Emit copies row into the stream.
func (e *Emitter) Emit(row []uint32) error {
	if len(row) != e.blk.stride {
		panic("engine: emitted row width differs from the cursor's projection")
	}
	copy(e.Slot(), row)
	return e.Push()
}

// fresh returns an empty block over a recycled buffer when one is waiting,
// a new buffer otherwise.
func (g *generator) fresh() Block {
	b := Block{}
	select {
	case b.data = <-g.free:
	default:
	}
	b.init(len(g.vars))
	return b
}

// NewGenerator runs produce on a new goroutine and returns the cursor over
// the rows it emits, each len(vars) wide. produce must stop and return
// promptly once ctx is done (the Emitter returns the context's error when
// the producer should stop; checking ctx inside long loops that emit
// rarely is the producer's job). Emitted rows are copied into the stream's
// blocks, so produce may reuse its own row storage freely.
func NewGenerator(ctx context.Context, vars []string, produce func(ctx context.Context, out *Emitter) error) Cursor {
	if ctx == nil {
		ctx = context.Background()
	}
	gctx, cancel := context.WithCancel(ctx)
	g := &generator{
		vars: vars,
		ch:   make(chan Block, genChanDepth),
		// One buffer can be in the consumer's hands and one in the
		// producer's beyond the genChanDepth in flight; a full free list
		// just drops the buffer.
		free:   make(chan []uint32, genChanDepth+2),
		result: make(chan error, 1),
		cancel: cancel,
	}
	go func() {
		out := &Emitter{g: g, ctx: gctx, blk: g.fresh()}
		err := produce(gctx, out)
		if out.blk.n > 0 {
			// Deliver the tail block even when produce failed: rows emitted
			// before an error belong to the consumer (mirroring a streaming
			// response, where rows written before a mid-stream error stand).
			select {
			case g.ch <- out.blk:
			case <-gctx.Done():
				if err == nil {
					err = gctx.Err()
				}
			}
		}
		g.result <- err
		close(g.ch)
	}()
	return WithNext(g)
}

func (g *generator) Vars() []string { return g.vars }

func (g *generator) NextBlock(b *Block) error {
	if g.done {
		b.Reset()
		return g.err
	}
	if cap(b.data) > 0 {
		// The caller is done with b's rows: send the buffer back.
		select {
		case g.free <- b.data:
		default:
		}
	}
	nb, ok := <-g.ch
	if !ok {
		*b = Block{}
		g.done = true
		g.err = <-g.result
		if g.err == nil {
			g.err = io.EOF
		}
		return g.err
	}
	*b = nb
	return nil
}

// Truncated is always false for a bare generator: caps are applied by the
// Limit wrapper.
func (g *generator) Truncated() bool { return false }

func (g *generator) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	g.cancel()
	// Drain so a producer blocked on a full channel can observe the cancel
	// and exit; the channel is closed once it has.
	for range g.ch {
	}
	g.done = true
	if g.err == nil {
		g.err = io.EOF
	}
	return nil
}

// Limit wraps c so it skips the first offset rows and yields at most
// maxRows rows (maxRows <= 0 means uncapped). Truncation is reported
// exactly: a block that overshoots the cap proves a further row exists;
// when the cap lands on a block boundary one more block is probed — a row
// means Truncated() == true, io.EOF means the result happened to fit
// exactly. Hitting the cap closes the underlying cursor, stopping its
// producer.
func Limit(c BlockCursor, offset, maxRows int) Cursor {
	if offset > 0 || maxRows > 0 {
		c = &limitCursor{inner: c, skip: offset, capped: maxRows > 0, remaining: maxRows}
	}
	return WithNext(c)
}

type limitCursor struct {
	inner     BlockCursor
	skip      int
	capped    bool
	remaining int
	truncated bool
	done      bool
	err       error
}

func (l *limitCursor) Vars() []string { return l.inner.Vars() }

func (l *limitCursor) NextBlock(b *Block) error {
	for !l.done {
		err := l.inner.NextBlock(b)
		probe := l.capped && l.remaining == 0
		switch {
		case err == nil && probe:
			l.truncated = true
			l.finish(io.EOF)
		case err != nil:
			l.finish(err)
		default:
			if l.skip > 0 {
				k := min(l.skip, b.n)
				b.DropFront(k)
				l.skip -= k
				if b.n == 0 {
					continue
				}
			}
			if l.capped {
				if b.n > l.remaining {
					// The overshoot proves a further row exists.
					b.Truncate(l.remaining)
					l.truncated = true
					l.finish(io.EOF)
				}
				l.remaining -= b.n
			}
			return nil
		}
	}
	b.Reset()
	return l.err
}

// finish ends the stream with err and stops the producer.
func (l *limitCursor) finish(err error) {
	l.done = true
	l.err = err
	if errors.Is(err, io.EOF) && !l.truncated {
		l.truncated = l.inner.Truncated()
	}
	l.inner.Close()
}

func (l *limitCursor) Truncated() bool { return l.truncated }

func (l *limitCursor) Close() error { return l.inner.Close() }

// cancelStride is how many loop iterations pass between context polls in
// engine inner loops (context.Context.Err takes a lock; polling it on a
// stride keeps the check off the per-row hot path while still bounding
// cancellation latency).
const cancelStride = 4096

// Ticker is the shared strided context poll used inside engine scan and
// join loops: Check returns the context's error at most once per
// cancelStride calls. The zero-context Ticker never fails.
type Ticker struct {
	ctx   context.Context
	steps uint
}

// NewTicker returns a Ticker polling ctx (nil ctx never cancels).
func NewTicker(ctx context.Context) *Ticker { return &Ticker{ctx: ctx} }

// Check polls the context on a stride and returns its error once done.
func (t *Ticker) Check() error {
	if t.ctx == nil {
		return nil
	}
	t.steps++
	if t.steps%cancelStride != 0 {
		return nil
	}
	return t.ctx.Err()
}
