package server

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/cluster"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Result encoders pull blocks from the cursor and stream them straight to
// the response writer. The dictionary stores every term as the N-Triples
// rendering results are served in, so encoding a cell is an offset lookup
// in a lock-free dictionary view plus a copy — no decoding, no per-response
// memo, nothing allocated per row — and neither the encoded rows nor their
// renderings are ever materialized: per-request memory is O(block), and the
// first byte reaches the client while the join is still enumerating.

// encodeFlushAt is how many buffered bytes make an encoder write to the
// response.
const encodeFlushAt = 32 << 10

// encodeBufs recycles the encoders' output buffers across responses; one
// allocated per response would be most of the bytes a small query costs
// the collector. A buffer that grew past encodeBufMax (a huge trace, a block of very wide
// rows) is left to the collector rather than kept at that size.
var encodeBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, encodeFlushAt+encodeFlushAt/4)
	return &b
}}

const encodeBufMax = 4 * encodeFlushAt

// getEncodeBuf takes an empty output buffer from the pool.
func getEncodeBuf() *[]byte { return encodeBufs.Get().(*[]byte) }

// putEncodeBuf returns buf, its final state after the last write, to the
// pool through the holder getEncodeBuf gave.
func putEncodeBuf(holder *[]byte, buf []byte) {
	if cap(buf) > encodeBufMax {
		return
	}
	*holder = buf[:0]
	encodeBufs.Put(holder)
}

// blockSource is what an encoder drains: the cursor, fronted by the block
// the handler pulled before committing the status code.
type blockSource struct {
	cur    engine.Cursor
	blk    engine.Block
	err    error     // what the last pull returned; nil while blk holds rows
	execSp *obs.Span // counts the rows delivered to the encoder, per block
	// probed marks a LIMIT 0 response: the handler's pull was evidence of
	// whether any solution exists, not output.
	probed, probedRow bool
}

// pull fetches the next block, counting its rows on the execute span.
func (s *blockSource) pull() {
	s.err = s.cur.NextBlock(&s.blk)
	if s.err == nil {
		s.execSp.AddRows(int64(s.blk.Len()))
	}
}

// limitZero turns the pulled block into the LIMIT 0 answer: no rows, and
// truncated exactly when the probe found one.
func (s *blockSource) limitZero() {
	s.probed, s.probedRow = true, s.err == nil
	s.blk.Reset()
	s.err = io.EOF
	s.cur.Close()
}

// end reports how the stream ended, once a pull has failed.
func (s *blockSource) end() (truncated bool, err error) {
	if s.err != io.EOF {
		return false, s.err
	}
	if s.probed {
		return s.probedRow, nil
	}
	return s.cur.Truncated(), nil
}

// outBuf is the encoders' write side: they append to a buffer of their own
// and hand it to write whenever it holds encodeFlushAt bytes (checked
// between blocks, so it holds at most that plus one block's rows). The
// first write error sticks, and ends the encoding loop.
type outBuf struct {
	w   io.Writer
	err error
}

// write sends buf to the response and returns it emptied for reuse.
func (o *outBuf) write(buf []byte) []byte {
	if o.err == nil && len(buf) > 0 {
		_, o.err = o.w.Write(buf)
	}
	return buf[:0]
}

// drain runs the encoding loop both formats share, starting with the block
// the handler already pulled: encodeRows appends one block's rows to buf
// (rowsBefore is how many rows precede them), the span counts them, and buf
// is written out whenever it is full. What is left in buf is returned for
// the caller to finish and write.
func (o *outBuf) drain(src *blockSource, encSp *obs.Span, buf []byte, encodeRows func(buf []byte, b *engine.Block, rowsBefore int) []byte) (encodeResult, []byte) {
	res := encodeResult{}
	for src.err == nil {
		buf = encodeRows(buf, &src.blk, res.rows)
		res.rows += src.blk.Len()
		if len(buf) >= encodeFlushAt {
			if buf = o.write(buf); o.err != nil {
				res.err = o.err
				return res, buf
			}
		}
		encSp.AddRows(int64(src.blk.Len()))
		src.pull()
	}
	res.truncated, res.err = src.end()
	return res, buf
}

// queryMeta is the non-row metadata included in JSON responses.
type queryMeta struct {
	QueryID string // per-request id, also in the X-Query-ID header
	Engine  string // engine that executed the query
	Cache   string // "hit" or "miss" on the plan cache
}

// encodeResult is what an encoder reports back to the handler: how many
// rows went out, whether the row cap truncated the stream, and the error
// that ended it — nil for a complete result, the cursor's error (deadline,
// cancellation, execution failure) or the write error otherwise. Once rows
// have been streamed the HTTP status is already committed, so mid-stream
// errors are reported in-band (a trailing "error" field in JSON, an HTTP
// trailer for both formats) and counted in /stats by the caller.
type encodeResult struct {
	rows      int
	truncated bool
	err       error
}

// writeJSON streams the result as one JSON object:
//
//	{"vars":[...],"id":"q7","engine":"...","cache":"hit",
//	 "rows":[["<iri>","\"literal\""],...],
//	 "count":N,"truncated":true,"took_ms":1.2,"error":"...",
//	 "partial":[{"shard":1,"mode":"lost"}],"trace":{...}}
//
// Rows hold the canonical N-Triples term renderings. count, truncated, and
// took_ms trail the rows because they are only known once the stream ends;
// error appears only when the stream ended abnormally. partial, when the
// partial callback is non-nil and reports missing shards (cluster serving
// under degradation), lists the shards whose rows may be incomplete.
// trace, when the trace callback is non-nil (?explain=1), is the query's
// span tree — the callback runs after the last row, once every stage has
// finished. encSp counts the rows as each block is encoded, so its
// first_row_us is the time the first block took to get written.
func writeJSON(w io.Writer, vars []string, src *blockSource, d *dict.Dictionary, meta queryMeta, encSp *obs.Span, tookMs func() float64, partial func() []cluster.PartialShard, trace func() *obs.TraceSnapshot) encodeResult {
	o := &outBuf{w: w}
	view := d.View()

	holder := getEncodeBuf()
	buf := append(*holder, `{"vars":[`...)
	for i, v := range vars {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, []byte(v))
	}
	buf = append(buf, ']')
	if meta.QueryID != "" {
		buf = append(buf, `,"id":"`...)
		buf = append(buf, meta.QueryID...) // NextQueryID emits [a-z0-9]+ only
		buf = append(buf, '"')
	}
	buf = append(buf, `,"engine":`...)
	buf = appendJSONString(buf, []byte(meta.Engine))
	buf = append(buf, `,"cache":"`...)
	buf = append(buf, meta.Cache...)
	buf = append(buf, `","rows":[`...)

	res, buf := o.drain(src, encSp, buf, func(buf []byte, b *engine.Block, rowsBefore int) []byte {
		for i, n := 0, b.Len(); i < n; i++ {
			if rowsBefore+i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			for j, id := range b.Row(i) {
				if j > 0 {
					buf = append(buf, ',')
				}
				if term, plain := view.Render(id); plain {
					buf = append(buf, '"')
					buf = append(buf, term...)
					buf = append(buf, '"')
				} else {
					buf = appendJSONString(buf, term)
				}
			}
			buf = append(buf, ']')
		}
		return buf
	})

	buf = append(buf, `],"count":`...)
	buf = strconv.AppendInt(buf, int64(res.rows), 10)
	if res.truncated {
		buf = append(buf, `,"truncated":true`...)
	}
	buf = append(buf, `,"took_ms":`...)
	tb, _ := json.Marshal(tookMs())
	buf = append(buf, tb...)
	if res.err != nil {
		buf = append(buf, `,"error":`...)
		buf = appendJSONString(buf, []byte(res.err.Error()))
	}
	if partial != nil {
		if miss := partial(); len(miss) > 0 {
			if pb, perr := json.Marshal(miss); perr == nil {
				buf = append(buf, `,"partial":`...)
				buf = append(buf, pb...)
			}
		}
	}
	if trace != nil {
		if snap := trace(); snap != nil {
			if sb, serr := json.Marshal(snap); serr == nil {
				buf = append(buf, `,"trace":`...)
				buf = append(buf, sb...)
			}
		}
	}
	putEncodeBuf(holder, o.write(append(buf, "}\n"...)))
	if o.err != nil && res.err == nil {
		res.err = o.err
	}
	return res
}

// writeTSV streams the result as tab-separated values: a "?var" header line
// followed by one line per row of N-Triples term renderings (whose escaping
// already keeps tabs and newlines out of the raw text). A mid-stream error
// simply ends the body; the X-Error HTTP trailer carries the cause.
func writeTSV(w io.Writer, vars []string, src *blockSource, d *dict.Dictionary, encSp *obs.Span) encodeResult {
	o := &outBuf{w: w}
	view := d.View()
	holder := getEncodeBuf()
	buf := *holder
	for i, v := range vars {
		if i > 0 {
			buf = append(buf, '\t')
		}
		buf = append(buf, '?')
		buf = append(buf, v...)
	}
	buf = append(buf, '\n')
	res, buf := o.drain(src, encSp, buf, func(buf []byte, b *engine.Block, _ int) []byte {
		for i, n := 0, b.Len(); i < n; i++ {
			for j, id := range b.Row(i) {
				if j > 0 {
					buf = append(buf, '\t')
				}
				term, _ := view.Render(id)
				buf = append(buf, term...)
			}
			buf = append(buf, '\n')
		}
		return buf
	})
	putEncodeBuf(holder, o.write(buf))
	if o.err != nil && res.err == nil {
		res.err = o.err
	}
	return res
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, quotes included. Its output
// is byte-identical to encoding/json with SetEscapeHTML(false): '"' and
// '\\' are backslash-escaped, control bytes use \b \f \n \r \t or \u00XX,
// U+2028 and U+2029 are \u-escaped, invalid UTF-8 becomes \ufffd, and
// everything else — '<', '>' and '&' included — is copied verbatim.
func appendJSONString(dst, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
