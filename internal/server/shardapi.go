package server

// shardapi.go is the worker side of cluster serving: POST /shard/query
// executes one shard's sub-query locally and streams the result rows back
// as the CRC'd, sequence-numbered frames of internal/cluster's wire
// protocol. The endpoint is mounted only on sharded non-coordinator
// servers (see Handler).
//
// The contract that makes coordinator retries exactly-once lives here:
//
//   - Sub-queries execute with Workers=0, so enumeration order is
//     deterministic — the same request always yields the same row
//     sequence.
//   - The ownership filter (owner/root) and the resume offset (skip) are
//     applied worker-side, and skip counts *kept* rows: a coordinator that
//     received K rows before its stream broke resumes with skip=K and the
//     worker re-enumerates, discarding exactly the rows already delivered.
//   - The stream header carries the worker's store epoch; a coordinator
//     resuming mid-drain refuses a changed epoch rather than splicing rows
//     from two dataset versions.
//
// Execution errors after the stream has started travel in the terminal
// frame; transport-level trouble is what the CRCs and sequence numbers
// catch on the other end.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/shard"
)

// shardQueryCacheCap bounds the worker's parsed sub-query intern map.
const shardQueryCacheCap = 1 << 12

// internShardQuery parses text, memoizing the parsed query per text so
// repeated drains of the same sub-query hand every engine layer the same
// *query.BGP pointer (the per-shard plan caches key on it).
func (s *Server) internShardQuery(text string) (*query.BGP, error) {
	s.shardQMu.Lock()
	if q, ok := s.shardQ[text]; ok {
		s.shardQMu.Unlock()
		return q, nil
	}
	s.shardQMu.Unlock()
	q, err := query.ParseSPARQL(text)
	if err != nil {
		return nil, err
	}
	s.shardQMu.Lock()
	defer s.shardQMu.Unlock()
	if cached, ok := s.shardQ[text]; ok {
		return cached, nil
	}
	if len(s.shardQ) >= shardQueryCacheCap {
		for k := range s.shardQ {
			delete(s.shardQ, k)
			break
		}
	}
	s.shardQ[text] = q
	return q, nil
}

// shardIntParam parses an integer query parameter with a default for the
// empty string (owner uses -1 = unfiltered).
func shardIntParam(r *http.Request, name string, def int) (int, error) {
	v := r.FormValue(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q (want an integer)", name, v)
	}
	return n, nil
}

func (s *Server) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	part := s.ls.Part()
	if part == nil {
		httpError(w, http.StatusServiceUnavailable, "this server is not sharded")
		return
	}
	n := part.NumShards()
	wantShards, err := shardIntParam(r, "shards", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if wantShards != n {
		// A topology mismatch would silently mis-filter ownership; refuse
		// loudly. 409 is permanent on the coordinator side — retrying a
		// misconfigured fleet cannot help.
		httpError(w, http.StatusConflict, "shard-count mismatch: this worker partitions %d ways, coordinator expects %d", n, wantShards)
		return
	}
	sh, err := shardIntParam(r, "shard", -1)
	if err != nil || sh < 0 || sh >= n {
		httpError(w, http.StatusBadRequest, "bad shard %q (worker has shards 0..%d)", r.FormValue("shard"), n-1)
		return
	}
	owner, err := shardIntParam(r, "owner", -1)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	root, err := shardIntParam(r, "root", -1)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	skip, err := shardIntParam(r, "skip", 0)
	if err != nil || skip < 0 {
		httpError(w, http.StatusBadRequest, "bad skip %q (want a non-negative integer)", r.FormValue("skip"))
		return
	}
	rowCap, err := shardIntParam(r, "cap", 0)
	if err != nil || rowCap < 0 {
		httpError(w, http.StatusBadRequest, "bad cap %q (want a non-negative integer)", r.FormValue("cap"))
		return
	}

	engineName := r.FormValue("engine")
	if engineName == "" {
		engineName = s.cfg.DefaultEngine
	}
	le, err := s.engine(engineName)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	text, err := queryText(r)
	if err != nil || text == "" {
		httpError(w, http.StatusBadRequest, "reading sub-query: %v", err)
		return
	}
	q, err := s.internShardQuery(text)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if owner >= 0 && (root < 0 || root >= len(q.Select)) {
		httpError(w, http.StatusBadRequest, "bad root index %d for %d-variable sub-query", root, len(q.Select))
		return
	}

	epoch := le.Epoch()
	inner, err := le.Inner()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "building engine: %v", err)
		return
	}
	se, ok := inner.(*shard.Engine)
	if !ok {
		httpError(w, http.StatusServiceUnavailable, "engine %q is not sharded on this worker", engineName)
		return
	}

	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	// Workers=0: the exactly-once resume contract requires deterministic
	// enumeration order across attempts.
	cur, err := se.ShardEngine(sh).Open(q, engine.ExecOpts{Ctx: ctx})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "opening sub-query: %v", err)
		return
	}
	defer cur.Close()

	w.Header().Set("Content-Type", "application/octet-stream")
	var flush func()
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	sw := cluster.NewShardStreamWriter(w, flush)
	if err := sw.Header(cur.Vars(), epoch, sh); err != nil {
		return // client gone; nothing sensible left to send
	}
	kept, sent := 0, 0
	var blk engine.Block
	for {
		err := cur.NextBlock(&blk)
		if err == io.EOF {
			sw.Finish("")
			return
		}
		if err != nil {
			// Execution failed mid-stream: the terminal frame reports it;
			// rows already shipped stay valid for resume accounting.
			sw.Finish(err.Error())
			return
		}
		for i := 0; i < blk.Len(); i++ {
			row := blk.Row(i)
			if owner >= 0 && shard.ShardOf(row[root], n) != owner {
				continue
			}
			kept++
			if kept <= skip {
				continue
			}
			if err := sw.Row(row); err != nil {
				return // client gone
			}
			sent++
			if rowCap > 0 && sent >= rowCap {
				sw.Finish("")
				return
			}
		}
	}
}
