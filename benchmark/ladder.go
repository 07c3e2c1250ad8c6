package main

// ladder.go is the traced pass: it times the public entry point of each
// layer from outside, one rung at a time, on the queries of the workload.
// Every rung is a separate timed call on the same query, so a rung's self
// time is its duration minus the duration of the next-inner rung.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/set"
	"repro/internal/store"
	"repro/internal/trie"
	"repro/internal/wal"
)

const (
	ladderShards = 4
	// pendingOps is the size of the delta behind live.pending_overhead_ratio.
	pendingOps = 1000
	// pointSample is how many select_point texts per template the ladder
	// times; the other workloads time every class of their cycle.
	pointSample = 2
)

// span is one timed call. A trace is one query × repetition; parent names
// the next-outer rung of the same trace.
type span struct {
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// rungParent is the next-outer rung of each rung.
var rungParent = map[string]string{
	"engine":              "live",
	"live":                "server.handler_json",
	"live_pending":        "server.handler_json",
	"query.parse":         "server.handler_json",
	"plan.compile":        "server.handler_json",
	"server.handler_json": "http.loopback",
	"shard":               "cluster",
}

// timing is the median cost of one call of a rung.
type timing struct{ us, allocs, bytes float64 }

type tracer struct {
	epoch time.Time
	spans []span
}

// time calls fn once to warm it, then 7 times (3 when a call takes over
// 50 ms) and returns the medians. Allocation counts are process-wide, as
// testing.AllocsPerRun's are, so they include the rung's helper goroutines.
func (t *tracer) time(trace, name string, fn func() error) (timing, error) {
	start := time.Now()
	if err := fn(); err != nil {
		return timing{}, fmt.Errorf("%s on %s: %w", name, trace, err)
	}
	reps := 7
	if time.Since(start) > 50*time.Millisecond {
		reps = 3
	}
	var us, allocs, bytes []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.ReadMemStats(&m0)
		s := time.Now()
		err := fn()
		e := time.Now()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return timing{}, fmt.Errorf("%s on %s: %w", name, trace, err)
		}
		t.spans = append(t.spans, span{
			Trace: fmt.Sprintf("%s#%d", trace, i), Name: name, Parent: rungParent[name],
			StartNs: s.Sub(t.epoch).Nanoseconds(), EndNs: e.Sub(t.epoch).Nanoseconds(),
		})
		us = append(us, float64(e.Sub(s).Nanoseconds())/1e3)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	return timing{median(us), median(allocs), median(bytes)}, nil
}

// drain opens q on e with the given row cap (0 is none) and counts its rows.
func drain(e engine.Engine, q *query.BGP, maxRows int) (int, error) {
	cur, err := e.Open(q, engine.ExecOpts{MaxRows: maxRows})
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	n := 0
	for {
		if _, err := cur.Next(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return 0, err
		}
		n++
	}
}

// discard is a ResponseWriter that drops the body and keeps the status.
type discard struct {
	h      http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(s int)           { d.status = s }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }

// serve calls h in process with a GET of r.
func serve(h http.Handler, r request, tsv bool) error {
	r.tsv = tsv
	w := &discard{h: http.Header{}, status: http.StatusOK}
	h.ServeHTTP(w, getRequest(queryURL("http://ladder", r)))
	if w.status != http.StatusOK {
		return fmt.Errorf("handler answered %d", w.status)
	}
	if e := w.h.Get("X-Error"); e != "" {
		return errors.New(e)
	}
	return nil
}

// listen serves h on a loopback port until stop is called.
func listen(h http.Handler) (base string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() { hs.Serve(l); close(done) }()
	return "http://" + l.Addr().String(), func() { hs.Close(); <-done }, nil
}

// ladder fills res.Metrics with the per-layer metrics of w and res.spans with
// one span per timed call.
func ladder(res *result, ds *dataset, ntPath string, w *workload) error {
	m := res.Metrics
	t := &tracer{epoch: time.Now()}
	dir := filepath.Dir(ntPath)

	st, err := buildRungs(t, m, ntPath, dir)
	if err != nil {
		return err
	}
	setRungs(t, m)

	// One engine per rung over the same store.
	eng, err := engines.New("auto", st)
	if err != nil {
		return err
	}
	lsEmpty, err := live.NewStore(st, live.Options{})
	if err != nil {
		return err
	}
	liveEng, err := engines.NewLive("auto", lsEmpty)
	if err != nil {
		return err
	}
	lsPending, err := live.NewStore(st, live.Options{})
	if err != nil {
		return err
	}
	var applyUs []float64
	for _, p := range ds.patchStream(rand.New(rand.NewSource(res.Seed)), pendingOps/10) {
		patch, err := live.ParsePatch(strings.NewReader(p))
		if err != nil {
			return err
		}
		s := time.Now()
		if _, err := lsPending.Apply(patch); err != nil {
			return err
		}
		applyUs = append(applyUs, float64(time.Since(s).Nanoseconds())/1e3)
	}
	m["live.apply_us"] = median(applyUs[1:]) // the first Apply builds the base's membership set
	pendingEng, err := engines.NewLive("auto", lsPending)
	if err != nil {
		return err
	}

	// Two partitions: the workers of the cluster rung share one with the
	// shard rung, the coordinator needs its own because a live store caches
	// one engine per name and the coordinator's is the remote one.
	var partS []float64
	var parted [2]*live.Store
	for i := range parted {
		s := time.Now()
		if parted[i], err = live.NewStore(st, live.Options{Shards: ladderShards}); err != nil {
			return err
		}
		partS = append(partS, time.Since(s).Seconds())
	}
	m["shard.partition_s"] = median(partS)
	shardEng, err := engines.NewSharded("auto", parted[0].Part())
	if err != nil {
		return err
	}
	var workers []string
	for i := 0; i < 3; i++ {
		ws, err := server.New(server.Config{Live: parted[0], DefaultEngine: "auto", MaxRows: -1})
		if err != nil {
			return err
		}
		base, stop, err := listen(ws.Handler())
		if err != nil {
			return err
		}
		defer stop()
		workers = append(workers, base)
	}
	coord, err := cluster.New(cluster.Config{
		Workers: workers, Shards: ladderShards, DisableProbes: true,
		Policy: cluster.Policy{HedgeAfter: -1},
	})
	if err != nil {
		return err
	}
	coord.Start()
	defer coord.Close()
	clusterEng, err := engines.NewClusterLive("auto", parted[1], coord.Opener("auto"))
	if err != nil {
		return err
	}

	traced, err := server.New(server.Config{Store: st, DefaultEngine: "auto"})
	if err != nil {
		return err
	}
	untraced, err := server.New(server.Config{Store: st, DefaultEngine: "auto", TraceSample: -1})
	if err != nil {
		return err
	}
	tracedH, untracedH := traced.Handler(), untraced.Handler()
	loopBase, stopLoop, err := listen(tracedH)
	if err != nil {
		return err
	}
	defer stopLoop()
	loop := newConn()
	defer loop.close()

	// The requests to time, and each one's share of the cycle.
	classes, classWeight := w.classWeights()
	var reqs []request
	var weights []float64
	for i, c := range classes {
		n := 0
		for _, r := range w.requests {
			if r.class == c && (n < pointSample || w.name != "select_point") {
				reqs = append(reqs, r)
				n++
			}
		}
		for k := 0; k < n; k++ {
			weights = append(weights, classWeight[i]/float64(n))
		}
	}

	type row struct {
		parse, compile, engine, live, pending, shard, cluster timing
		json, tsv, noTrace, loopback                          timing
		rows                                                  float64
		req                                                   int
	}
	rows := make([]row, len(reqs))
	// With this process's heap, a collection costs as much as the slower
	// rungs and lands on whichever call happens to trigger it. Collect
	// between requests and not inside a rung; what a rung allocates is
	// reported as its own metric.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i, r := range reqs {
		runtime.GC()
		id := fmt.Sprintf("%s/%d", r.class, i)
		parsed, err := query.ParseSPARQL(r.text)
		if err != nil {
			return err
		}
		// The server runs the normalized query, which keeps no LIMIT, and
		// passes the LIMIT as the cursor's row cap; so do the rungs.
		q, _ := query.Normalize(parsed)
		limit := 0
		if parsed.HasLimit {
			limit = parsed.Limit
		}
		n, err := drain(eng, q, limit)
		if err != nil {
			return err
		}
		x := &rows[i]
		x.rows, x.req = float64(n), i
		drainOn := func(e engine.Engine) func() error {
			return func() error {
				got, err := drain(e, q, limit)
				if err == nil && got != n {
					err = fmt.Errorf("%d rows, the engine rung has %d", got, n)
				}
				return err
			}
		}
		steps := []struct {
			name string
			into *timing
			fn   func() error
		}{
			{"query.parse", &x.parse, func() error {
				p, err := query.ParseSPARQL(r.text)
				if err == nil {
					query.Normalize(p)
				}
				return err
			}},
			{"plan.compile", &x.compile, func() error {
				if _, err := plan.ProfileQuery(q, st); err != nil {
					return err
				}
				_, err := plan.Compile(q, st, plan.AllOptimizations)
				return err
			}},
			{"engine", &x.engine, drainOn(eng)},
			{"live", &x.live, drainOn(liveEng)},
			{"live_pending", &x.pending, func() error { _, err := drain(pendingEng, q, limit); return err }},
			{"shard", &x.shard, drainOn(shardEng)},
			{"cluster", &x.cluster, drainOn(clusterEng)},
			{"server.handler_json", &x.json, func() error { return serve(tracedH, r, false) }},
			{"server.handler_tsv", &x.tsv, func() error { return serve(tracedH, r, true) }},
			{"server.handler_untraced", &x.noTrace, func() error { return serve(untracedH, r, false) }},
			{"http.loopback", &x.loopback, func() error {
				r.tsv = false
				_, _, err := loop.do(getRequest(queryURL(loopBase, r)))
				return err
			}},
		}
		for _, s := range steps {
			if *s.into, err = t.time(id, s.name, s.fn); err != nil {
				return err
			}
		}
	}

	// Mix-weighted means over the cycle.
	mean := func(f func(row) float64) float64 {
		v := make([]float64, len(rows))
		for i, x := range rows {
			v[i] = f(x)
		}
		return weightedMean(v, weights)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	rowsMean := mean(func(x row) float64 { return x.rows })
	engineUs := mean(func(x row) float64 { return x.engine.us })
	liveUs := mean(func(x row) float64 { return x.live.us })
	shardUs := mean(func(x row) float64 { return x.shard.us })
	jsonUs := mean(func(x row) float64 { return x.json.us })
	loopUs := mean(func(x row) float64 { return x.loopback.us })
	clusterUs := mean(func(x row) float64 { return x.cluster.us })
	m["query.parse_us"] = mean(func(x row) float64 { return x.parse.us })
	m["plan.compile_us"] = mean(func(x row) float64 { return x.compile.us })
	m["engine.drain_us"] = engineUs
	m["engine.ns_per_row"] = ratio(engineUs*1e3, rowsMean)
	m["engine.allocs_per_row"] = ratio(mean(func(x row) float64 { return x.engine.allocs }), rowsMean)
	m["live.drain_overhead_ratio"] = ratio(liveUs, engineUs)
	m["live.pending_overhead_ratio"] = ratio(mean(func(x row) float64 { return x.pending.us }), engineUs)
	m["shard.drain_us"] = shardUs
	m["shard.speedup"] = ratio(engineUs, shardUs)
	for _, c := range classes {
		of := func(f func(row) float64) float64 {
			return mean(func(x row) float64 {
				if reqs[x.req].class != c {
					return 0
				}
				return f(x)
			})
		}
		m["shard.speedup."+c] = ratio(of(func(x row) float64 { return x.engine.us }), of(func(x row) float64 { return x.shard.us }))
	}
	m["cluster.drain_us"] = clusterUs
	m["cluster.overhead_ratio"] = ratio(clusterUs, shardUs)
	m["server.handler_json_us"] = jsonUs
	m["server.handler_tsv_us"] = mean(func(x row) float64 { return x.tsv.us })
	m["server.encode_self_ns_per_row"] = ratio(mean(func(x row) float64 { return selfTime(x.json.us, x.live.us) })*1e3, rowsMean)
	m["server.allocs_per_row"] = ratio(mean(func(x row) float64 { return x.json.allocs }), rowsMean)
	m["server.alloc_bytes_per_row"] = ratio(mean(func(x row) float64 { return x.json.bytes }), rowsMean)
	m["obs.trace_overhead_ratio"] = ratio(jsonUs, mean(func(x row) float64 { return x.noTrace.us }))
	m["http.loopback_us"] = loopUs
	m["http.self_us"] = mean(func(x row) float64 { return selfTime(x.loopback.us, x.json.us) })

	s := time.Now()
	if _, err := lsPending.Compact(); err != nil {
		return err
	}
	m["live.compact_ms"] = ms(time.Since(s))

	res.spans = t.spans
	return nil
}

// buildRungs times the load path — parse, store build, trie build, segment
// write and open, WAL append — and returns the store it built.
func buildRungs(t *tracer, m map[string]float64, ntPath, dir string) (*store.Store, error) {
	// rdf.parse_s: the N-Triples reader over the dataset file.
	var triples []rdf.Triple
	parse, err := t.time("build", "rdf.parse", func() error {
		f, err := os.Open(ntPath)
		if err != nil {
			return err
		}
		defer f.Close()
		triples = triples[:0]
		rd := rdf.NewReader(bufio.NewReaderSize(f, 1<<20))
		for {
			tr, err := rd.Read()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			triples = append(triples, tr)
		}
	})
	if err != nil {
		return nil, err
	}
	m["rdf.parse_s"] = parse.us / 1e6

	// store.build_s: dictionary-encode and build the predicate relations.
	var st *store.Store
	var heap0, heap1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap0)
	build, err := t.time("build", "store.build", func() error {
		b := store.NewBuilder()
		b.AddAll(triples)
		st = b.Build()
		return nil
	})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&heap1)
	m["store.build_s"] = build.us / 1e6
	m["store.heap_bytes_per_triple"] = float64(heap1.HeapAlloc-heap0.HeapAlloc) / float64(st.NumTriples())

	// trie.build_ms: every relation's (S,O) and (O,S) trie, the work a
	// compaction queues up, as internal/bench/perf.go measures it.
	tries, err := t.time("build", "trie.build", func() error {
		for _, p := range st.Predicates() {
			rel := st.Relation(p)
			trie.BuildFromColumns([][]uint32{rel.S, rel.O}, set.PolicyAdaptive)
			trie.BuildFromColumns([][]uint32{rel.O, rel.S}, set.PolicyAdaptive)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["trie.build_ms"] = tries.us / 1e3

	segPath := filepath.Join(dir, "ladder.seg")
	write, err := t.time("build", "segment.write", func() error { return segment.Write(segPath, st) })
	if err != nil {
		return nil, err
	}
	open, err := t.time("build", "segment.open", func() error {
		l, err := segment.Open(segPath)
		if err != nil {
			return err
		}
		return l.Close()
	})
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(segPath)
	if err != nil {
		return nil, err
	}
	m["segment.write_ms"] = write.us / 1e3
	m["segment.open_ms"] = open.us / 1e3
	m["segment.bytes_per_triple"] = float64(info.Size()) / float64(st.NumTriples())

	// wal.append_us: one 8-op record, fsynced before the append returns.
	log, _, err := wal.Open(filepath.Join(dir, "ladder.wal"), wal.Policy{Mode: wal.SyncAlways}, func(wal.Batch) error { return nil })
	if err != nil {
		return nil, err
	}
	var batch wal.Batch
	textBytes := 0
	for _, tr := range triples[:8] {
		batch.Ops = append(batch.Ops, wal.Op{Triple: tr})
		textBytes += len(tr.String()) + 2 // sign and newline of a patch line
	}
	appends := 0
	app, err := t.time("build", "wal.append", func() error { appends++; return log.AppendPatch(batch) })
	logBytes := log.Stats().Bytes
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	m["wal.append_us"] = app.us
	m["wal.bytes_per_patch_byte"] = float64(logBytes) / float64(appends*textBytes)
	return st, nil
}

// setRungs times the set kernels on sets shaped like the knows graph's: an
// adjacency list of about ten members out of 20,000 node ids, and the
// first-level set of all nodes.
func setRungs(t *tracer, m map[string]float64) {
	rng := rand.New(rand.NewSource(1))
	const nodes, lists, degree = 20000, 1024, 10
	adj := make([]*set.Set, lists)
	elems := 0
	for i := range adj {
		vals := make([]uint32, degree)
		for k := range vals {
			vals[k] = uint32(rng.Intn(nodes))
		}
		adj[i] = set.FromValues(vals, set.PolicyAdaptive)
		elems += adj[i].Len()
	}
	all := make([]uint32, nodes)
	for i := range all {
		all[i] = uint32(i)
	}
	level := set.FromSorted(all, set.PolicyAdaptive)
	probes := make([]uint32, 2048)
	for i := range probes {
		probes[i] = uint32(i * nodes / len(probes))
	}
	inter, _ := t.time("build", "set.intersect", func() error {
		for i := range adj {
			set.Intersect(adj[i], adj[(i+1)%lists])
		}
		return nil
	})
	seek, _ := t.time("build", "set.seek", func() error {
		var it set.Iter
		it.Reset(level)
		for _, v := range probes {
			it.SeekGE(v)
		}
		return nil
	})
	m["set.intersect_ns_per_elem"] = inter.us * 1e3 / float64(2*elems)
	m["set.seek_ns"] = seek.us * 1e3 / float64(len(probes))
}
