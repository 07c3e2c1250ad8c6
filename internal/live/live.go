// Package live is the write path of this repository: a mutable delta
// overlay over the immutable, fully-indexed base store every engine was
// built for, plus epoch-swapped compaction — the differential-update
// pattern read-optimized RDF systems (RDF-3X's differential indexing, the
// survey's "delta store" designs) use to take writes without giving up
// query speed.
//
// # Model
//
// A Store holds an atomically swappable state: an immutable base
// (*store.Store, optionally partitioned into shards), and an immutable
// netted delta (inserted triples absent from the base, tombstones over base
// triples). The visible dataset is always overlay = (base \ tombstones) ∪
// inserts. Writers (Apply/Insert/Delete) build a new delta snapshot under a
// writer lock and publish it with one pointer store; readers never block
// and never observe a half-applied patch.
//
// Tries are the only index. The inserts and the tombstones are themselves
// two small stores over the shared dictionary, and this package reads all
// three — base, inserts, tombstones — through the cached tries of
// store.Relation and Store.TripleTrie alone: membership on the write path
// is a trie descent (Store.Has), and the overlay evaluator enumerates
// candidates from trie nodes. The base's tries are the ones the wrapped
// engine queries and segment files store, so live keeps no structure sized
// by the base and rebuilds none per epoch.
//
// Engine wraps any registered engine so the full Open(q, ExecOpts) → Cursor
// contract works over the overlay: while the delta is empty, queries pass
// straight through to the base engine (zero overhead); otherwise the base
// engine's streaming cursor is merged with delta corrections computed by
// the classic incremental-view-maintenance delta rules (each correction
// term pins one pattern to the small delta), so base + corrections is
// Collect-identical to a store rebuilt from the patched triple set — for
// every engine, including the scatter-gather shard engine, with exact
// DISTINCT/Offset/MaxRows semantics preserved.
//
// Compact drains the delta into a freshly assembled base (re-partitioned
// when sharded) and swaps it in under a bumped epoch counter. In-flight
// cursors pin the state they opened against and finish on it; there is no
// stop-the-world. The epoch is the invalidation signal for anything
// compiled against base statistics (the server keys its plan cache by it).
package live

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/store"
)

// Options parameterizes a live Store.
type Options struct {
	// Shards, when > 1, partitions every epoch's base into that many
	// subject-hash shards (internal/shard); engines built through this
	// store then execute by scatter-gather. Compaction re-partitions the
	// fresh base before the swap.
	Shards int
}

// Durability receives the write-path events a durable backend must
// persist. internal/durable implements it over a write-ahead log and
// segment files; the interface lives here (with live's own types) so the
// log and segment layers need not import this package.
//
// Both methods are invoked under the store's writer lock and must not call
// back into the Store.
type Durability interface {
	// LogPatch is called with each effective patch before its delta is
	// published. If it returns an error the patch is NOT applied — the
	// overlay never runs ahead of the log.
	LogPatch(p Patch) error
	// Compacted is called after a compaction swapped in a new base under
	// epoch. The implementation persists the base and only then truncates
	// the log; on error the log is kept, so old-base + log still
	// reconstructs the current state.
	Compacted(base *store.Store, epoch uint64) error
}

// Store is a read-write overlay over an immutable base store. Create with
// NewStore; build engines over it with NewEngine (or the registry's
// NewLive). All methods are safe for concurrent use; writers serialize
// against each other, readers never block.
type Store struct {
	opts Options
	dict *dict.Dictionary

	mu  sync.Mutex // serializes writers: Apply, Compact, SetShards
	dur Durability // guarded by mu; nil when the store is not durable
	cur atomic.Pointer[state]

	compactions        atomic.Uint64
	lastCompactNanos   atomic.Int64
	lastCompactDrained atomic.Int64
}

// state is one immutable snapshot: a base epoch plus one delta version.
// Cursors pin the state they opened against, so a compaction swap never
// invalidates in-flight reads. The pin counter lives on the baseRef —
// shared by every delta version over one base — so applying a patch does
// not drop in-flight same-epoch cursors from the count.
type state struct {
	epoch uint64
	base  *baseRef
	delta *delta
}

// baseRef is one base store plus everything derived from it: the optional
// shard partition and the lazily built engines (shared by every delta
// snapshot over this base — applying a patch must not rebuild rdf3x's six
// indexes). The write path and the overlay evaluator index the base through
// st's own cached tries; nothing here is sized by it.
type baseRef struct {
	st   *store.Store
	part *shard.Partitioned // non-nil when sharded

	pins atomic.Int64 // in-flight cursors over this base

	engMu      sync.Mutex
	engines    map[string]*engineSlot
	noDistinct map[*query.BGP]*query.BGP // interned DISTINCT-stripped query clones
}

type engineSlot struct {
	once sync.Once
	eng  engine.Engine
	err  error
}

func newBaseRef(st *store.Store, shards int) (*baseRef, error) {
	b := &baseRef{st: st}
	if shards > 1 {
		p, err := shard.Partition(st, shards)
		if err != nil {
			return nil, err
		}
		b.part = p
	}
	return b, nil
}

// engine returns the cached inner engine for name, building it on first use
// (over the shard partition when present).
func (b *baseRef) engine(name string, build BuildFunc) (engine.Engine, error) {
	b.engMu.Lock()
	if b.engines == nil {
		b.engines = map[string]*engineSlot{}
	}
	sl := b.engines[name]
	if sl == nil {
		sl = &engineSlot{}
		b.engines[name] = sl
	}
	b.engMu.Unlock()
	sl.once.Do(func() { sl.eng, sl.err = build(b.st, b.part) })
	return sl.eng, sl.err
}

// NewStore wraps base in a live overlay store. The base's dictionary
// becomes the shared, append-only dictionary for all future writes and
// epochs.
func NewStore(base *store.Store, opts Options) (*Store, error) {
	ref, err := newBaseRef(base, opts.Shards)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	ls := &Store{opts: opts, dict: base.Dict()}
	ls.cur.Store(&state{epoch: 0, base: ref, delta: newDelta(ls.dict, nil, nil)})
	return ls, nil
}

// pin loads the current state and marks one in-flight reader on its base.
func (ls *Store) pin() *state {
	s := ls.cur.Load()
	s.base.pins.Add(1)
	return s
}

func (s *state) unpin() { s.base.pins.Add(-1) }

// Dict returns the shared dictionary (append-only, concurrency-safe).
func (ls *Store) Dict() *dict.Dictionary { return ls.dict }

// Base returns the current epoch's immutable base store. Pending delta
// operations are not reflected in it; use NumTriples for the overlay count.
func (ls *Store) Base() *store.Store { return ls.cur.Load().base.st }

// Part returns the current epoch's shard partition, or nil when unsharded.
func (ls *Store) Part() *shard.Partitioned { return ls.cur.Load().base.part }

// Epoch returns the current epoch: it increments on every base swap
// (Compact, SetShards), not on delta writes.
func (ls *Store) Epoch() uint64 { return ls.cur.Load().epoch }

// Shards returns the shard count (1 when unpartitioned).
func (ls *Store) Shards() int {
	if p := ls.cur.Load().base.part; p != nil {
		return p.NumShards()
	}
	return 1
}

// DeltaSize returns the netted delta sizes: pending inserts and tombstones.
func (ls *Store) DeltaSize() (inserts, tombstones int) {
	d := ls.cur.Load().delta
	return d.ins.NumTriples(), d.del.NumTriples()
}

// NumTriples returns the overlay's triple count: base minus tombstones plus
// inserts.
func (ls *Store) NumTriples() int {
	s := ls.cur.Load()
	return s.base.st.NumTriples() - s.delta.del.NumTriples() + s.delta.ins.NumTriples()
}

// SetDurability attaches a durable backend: every subsequent effective
// patch is logged through d before it becomes visible, and every compaction
// is reported after its swap. Attach after boot-time replay (replayed
// patches flow through Apply and must not be re-logged). Pass nil to
// detach.
func (ls *Store) SetDurability(d Durability) {
	ls.mu.Lock()
	ls.dur = d
	ls.mu.Unlock()
}

// Apply nets one patch into the overlay and publishes the new delta
// atomically. Concurrent queries see either the whole patch or none of it.
// On a durable store the patch is logged (and, depending on the fsync
// policy, made stable) before publication; a logging failure leaves the
// overlay unchanged.
func (ls *Store) Apply(p Patch) (ApplyResult, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	s := ls.cur.Load()
	nd, res := s.delta.apply(p, s.base.st)
	res.Epoch = s.epoch
	if nd == s.delta {
		// An all-noop patch changes nothing: no log record (replay does not
		// need it) and no new state.
		return res, nil
	}
	if ls.dur != nil {
		// Log before publish — write-ahead.
		if err := ls.dur.LogPatch(p); err != nil {
			return ApplyResult{}, fmt.Errorf("live: logging patch: %w", err)
		}
	}
	ls.cur.Store(&state{epoch: s.epoch, base: s.base, delta: nd})
	return res, nil
}

// Insert adds triples to the overlay, returning how many were actually
// absent before.
func (ls *Store) Insert(ts []rdf.Triple) (int, error) {
	res, err := ls.Apply(InsertAll(ts))
	return res.Inserted, err
}

// Delete removes triples from the overlay (tombstoning base triples),
// returning how many were actually present before.
func (ls *Store) Delete(ts []rdf.Triple) (int, error) {
	res, err := ls.Apply(DeleteAll(ts))
	return res.Deleted, err
}

// CompactStats reports one compaction.
type CompactStats struct {
	// Epoch is the epoch after the compaction (unchanged if the delta was
	// already empty and no swap happened).
	Epoch uint64
	// Drained is the number of delta operations folded into the new base.
	Drained int
	// Duration is how long materializing and indexing the new base took.
	Duration time.Duration
	// Swapped reports whether a new base was actually published.
	Swapped bool
}

// Compact drains the delta into a freshly assembled base store (and shard
// partition, when sharded) and atomically swaps it in under the next epoch.
// Queries running during the compaction keep their pinned state and are
// never blocked or invalidated; new queries pick up the new epoch on their
// next Open. An empty delta is a no-op. Writers are serialized with the
// compaction (an Apply issued mid-compaction waits for the swap); on a
// durable store that includes persisting the new base — segment write +
// fsync + log truncation — so writes stall for the full persistence step
// (see durable.Store.Compacted for why and for the escape hatch).
func (ls *Store) Compact() (CompactStats, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	s := ls.cur.Load()
	if s.delta.empty() {
		return CompactStats{Epoch: s.epoch}, nil
	}
	start := time.Now()
	merged := overlayTriples(s)
	newBase := store.FromEncoded(ls.dict, merged)
	ref, err := newBaseRef(newBase, ls.opts.Shards)
	if err != nil {
		return CompactStats{}, fmt.Errorf("live: compact: %w", err)
	}
	drained := s.delta.size()
	ls.cur.Store(&state{epoch: s.epoch + 1, base: ref, delta: newDelta(ls.dict, nil, nil)})
	dur := time.Since(start)
	ls.compactions.Add(1)
	ls.lastCompactNanos.Store(int64(dur))
	ls.lastCompactDrained.Store(int64(drained))
	stats := CompactStats{Epoch: s.epoch + 1, Drained: drained, Duration: dur, Swapped: true}
	if ls.dur != nil {
		// Persist the new base (and truncate the log) after the swap. On
		// failure the swap stands — the in-memory state is correct and the
		// untruncated log still replays onto the old on-disk base — so the
		// error is reported with Swapped=true rather than rolled back.
		if err := ls.dur.Compacted(newBase, stats.Epoch); err != nil {
			return stats, fmt.Errorf("live: persisting compacted base: %w", err)
		}
	}
	return stats, nil
}

// SetShards re-partitions the current base into n subject-hash shards (n <=
// 1 reverts to unsharded) under a new epoch. The delta is carried over
// unchanged; future compactions keep the new shard count. Setting the
// current count again is a no-op — cached engines, indexes, and plan-cache
// entries survive.
func (ls *Store) SetShards(n int) error {
	if n < 0 {
		return fmt.Errorf("live: negative shard count %d", n)
	}
	if n <= 1 {
		n = 0
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	s := ls.cur.Load()
	current := 0
	if s.base.part != nil {
		current = s.base.part.NumShards()
	}
	if n == current {
		return nil
	}
	ref, err := newBaseRef(s.base.st, n)
	if err != nil {
		return fmt.Errorf("live: %w", err)
	}
	ls.opts.Shards = n
	ls.cur.Store(&state{epoch: s.epoch + 1, base: ref, delta: s.delta})
	return nil
}

// overlayTriples materializes (base \ tombstones) ∪ inserts: the surviving
// base triples in the base's All order, then the inserts in the delta's. The
// result is deduplicated by construction (the base is, tombstones only
// remove, inserts are disjoint from the surviving base).
func overlayTriples(s *state) []store.Triple {
	base, d := s.base.st, s.delta
	out := make([]store.Triple, 0, base.NumTriples()-d.del.NumTriples()+d.ins.NumTriples())
	for t := range base.All() {
		if d.del.NumTriples() == 0 || !d.del.Has(t, layout) {
			out = append(out, t)
		}
	}
	return slices.AppendSeq(out, d.ins.All())
}

// StoreStats is a point-in-time snapshot of the live store's counters.
type StoreStats struct {
	Epoch           uint64
	BaseTriples     int
	DeltaInserts    int
	DeltaTombstones int
	OverlayTriples  int
	Terms           int
	Shards          int
	// PinnedReaders counts cursors currently pinned to the present epoch's
	// base — any delta version of it (cursors still draining a pre-swap
	// epoch are not included).
	PinnedReaders int64
	Compactions   uint64
	// LastCompactDuration and LastCompactDrained describe the most recent
	// compaction (zero if none happened yet).
	LastCompactDuration time.Duration
	LastCompactDrained  int
}

// IndexMemoryBytes estimates the heap footprint of every trie index built
// over the current base so far — the unsharded store's indexes plus, when
// partitioned, every shard store's. It never triggers index builds, so the
// server's /stats can poll it freely.
func (ls *Store) IndexMemoryBytes() int {
	s := ls.cur.Load()
	total := s.base.st.IndexMemoryBytes()
	if s.base.part != nil {
		for i := 0; i < s.base.part.NumShards(); i++ {
			total += s.base.part.Shard(i).IndexMemoryBytes()
		}
	}
	return total
}

// Stats snapshots the store's counters.
func (ls *Store) Stats() StoreStats {
	s := ls.cur.Load()
	shards := 1
	if s.base.part != nil {
		shards = s.base.part.NumShards()
	}
	return StoreStats{
		Epoch:               s.epoch,
		BaseTriples:         s.base.st.NumTriples(),
		DeltaInserts:        s.delta.ins.NumTriples(),
		DeltaTombstones:     s.delta.del.NumTriples(),
		OverlayTriples:      s.base.st.NumTriples() - s.delta.del.NumTriples() + s.delta.ins.NumTriples(),
		Terms:               ls.dict.Size(),
		Shards:              shards,
		PinnedReaders:       s.base.pins.Load(),
		Compactions:         ls.compactions.Load(),
		LastCompactDuration: time.Duration(ls.lastCompactNanos.Load()),
		LastCompactDrained:  int(ls.lastCompactDrained.Load()),
	}
}
