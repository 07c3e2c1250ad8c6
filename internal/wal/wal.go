// Package wal implements the write-ahead log of the durability subsystem:
// an append-only file of CRC-framed patch batches, written before a live
// update is published and replayed on boot so the delta overlay survives a
// crash (internal/live keeps it only in memory; compacted bases are
// persisted separately as segment files by internal/segment).
//
// # Format
//
// The log is a flat sequence of frames:
//
//	┌──────────────┬──────────────┬─────────────────────────┐
//	│ length  u32  │ crc32c  u32  │ payload  (length bytes) │
//	└──────────────┴──────────────┴─────────────────────────┘
//
// both integers little-endian, the checksum a CRC-32C (Castagnoli) over the
// payload. The payload's first byte is the record type: a patch batch
// (recPatch, encoded by record.go) or a seal marker (recSeal) appended by a
// clean shutdown. There is no in-place mutation, ever — recovery therefore
// only has to reason about the tail.
//
// # Recovery
//
// Open scans the file frame by frame, replaying every valid patch record
// through the caller's callback. The scan stops at the first frame that is
// torn — short header, implausible length, truncated payload, or checksum
// mismatch — and truncates the file back to the last valid frame boundary:
// a crash mid-append (or a partially synced page) costs exactly the records
// that were never durable, never the whole log. Appends resume at the
// truncation point. Only running off the end of the data counts as torn; a
// real read error (transient I/O fault) aborts Open instead of truncating,
// so a recoverable failure at boot can never delete a valid log suffix.
// The same invariant is defended on the write side: a failed append
// truncates the partial frame back out before the log accepts more
// records, and if that repair fails the log latches (ErrFailed) rather
// than let acknowledged records sit behind garbage.
//
// # Sync policy
//
// SyncAlways fsyncs inside every Append before it returns (each applied
// patch is durable at publish time). SyncInterval is group commit: appends
// return immediately and a background flusher fsyncs at the configured
// interval, bounding loss to one interval's worth of patches. SyncOff never
// fsyncs (the OS flushes on its own schedule) — crash-unsafe, benchmark
// use. All modes write through the same append path; only the fsync
// placement differs.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// SyncMode selects when appended records are fsynced.
type SyncMode uint8

const (
	// SyncAlways fsyncs before every Append returns.
	SyncAlways SyncMode = iota
	// SyncInterval group-commits: a background flusher fsyncs dirty data at
	// Policy.Interval.
	SyncInterval
	// SyncOff never fsyncs; durability is whatever the OS provides.
	SyncOff
)

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncMode(%d)", uint8(m))
}

// Policy is the fsync policy of a Log.
type Policy struct {
	Mode SyncMode
	// Interval is the group-commit period for SyncInterval; <= 0 defaults
	// to 50ms.
	Interval time.Duration
}

// String renders the policy the way the -fsync flag accepts it.
func (p Policy) String() string {
	if p.Mode == SyncInterval {
		return p.Interval.String()
	}
	return p.Mode.String()
}

// ParsePolicy parses the -fsync flag syntax: "always", "off", or a Go
// duration ("100ms") meaning group commit at that interval.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always", "":
		return Policy{Mode: SyncAlways}, nil
	case "off":
		return Policy{Mode: SyncOff}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return Policy{}, fmt.Errorf("wal: bad fsync policy %q (want always, off, or a positive duration)", s)
	}
	return Policy{Mode: SyncInterval, Interval: d}, nil
}

// crcTable is the Castagnoli table shared by all frames.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeaderSize = 8
	// maxRecordSize bounds one payload; a length field beyond it is treated
	// as a torn tail, not an allocation request.
	maxRecordSize = 1 << 28
)

// RecoverInfo reports what Open found in an existing log.
type RecoverInfo struct {
	// Records is the number of valid patch records replayed.
	Records int
	// Ops is the total operation count across the replayed records.
	Ops int
	// Sealed reports whether the last valid record was a clean-shutdown
	// seal (false after a crash or kill).
	Sealed bool
	// TornBytes is how many trailing bytes were dropped as a torn tail
	// (0 for a cleanly framed log).
	TornBytes int64
}

// Log is an open write-ahead log. Create with Open; all methods are safe
// for concurrent use.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	pol    Policy
	size   int64 // current file size (all frames durable or pending)
	dirty  bool  // bytes written since the last fsync
	sealed bool
	closed bool
	failed bool // a write error left an unrepaired partial frame; appends rejected

	records  atomic.Uint64 // patch records appended this process (excludes replayed)
	bytes    atomic.Int64  // current log size, mirrored for lock-free stats
	syncs    atomic.Uint64
	lastSync atomic.Int64 // unix nanos of the last fsync (0 = never)
	// fsyncHist distributes observed fsync wall times — the latency the
	// SyncAlways write path puts in front of every acknowledged update, and
	// the device signal behind choosing a group-commit interval. Exposed via
	// Stats for the server's /metrics histogram.
	fsyncHist *obs.Hist

	flushStop chan struct{}
	flushDone chan struct{}
}

// Open opens (creating if absent) the log at path, replays every valid
// patch record through replay in append order, truncates any torn tail, and
// returns the log positioned for appends. A replay error aborts the open.
// replay may be nil to skip record delivery (the scan and truncation still
// happen).
func Open(path string, pol Policy, replay func(Batch) error) (*Log, RecoverInfo, error) {
	if pol.Mode == SyncInterval && pol.Interval <= 0 {
		pol.Interval = 50 * time.Millisecond
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, RecoverInfo{}, err
	}
	info, valid, err := scan(f, st.Size(), replay)
	if err != nil {
		f.Close()
		return nil, RecoverInfo{}, err
	}
	if info.TornBytes > 0 {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, RecoverInfo{}, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, RecoverInfo{}, err
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, RecoverInfo{}, err
	}
	l := &Log{f: f, path: path, pol: pol, size: valid, sealed: info.Sealed,
		fsyncHist: obs.NewHist(obs.FsyncBuckets())}
	l.bytes.Store(valid)
	if pol.Mode == SyncInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, info, nil
}

// scan reads frames from the start of src (total bytes long), replaying
// patch records, and returns the recovery info plus the offset of the first
// invalid byte (the truncation point). Only running off the end of the data
// — io.EOF / io.ErrUnexpectedEOF — counts as a torn tail; any other read
// error is a real I/O failure and aborts the scan, so a transient fault at
// boot never truncates a valid log suffix.
func scan(src io.ReaderAt, total int64, replay func(Batch) error) (RecoverInfo, int64, error) {
	r := io.NewSectionReader(src, 0, total)
	var info RecoverInfo
	var valid int64
	var hdr [frameHeaderSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break // end of data or short header: tail ends here
			}
			return info, valid, fmt.Errorf("wal: reading frame header at offset %d: %w", valid, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxRecordSize || valid+frameHeaderSize+int64(length) > total {
			break // implausible or truncated frame
		}
		if int(length) > cap(payload) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break // payload cut off: torn tail
			}
			return info, valid, fmt.Errorf("wal: reading payload at offset %d: %w", valid, err)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			break // corrupted payload: everything from here on is suspect
		}
		switch payload[0] {
		case recPatch:
			b, err := decodeBatch(payload[1:])
			if err != nil {
				// A frame that checksums but does not decode means the
				// writer was cut off mid-logic or the format changed; treat
				// it like a torn tail rather than failing the boot.
				info.TornBytes = total - valid
				return info, valid, nil
			}
			if replay != nil {
				if err := replay(b); err != nil {
					return info, valid, fmt.Errorf("wal: replaying record %d: %w", info.Records, err)
				}
			}
			info.Records++
			info.Ops += len(b.Ops)
			info.Sealed = false
		case recSeal:
			info.Sealed = true
		default:
			// Unknown record type from a future version: skip it (the frame
			// is checksummed, so the framing is still trustworthy).
		}
		valid += frameHeaderSize + int64(length)
	}
	info.TornBytes = total - valid
	return info, valid, nil
}

// ErrFailed is returned by appends after a failed write could not be
// repaired: the file may end in a partial frame, so accepting more appends
// would place acknowledged records after garbage that the next recovery
// scan silently truncates. Close and re-Open the log to recover.
var ErrFailed = errors.New("wal: log latched failed after an unrepaired write error; re-open to recover")

// Failed reports whether the log has latched the failed state: some append
// hit a write error that tail repair could not undo, and every append since
// has been rejected with ErrFailed. A failed log can still be read and
// closed; health surfaces should treat the process as unable to persist.
func (l *Log) Failed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// InjectFailure forces the log into the latched-failed state, exactly as if
// an append's write error could not be repaired. Fault-injection hook for
// exercising health surfaces (e.g. /healthz reporting "wal": "failed");
// production code never calls it.
func (l *Log) InjectFailure() {
	l.mu.Lock()
	l.failed = true
	l.mu.Unlock()
}

// AppendPatch appends one patch batch, durable according to the sync
// policy: under SyncAlways the record is on stable storage when AppendPatch
// returns; under SyncInterval it becomes durable within one flush interval.
func (l *Log) AppendPatch(b Batch) error {
	payload := encodeBatch(b)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	return l.appendLocked(payload, true)
}

func (l *Log) appendLocked(payload []byte, isPatch bool) error {
	if l.failed {
		return ErrFailed
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := l.f.Write(hdr[:]); err != nil {
		return l.repairTail(err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return l.repairTail(err)
	}
	l.size += frameHeaderSize + int64(len(payload))
	l.bytes.Store(l.size)
	l.dirty = true
	l.sealed = !isPatch
	if isPatch {
		l.records.Add(1)
	}
	if l.pol.Mode == SyncAlways || !isPatch {
		return l.syncLocked()
	}
	return nil
}

// repairTail restores the frame-boundary invariant after a failed append
// write (e.g. ENOSPC): the file may now end in a partial frame past
// l.size, and a later append landing after that garbage would look durable
// yet be discarded by the next recovery scan, which truncates at the first
// torn frame. Truncate back to the last valid boundary and reposition the
// write offset; if the repair itself fails, latch the log so every further
// append is rejected with ErrFailed instead of risking silent loss.
func (l *Log) repairTail(werr error) error {
	if err := l.f.Truncate(l.size); err != nil {
		l.failed = true
		return fmt.Errorf("wal: append failed (%v); truncate repair failed, log latched: %w", werr, err)
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		l.failed = true
		return fmt.Errorf("wal: append failed (%v); seek repair failed, log latched: %w", werr, err)
	}
	return werr
}

// Sync forces an fsync of everything appended so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.fsyncHist.ObserveDuration(time.Since(start))
	l.dirty = false
	l.syncs.Add(1)
	l.lastSync.Store(time.Now().UnixNano())
	return nil
}

// Reset truncates the log to empty — the post-compaction step, called only
// after the compacted base is durably on disk (segment written and synced):
// from that moment every record in the log is folded into the segment, and
// replaying any stale prefix would be a harmless no-op anyway (patch
// application is idempotent against a base that already contains the
// effect). Counters keep accumulating; only the file restarts.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.size = 0
	l.bytes.Store(0)
	l.dirty = false
	l.syncs.Add(1)
	l.lastSync.Store(time.Now().UnixNano())
	return nil
}

// Close seals the log (clean-shutdown marker + fsync) and closes the file.
// Safe to call more than once, including concurrently: the closed flag is
// latched under the lock before any shutdown work, so exactly one caller
// stops the flusher and seals; the rest return nil immediately.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.flushStop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.flushDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.appendLocked([]byte{recSeal}, false)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// flushLoop is the SyncInterval group-commit flusher.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	tick := time.NewTicker(l.pol.Interval)
	defer tick.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-tick.C:
			l.Sync() // best effort; Append surfaces errors on the write path
		}
	}
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	// Bytes is the current log file size.
	Bytes int64
	// Records is the number of patch records appended by this process
	// (replayed records are reported by Open's RecoverInfo instead).
	Records uint64
	// Syncs counts fsyncs issued.
	Syncs uint64
	// LastSyncAge is the time since the last fsync (0 if none happened
	// yet).
	LastSyncAge time.Duration
	// Policy is the active fsync policy.
	Policy Policy
	// FsyncLatency distributes observed fsync wall times (seconds).
	FsyncLatency obs.HistSnapshot
	// Failed reports the latched-failed state (see Log.Failed).
	Failed bool
}

// Stats snapshots the counters without taking the append lock.
func (l *Log) Stats() Stats {
	s := Stats{
		Bytes:        l.bytes.Load(),
		Records:      l.records.Load(),
		Syncs:        l.syncs.Load(),
		Policy:       l.pol,
		FsyncLatency: l.fsyncHist.Snapshot(),
		Failed:       l.Failed(),
	}
	if ns := l.lastSync.Load(); ns > 0 {
		s.LastSyncAge = time.Since(time.Unix(0, ns))
	}
	return s
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }
