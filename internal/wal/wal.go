// Package wal is the crash-safe write-ahead log of the NewsLink ingest
// pipeline (DESIGN.md §13). The engine appends one record per acknowledged
// write (upsert, delete) and fsyncs them in batches — group commit — so a
// sustained document firehose costs a handful of fsyncs per second, not one
// per document. After a crash, replaying the log over the last snapshot
// reconstructs every acknowledged write; a torn tail (the record a crash
// interrupted mid-write) is detected and dropped, while corruption of a
// fully-written record (a bit flip under an acknowledged document) is
// surfaced as ErrCorrupt rather than silently skipped.
//
// On-disk layout: a directory of numbered segment files (wal-%016x.log),
// each a sequence of length-prefixed records:
//
//	[4 bytes LE payload length][4 bytes LE CRC32-C of payload][payload]
//
// The log is rotated — current segment fsynced, a fresh one started — when
// the engine captures a snapshot, and the old segments are pruned only
// after the snapshot has durably installed. A crash between rotation and
// prune replays both generations over the previous snapshot, which is
// correct because the records of the old generation are not part of it.
//
// Durability discipline: Append (or Write+WaitDurable) returns only after
// the record — and, because the log is sequential, every record before it —
// has been fsynced. A failed fsync poisons the log: the write may or may
// not be durable, so every subsequent operation fails with the original
// error instead of pretending later fsyncs repaired history.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"newslink/internal/faults"
)

var (
	// ErrCorrupt reports a fully-written record whose checksum does not
	// match, or structurally impossible framing that cannot be explained by
	// a torn tail. Replay stops; the caller decides whether to discard the
	// log or refuse to start.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log closed")
)

// MaxRecord bounds one record's payload (64 MiB). A length prefix past the
// bound is structurally impossible — the writer enforces the same limit —
// so replay reports it as corruption instead of allocating pathologically.
const MaxRecord = 64 << 20

// headerSize is the per-record framing overhead: 4 bytes payload length,
// 4 bytes CRC32-C.
const headerSize = 8

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64),
// the same polynomial the snapshot artifacts use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord appends the framed form of payload to dst and returns the
// extended slice: the one encoder, used for every append.
func appendRecord(dst, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// errTorn distinguishes an incomplete tail record (tolerated at the end of
// the last segment: the crash interrupted the write, so the record was
// never acknowledged) from ErrCorrupt (never tolerated).
var errTorn = errors.New("wal: torn record")

// readRecord reads one framed record from r into a fresh payload slice.
// Returns io.EOF at a clean segment end, errTorn when the record is
// incomplete (header or payload cut short by a crash), and ErrCorrupt when
// a complete record fails its checksum or the framing is impossible.
func readRecord(r *bufio.Reader) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, io.EOF // clean end: no record starts here
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, errTorn // header cut short
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxRecord {
		// The writer never produces this, and a torn write only shortens a
		// record; an impossible length is a damaged header.
		return nil, fmt.Errorf("%w: record length %d exceeds %d", ErrCorrupt, n, MaxRecord)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTorn // payload cut short
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	return payload, nil
}

// Options configures a Log. The zero value is ready to use.
type Options struct {
	// OnFsync, when set, observes the duration of every fsync the group
	// committer performs (feeds the newslink_wal_fsync_seconds histogram).
	OnFsync func(time.Duration)
	// OnAppend, when set, observes every appended record's framed size in
	// bytes.
	OnAppend func(bytes int)
}

// Pos names a durability point in the log: everything up to and including
// the record that returned it is durable once WaitDurable(pos) returns.
type Pos struct {
	seq uint64 // segment sequence number
	off int64  // bytes of the segment written when the record was appended
}

// Log is an append-only, group-committed write-ahead log over a directory
// of segment files. Safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	// mu guards the active segment file, the write offset and rotation.
	mu      sync.Mutex
	f       *os.File
	seq     uint64
	written int64
	closed  bool
	failed  error // sticky: a failed fsync or write poisons the log

	// records counts the valid records found across all segments at Open
	// time (what Replay will deliver).
	records int

	// group commit: cond guards the durability watermark. Appenders wait on
	// it; the first waiter past the watermark becomes the leader and fsyncs
	// on behalf of everyone queued behind it.
	cond     *sync.Cond
	syncing  bool
	syncSeq  uint64 // segment the watermark refers to
	synced   int64  // durable bytes of segment syncSeq
	syncErrs error  // failure observed by a leader (also copied to failed)
}

// segPattern names segment files so lexical order is replay order.
func segName(seq uint64) string { return fmt.Sprintf("wal-%016x.log", seq) }

// segments lists the segment files of dir in sequence order.
func segments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		var seq uint64
		if n, err := fmt.Sscanf(e.Name(), "wal-%016x.log", &seq); n == 1 && err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Open opens (creating if needed) the log at dir, validates every segment,
// and repairs a torn tail on the last one by truncating it to its valid
// prefix. Corruption anywhere else — a checksum failure on a fully-written
// record, or any invalid record that is not the final one — returns
// ErrCorrupt and no log. After Open the caller normally drains Replay
// before appending; appends land in the last existing segment (or a fresh
// first one).
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seqs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	l.cond = sync.NewCond(&l.mu)
	for i, seq := range seqs {
		n, valid, err := validateSegment(filepath.Join(dir, segName(seq)), i == len(seqs)-1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", segName(seq), err)
		}
		l.records += n
		if i == len(seqs)-1 {
			l.seq, l.written = seq, valid
		}
	}
	if len(seqs) == 0 {
		l.seq = 1
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(l.seq)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(l.written, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l.f = f
	l.syncSeq, l.synced = l.seq, l.written
	if len(seqs) == 0 {
		// Make the empty first segment and its directory entry durable up
		// front, so the log's existence survives a crash that precedes the
		// first append.
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	return l, nil
}

// validateSegment scans one segment file, counting valid records and
// returning the byte length of the valid prefix. On the last segment a
// torn tail is repaired by truncating the file to the valid prefix; on any
// other segment — which rotation fsynced in full — a torn record is
// corruption. A checksum failure on a complete record is corruption
// everywhere: it sits under a write that was acknowledged, so dropping it
// silently would lose the acknowledged document.
func validateSegment(path string, last bool) (records int, validLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, replayBufSize)
	for {
		payload, err := readRecord(r)
		switch {
		case err == nil:
			records++
			validLen += headerSize + int64(len(payload))
			continue
		case errors.Is(err, io.EOF):
			return records, validLen, nil
		case errors.Is(err, errTorn) && last:
			// The crash interrupted this record mid-write; it was never
			// acknowledged. Truncate so appends resume at a clean boundary.
			wf, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				return 0, 0, err
			}
			terr := wf.Truncate(validLen)
			serr := wf.Sync()
			cerr := wf.Close()
			if err := errors.Join(terr, serr, cerr); err != nil {
				return 0, 0, err
			}
			return records, validLen, nil
		case errors.Is(err, errTorn):
			return 0, 0, fmt.Errorf("%w: torn record in non-final segment", ErrCorrupt)
		default:
			return 0, 0, err
		}
	}
}

// replayBufSize is the buffered-reader size replay and validation use.
// Records larger than this span multiple reads; the boundary-spanning
// replay test pins that case.
const replayBufSize = 32 << 10

// Records returns the number of valid records found at Open time — what a
// full Replay will deliver.
func (l *Log) Records() int { return l.records }

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Replay delivers every record of every segment, in append order, to fn.
// It must run before the first Append (Open already repaired the tail, so
// replay sees exactly the records a crash preserved). A non-nil error from
// fn stops the replay and is returned with the count delivered so far.
func (l *Log) Replay(fn func(payload []byte) error) (int, error) {
	seqs, err := segments(l.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, seq := range seqs {
		f, err := os.Open(filepath.Join(l.dir, segName(seq)))
		if err != nil {
			return n, err
		}
		r := bufio.NewReaderSize(f, replayBufSize)
		for {
			payload, err := readRecord(r)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				f.Close()
				// Open validated everything; hitting this means the files
				// changed underneath us.
				return n, fmt.Errorf("%s: %w", segName(seq), err)
			}
			if err := fn(payload); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
		f.Close()
	}
	return n, nil
}

// Write appends one record without waiting for durability and returns its
// position. The caller acknowledges the write only after WaitDurable(pos).
// Writes are serialized; the record order is the durability order and — by
// the engine's locking discipline — the apply order.
func (l *Log) Write(payload []byte) (Pos, error) {
	if len(payload) > MaxRecord {
		return Pos{}, fmt.Errorf("wal: payload of %d bytes exceeds MaxRecord", len(payload))
	}
	rec := appendRecord(nil, payload)
	if mutated, err := faults.FireData(faults.WALAppend, rec); err != nil {
		return Pos{}, err
	} else {
		rec = mutated
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return Pos{}, err
	}
	if _, err := l.f.Write(rec); err != nil {
		// A short or failed write leaves the tail in an unknown state;
		// poison the log rather than risk framing damage going unnoticed.
		l.failed = fmt.Errorf("wal: append: %w", err)
		return Pos{}, l.failed
	}
	l.written += int64(len(rec))
	if l.opts.OnAppend != nil {
		l.opts.OnAppend(len(rec))
	}
	return Pos{seq: l.seq, off: l.written}, nil
}

// usableLocked reports whether the log can accept operations.
func (l *Log) usableLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.failed
}

// durableLocked reports whether pos is covered by the durability watermark.
// Rotation fsyncs a segment in full before retiring it, so any position in
// a segment older than the watermark's is durable.
func (l *Log) durableLocked(pos Pos) bool {
	return pos.seq < l.syncSeq || (pos.seq == l.syncSeq && pos.off <= l.synced)
}

// WaitDurable blocks until the record at pos is fsynced (group commit: the
// first waiter syncs for everyone behind it) and returns nil, or returns
// the sticky failure if durability can no longer be promised.
func (l *Log) WaitDurable(pos Pos) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.durableLocked(pos) {
			return nil
		}
		if l.failed != nil {
			return l.failed
		}
		if l.closed {
			return ErrClosed
		}
		if l.syncing {
			// A leader is already at work; its sync may or may not cover
			// this position — re-check after it finishes.
			l.cond.Wait()
			continue
		}
		// Become the leader: sync everything written so far on behalf of
		// every waiter queued behind this position.
		l.syncing = true
		f, seq, target := l.f, l.seq, l.written
		l.mu.Unlock()
		start := time.Now()
		err := faults.Fire(faults.WALSync)
		if err == nil {
			err = f.Sync()
		}
		if l.opts.OnFsync != nil {
			l.opts.OnFsync(time.Since(start))
		}
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			l.failed = fmt.Errorf("wal: fsync: %w", err)
		} else if seq == l.syncSeq && target > l.synced {
			l.synced = target
		}
		l.cond.Broadcast()
	}
}

// Append writes one record and waits for it to become durable: the one-call
// form of Write + WaitDurable.
func (l *Log) Append(payload []byte) error {
	pos, err := l.Write(payload)
	if err != nil {
		return err
	}
	return l.WaitDurable(pos)
}

// Sync forces an fsync of the active segment (used by Close and rotation).
// Callers hold l.mu.
func (l *Log) syncLocked() error {
	if err := l.f.Sync(); err != nil {
		l.failed = fmt.Errorf("wal: fsync: %w", err)
		return l.failed
	}
	if l.seq == l.syncSeq && l.written > l.synced {
		l.synced = l.written
	}
	return nil
}

// Rotate fsyncs the active segment and starts a fresh one. The engine
// calls it inside the snapshot-capture critical section: records appended
// before the capture stay in the old segments (prunable once the snapshot
// installs), records appended after it land in the new segment (they are
// not in the snapshot and must be replayed over it after a crash).
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	seq := l.seq + 1
	f, err := os.OpenFile(filepath.Join(l.dir, segName(seq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	old := l.f
	l.f, l.seq, l.written = f, seq, 0
	l.syncSeq, l.synced = seq, 0
	l.cond.Broadcast() // every old-segment position is now durable
	return old.Close()
}

// Prune removes every segment older than the active one. The engine calls
// it only after a snapshot that covers those records has durably installed;
// until then the old segments must survive so a crash can replay them.
func (l *Log) Prune() error {
	l.mu.Lock()
	active := l.seq
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	seqs, err := segments(l.dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq >= active {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, segName(seq))); err != nil {
			return err
		}
	}
	return syncDir(l.dir)
}

// Close fsyncs and closes the active segment. Waiters are woken with
// ErrClosed unless their position was already durable.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	var err error
	if l.failed == nil {
		err = l.syncLocked()
	}
	l.closed = true
	l.cond.Broadcast()
	return errors.Join(err, l.f.Close())
}

// syncDir fsyncs a directory, making its entries durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	return errors.Join(serr, d.Close())
}
