package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// collect replays l and returns every payload.
func collect(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var got [][]byte
	n, err := l.Replay(func(p []byte) error {
		got = append(got, bytes.Clone(p))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != len(got) {
		t.Fatalf("Replay count %d, delivered %d", n, len(got))
	}
	return got
}

func openT(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// TestEmptyLog: opening a fresh directory yields a usable, empty log, and
// reopening it without writes stays empty.
func TestEmptyLog(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if l.Records() != 0 {
		t.Fatalf("fresh log reports %d records", l.Records())
	}
	if got := collect(t, l); len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l = openT(t, dir)
	defer l.Close()
	if got := collect(t, l); len(got) != 0 {
		t.Fatalf("reopened empty log replayed %d records", len(got))
	}
}

// TestAppendReplayRoundTrip: appended payloads come back in order and
// byte-identical across a reopen.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	var want [][]byte
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%03d-%s", i, string(make([]byte, i*7))))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l = openT(t, dir)
	defer l.Close()
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestEmptyPayload: zero-length payloads are legal records and replay as
// empty (not dropped).
func TestEmptyPayload(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if err := l.Append(nil); err != nil {
		t.Fatalf("Append(nil): %v", err)
	}
	if err := l.Append([]byte("x")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	l.Close()
	l = openT(t, dir)
	defer l.Close()
	got := collect(t, l)
	if len(got) != 2 || len(got[0]) != 0 || string(got[1]) != "x" {
		t.Fatalf("unexpected replay %q", got)
	}
}

// TestTornTailRepair: truncating the final record at every possible byte
// boundary is repaired on reopen — earlier records survive, the torn one
// is dropped, and the log accepts new appends cleanly afterwards.
func TestTornTailRepair(t *testing.T) {
	// Build a reference log once to learn the file layout.
	recs := [][]byte{[]byte("alpha"), []byte("beta-beta"), []byte("gamma-gamma-gamma")}
	ref := t.TempDir()
	l := openT(t, ref)
	var sizes []int64
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, headerSize+int64(len(r)))
	}
	l.Close()
	seg := filepath.Join(ref, segName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := sizes[0] + sizes[1]
	for cut := lastStart + 1; cut < int64(len(full)); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segName(1)), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			l := openT(t, dir)
			defer l.Close()
			got := collect(t, l)
			if len(got) != 2 {
				t.Fatalf("replayed %d records after torn tail, want 2", len(got))
			}
			// The log must keep working at the repaired boundary.
			if err := l.Append([]byte("delta")); err != nil {
				t.Fatalf("Append after repair: %v", err)
			}
			if got := collect(t, l); len(got) != 3 || string(got[2]) != "delta" {
				t.Fatalf("post-repair replay %q", got)
			}
		})
	}
}

// TestBitflipIsCorrupt: flipping one payload bit of a fully-written record
// must fail Open with ErrCorrupt — never be dropped as a torn tail — for
// both a middle record and the final one.
func TestBitflipIsCorrupt(t *testing.T) {
	for _, victim := range []int{0, 2} {
		victim := victim
		t.Run(fmt.Sprintf("record=%d", victim), func(t *testing.T) {
			dir := t.TempDir()
			l := openT(t, dir)
			var offs []int64
			off := int64(0)
			for i := 0; i < 3; i++ {
				p := []byte(fmt.Sprintf("payload-%d", i))
				offs = append(offs, off)
				off += headerSize + int64(len(p))
				if err := l.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			seg := filepath.Join(dir, segName(1))
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			data[offs[victim]+headerSize] ^= 0x40 // first payload byte
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open after bitflip: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestAbsurdLengthIsCorrupt: a header claiming a record larger than
// MaxRecord is corruption, not a torn tail.
func TestAbsurdLengthIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MaxRecord+1)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open: %v, want ErrCorrupt", err)
	}
}

// TestRecordSpansReadBuffer: records larger than the replay read buffer
// round-trip intact (the framing reader must handle payloads spanning
// many buffered reads).
func TestRecordSpansReadBuffer(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	big := make([]byte, replayBufSize*3+17)
	for i := range big {
		big[i] = byte(i * 131)
	}
	if err := l.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(big); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l = openT(t, dir)
	defer l.Close()
	got := collect(t, l)
	if len(got) != 3 || !bytes.Equal(got[1], big) || string(got[2]) != "after" {
		t.Fatalf("big-record replay wrong: %d records", len(got))
	}
}

// TestRotatePrune: rotation starts a new segment, replay still sees both
// generations, and Prune keeps only the active segment's records.
func TestRotatePrune(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	defer l.Close()
	if err := l.Append([]byte("old-1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("old-2")); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if err := l.Append([]byte("new-1")); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l)
	if len(got) != 3 {
		t.Fatalf("post-rotate replay %d records, want 3", len(got))
	}
	if err := l.Prune(); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	got = collect(t, l)
	if len(got) != 1 || string(got[0]) != "new-1" {
		t.Fatalf("post-prune replay %q", got)
	}
	seqs, err := segments(dir)
	if err != nil || len(seqs) != 1 {
		t.Fatalf("segments after prune: %v, %v", seqs, err)
	}
}

// TestReopenAfterRotate: a crash between Rotate and Prune replays both
// generations; a crash after Prune replays only the new one.
func TestReopenAfterRotate(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	l.Append([]byte("old"))
	l.Rotate()
	l.Append([]byte("new"))
	l.Close()

	l = openT(t, dir)
	if got := collect(t, l); len(got) != 2 {
		t.Fatalf("pre-prune reopen: %d records, want 2", len(got))
	}
	if err := l.Prune(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l = openT(t, dir)
	defer l.Close()
	if got := collect(t, l); len(got) != 1 || string(got[0]) != "new" {
		t.Fatalf("post-prune reopen: %q", got)
	}
}

// TestTornTailOnOldSegmentIsCorrupt: rotation fsyncs segments in full, so
// a truncated record in a non-final segment can only mean damage — Open
// must refuse rather than silently drop an acknowledged record.
func TestTornTailOnOldSegmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	l.Append([]byte("old-record"))
	l.Rotate()
	l.Append([]byte("new-record"))
	l.Close()
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open: %v, want ErrCorrupt", err)
	}
}

// TestConcurrentAppends: many goroutines appending through group commit
// all become durable and replay exactly once each.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	var fsyncs int
	var mu sync.Mutex
	l, err := Open(dir, Options{OnFsync: func(time.Duration) {
		mu.Lock()
		fsyncs++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	l = openT(t, dir)
	defer l.Close()
	seen := make(map[string]bool)
	for _, p := range collect(t, l) {
		if seen[string(p)] {
			t.Fatalf("duplicate record %q", p)
		}
		seen[string(p)] = true
	}
	if len(seen) != writers*per {
		t.Fatalf("replayed %d unique records, want %d", len(seen), writers*per)
	}
	mu.Lock()
	defer mu.Unlock()
	if fsyncs == 0 {
		t.Fatal("OnFsync never observed")
	}
}

// TestWriteWaitDurableSplit: WaitDurable on an old position returns
// immediately once a later sync covered it.
func TestWriteWaitDurableSplit(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	defer l.Close()
	p1, err := l.Write([]byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := l.Write([]byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(p2); err != nil {
		t.Fatal(err)
	}
	// p1 precedes p2 in the same segment: already durable, no new fsync.
	if err := l.WaitDurable(p1); err != nil {
		t.Fatal(err)
	}
}

// TestPositionsSurviveRotation: a position taken before Rotate is durable
// after it (rotation fsyncs the old segment in full).
func TestPositionsSurviveRotation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	defer l.Close()
	p, err := l.Write([]byte("pre-rotate"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(p) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitDurable after rotate: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDurable hung on pre-rotation position")
	}
}

// TestClosedLog: operations after Close fail with ErrClosed.
func TestClosedLog(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after close: %v", err)
	}
	if err := l.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate after close: %v", err)
	}
	if err := l.Prune(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Prune after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestOversizePayloadRejected: the writer enforces MaxRecord.
func TestOversizePayloadRejected(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	defer l.Close()
	if _, err := l.Write(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversize Write accepted")
	}
}

// TestOnAppendHook: the append hook observes framed sizes.
func TestOnAppendHook(t *testing.T) {
	dir := t.TempDir()
	var total int
	var mu sync.Mutex
	l, err := Open(dir, Options{OnAppend: func(n int) {
		mu.Lock()
		total += n
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("abcde")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if total != headerSize+5 {
		t.Fatalf("OnAppend total %d, want %d", total, headerSize+5)
	}
}

// FuzzWALRecord fuzzes the record codec both directions, through the
// decoder replay reads with: every payload must round-trip
// byte-identically through appendRecord/readRecord, two frames back to
// back must read as two records and then a clean end, and any single-byte
// corruption of the frame must be rejected — readRecord either errors or,
// for a corrupted length prefix that still frames a record, yields a
// payload that fails to match (the CRC must catch it).
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte(nil), uint16(0), byte(0))
	f.Add([]byte("hello"), uint16(2), byte(0x01))
	f.Add(make([]byte, 300), uint16(9), byte(0x80))
	f.Fuzz(func(t *testing.T, payload []byte, pos uint16, flip byte) {
		frame := appendRecord(nil, payload)
		r := bufio.NewReader(bytes.NewReader(appendRecord(bytes.Clone(frame), payload)))
		for i := range 2 {
			got, err := readRecord(r)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("frame %d: read %d bytes (%v), want the %d-byte payload", i, len(got), err, len(payload))
			}
		}
		if _, err := readRecord(r); err != io.EOF {
			t.Fatalf("after two frames: err=%v, want io.EOF", err)
		}
		// Corruption rejection: flip one byte anywhere in the frame. A
		// corrupted length prefix may still frame a decodable record, but
		// never the original payload.
		mut := bytes.Clone(frame)
		if flip == 0 {
			flip = 0xFF
		}
		mut[int(pos)%len(mut)] ^= flip
		if p, err := readRecord(bufio.NewReader(bytes.NewReader(mut))); err == nil && bytes.Equal(p, payload) {
			t.Fatalf("corrupted frame decoded as pristine")
		}
	})
}
