package newslink

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"newslink/internal/corpus"
	"newslink/internal/faults"
	"newslink/internal/kg"
)

// Crash-recovery and backpressure tests for the streaming ingest pipeline
// (WithWAL / WithIngestQueue). "Crash" means abandoning an engine without
// Close — goroutines and file handles die with the process in reality; in
// tests the abandoned applier idles harmlessly on an empty queue — and
// recovery means constructing a fresh engine over the same WAL directory
// and the same starting corpus, exactly what a restarted process does.

// streamDoc derives the i-th streamed document from the sample corpus:
// real entity-bearing text under a fresh ID, so every ingested document
// exercises NER and embedding like a live article would.
func streamDoc(arts []corpus.Article, i int) Document {
	a := arts[i%len(arts)]
	return Document{
		ID:    1000 + i,
		Title: fmt.Sprintf("stream %d: %s", i, a.Title),
		Text:  a.Text,
	}
}

// withWriteBatch lowers the write batch bound (writeBatch, 256) to n, so
// a test gets many synchronous windows and ingest micro-batches out of a
// few documents.
func withWriteBatch(n int) Option {
	return optionFunc(func(o *engineOptions) { o.batch = n })
}

// walEngine builds an engine over the sample corpus with the WAL (and
// optionally the ingest queue) armed at dir.
func walEngine(t *testing.T, dir string, extra ...Option) *Engine {
	t.Helper()
	g, arts := corpus.Sample()
	e := New(g, append([]Option{Option(DefaultConfig()), WithWAL(dir)}, extra...)...)
	for _, a := range arts {
		if err := e.Add(Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	return e
}

// liveDocSet reads back every live document (ID -> title) through the
// public state of the engine.
func liveDocSet(t *testing.T, e *Engine) map[int]string {
	t.Helper()
	e.Refresh()
	s := e.set.Load()
	if s == nil {
		t.Fatal("engine not built")
	}
	out := make(map[int]string)
	for _, sg := range s.segs {
		for j := range sg.numDocs() {
			if !sg.dead.Get(j) {
				d, err := sg.doc(j)
				if err != nil {
					t.Fatal(err)
				}
				out[d.ID] = d.Title
			}
		}
	}
	return out
}

// walSegments lists the wal-*.log files at dir.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestIngestPipelineServes: the full pipeline path — Ingest acks, the
// applier batches, seals and merges, searches see the documents after
// FlushIngest, and the metrics account for every write.
func TestIngestPipelineServes(t *testing.T) {
	dir := t.TempDir()
	e := walEngine(t, dir, WithIngestQueue(64), withWriteBatch(8))
	defer e.Close()
	_, arts := corpus.Sample()
	const n = 40
	for i := 0; i < n; i++ {
		if err := e.Ingest(streamDoc(arts, i)); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	e.FlushIngest()
	if got := e.NumDocs(); got != len(arts)+n {
		t.Fatalf("NumDocs = %d, want %d", got, len(arts)+n)
	}
	res, err := e.Search("Taliban conflict in Upper Dir and Swat Valley", 10)
	if err != nil {
		t.Fatal(err)
	}
	foundStream := false
	for _, r := range res {
		if r.ID >= 1000 {
			foundStream = true
		}
	}
	if !foundStream {
		t.Fatalf("no streamed document ranked: %+v", res)
	}
	if got := e.met.ingestQueued.Value(); got != n {
		t.Fatalf("ingest_queued = %d, want %d", got, n)
	}
	if got := e.met.ingestApplied.Value(); got != n {
		t.Fatalf("ingest_applied = %d, want %d", got, n)
	}
	if got := e.met.walAppends.Value(); got != n {
		t.Fatalf("wal_appends = %d, want %d", got, n)
	}
}

// TestIngestCrashRecoveryConverges: histories of queued and synchronous
// writes — each synchronous write must see every Ingest logged before it
// applied, or a Delete finds nothing to delete and an AddAll no duplicate
// to stop at — leave the same state on the wal execution, through its
// queue and after a crash replays its log, as on the others; every
// acknowledged write survives, and nothing behind a rejected document
// comes back.
func TestIngestCrashRecoveryConverges(t *testing.T) {
	for name, h := range map[string]string{
		"ingest":                           "addall 0-7; build; ingest 8-32; crash 33; compact",
		"ingest-delete-update-interleaved": "addall 0-7; build; ingest 8, delete 8, ingest 8, update 8, addall 9 8 10; crash 11; compact",
		"batch-duplicate-update-delete":    "addall 0-7; build; addall 8 9 10 9 11; update 8, delete 10; crash 12; compact",
	} {
		t.Run(name, func(t *testing.T) { runHistory(t, h) })
	}
}

// TestQueuedEngineAddAllKeepsWindows: arming the ingest queue does not
// change how a synchronous batch is written. A post-Build AddAll of 500
// documents lands in the open segment in windows of 256 — one group-commit
// fsync per window, no seal until Refresh — as it does without the queue.
func TestQueuedEngineAddAllKeepsWindows(t *testing.T) {
	w := kg.Generate(kg.DefaultConfig(23))
	const initial, n = 20, 500
	arts := corpus.Generate(w, corpus.CNNLike(), initial+n, 23)
	docs := make([]Document, len(arts))
	for i, a := range arts {
		docs[i] = Document{ID: a.ID, Title: a.Title, Text: a.Text, Time: a.Time}
	}
	e := New(w.Graph, DefaultConfig(), WithWAL(t.TempDir()), WithIngestQueue(64))
	defer e.Close()
	if err := e.AddAll(docs[:initial], 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	segs, refreshes := e.NumSegments(), e.met.refreshes.Value()
	fsyncs := e.met.walFsyncSeconds.Count()
	if err := e.AddAll(docs[initial:], 0); err != nil {
		t.Fatal(err)
	}
	if got := e.NumSegments(); got != segs {
		t.Fatalf("NumSegments = %d after AddAll, want %d until Refresh", got, segs)
	}
	if got := e.met.refreshes.Value() - refreshes; got != 0 {
		t.Fatalf("AddAll sealed %d times, want 0", got)
	}
	if got, max := e.met.walFsyncSeconds.Count()-fsyncs, int64((n+writeBatch-1)/writeBatch); got > max {
		t.Fatalf("AddAll of %d documents waited for %d fsyncs, want at most %d", n, got, max)
	}
	if got := e.NumDocs(); got != initial+n {
		t.Fatalf("NumDocs = %d, want %d", got, initial+n)
	}
	e.Refresh()
	if got := e.met.refreshes.Value() - refreshes; got != 1 {
		t.Fatalf("Refresh sealed %d times, want 1", got)
	}
}

// TestWALSyncPathRecovery: the synchronous writes log through the WAL
// directly, and Add, a rejected duplicate Add, Update, Delete and a
// rejected Delete all replay with their original semantics.
func TestWALSyncPathRecovery(t *testing.T) {
	runHistory(t, "addall 0-7; build; add 8-13; add 10, update 9, delete 11, delete 99; crash 12; search q=4 k=50")
}

// TestWALTornWriteRecovery: a write torn mid-record by a crash — its
// framed bytes halved on their way to disk — is dropped at recovery, as
// the unacknowledged tail, over the initial corpus and over a snapshot;
// every earlier acknowledged write survives, and the repaired log takes
// the next write, which the next crash replays.
func TestWALTornWriteRecovery(t *testing.T) {
	runHistory(t, "addall 0-7; build; add 8-12; torn 13; add 14; crash 15; search q=4 k=50; save; update 3, torn 3; ingest 16; torn 17; crash 18; search q=4 k=50")
}

// TestWALBitflipRefusesStart: a bit flipped under a fully written,
// acknowledged record surfaces as ErrWALCorrupt at recovery, with nothing
// published — never dropped like a torn tail, which would lose the
// write — whether the recovery builds the initial corpus or loads a
// snapshot; with the bit restored it recovers every write.
func TestWALBitflipRefusesStart(t *testing.T) {
	runHistory(t, "addall 0-7; build; add 8-11; flip; add 12; save; update 3, delete 9; flip; search q=4 k=50")
}

// TestWALPartialFsyncRecovery: a failing fsync refuses the ack — the
// write's fate is ambiguous — and the log stays failed, refusing the next
// write; a crash that also tears the unsynced record off the file still
// recovers every acknowledged write.
func TestWALPartialFsyncRecovery(t *testing.T) {
	runHistory(t, "addall 0-7; build; add 8-11; fsync 12; search q=4 k=50; add 12; save; ingest 13; fsync 3; crash 14; search q=4 k=50")
}

// TestIngestAckedNeverLost: the acknowledged-but-unapplied window — WAL
// durable, ack returned, the micro-batch dropped before the applier
// indexed it — is exactly what the WAL exists for: the crashed engine
// does not hold the documents, and recovery replays them.
func TestIngestAckedNeverLost(t *testing.T) {
	runHistory(t, "addall 0-7; build; ingest 8-11, crash 12; search q=4 k=50")
}

// TestReplaySnapshotReplay: the full durability cycle — ingest, snapshot
// (rotating and pruning the log), more ingest, crash, Load over the
// snapshot replaying only the post-snapshot generation, more ingest —
// converges with the executions that never crashed.
func TestReplaySnapshotReplay(t *testing.T) {
	runHistory(t, "addall 0-7; build; ingest 8-17; save; ingest 18-26; crash 27; ingest 28-32; compact")
}

// TestIngestBackpressure: a full queue sheds with ErrIngestOverload
// instead of queueing unboundedly, counts the sheds, and every
// acknowledged write still lands.
func TestIngestBackpressure(t *testing.T) {
	dir := t.TempDir()
	_, arts := corpus.Sample()
	e := walEngine(t, dir, WithIngestQueue(2), withWriteBatch(2))
	defer e.Close()

	// Stall the applier so the queue can only drain slowly.
	inj := faults.New().Delay(faults.IngestApply, 30*time.Millisecond)
	faults.Arm(inj)
	defer faults.Disarm()

	acked, shed := 0, 0
	for i := 0; i < 40; i++ {
		err := e.Ingest(streamDoc(arts, i))
		switch {
		case err == nil:
			acked++
		case errors.Is(err, ErrIngestOverload):
			shed++
		default:
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	if shed == 0 {
		t.Fatal("queue of 2 with a stalled applier shed nothing across 40 writes")
	}
	if acked == 0 {
		t.Fatal("every write shed — the queue never drained")
	}
	faults.Disarm()
	e.FlushIngest()
	if got := e.NumDocs() - len(arts); got != acked { // the stream's IDs are fresh
		t.Fatalf("%d acked writes, %d present after flush", acked, got)
	}
	if got := e.met.ingestShed.Value(); got != int64(shed) {
		t.Fatalf("ingest_shed_total = %d, want %d", got, shed)
	}
}

// TestIngestWithoutQueueIsSynchronousUpsert: Ingest without
// WithIngestQueue behaves exactly like Update.
func TestIngestWithoutQueueIsSynchronousUpsert(t *testing.T) {
	runHistory(t, "addall 0-7; build; ingest 20, search q=4; ingest 20, ingest 3; search q=4 k=50")
}

// TestWriteAfterCloseFails: Close drains the ingest queue and releases
// the WAL; after it every write fails with ErrClosed instead of silently
// losing durability, and a second Close is a no-op. Every write flushed
// before it is durable: the recovery holds it.
func TestWriteAfterCloseFails(t *testing.T) {
	runHistory(t, "addall 0-7; build; ingest 8, ingest 9, close; search q=4 k=50; save; ingest 10, update 3, close; search q=4 k=50")
}

// TestClosedUnbuiltEngineRefusesWrites: an engine closed before it was
// built refuses every write with ErrClosed, not ErrNotBuilt: closed is the
// state it can never leave.
func TestClosedUnbuiltEngineRefusesWrites(t *testing.T) {
	g, _ := corpus.Sample()
	e := New(g, DefaultConfig())
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	doc := Document{ID: 1, Title: "Taliban", Text: "The Taliban in Lahore."}
	for name, write := range map[string]func() error{
		"Update": func() error { return e.Update(doc) },
		"Delete": func() error { return e.Delete(doc.ID) },
		"Ingest": func() error { return e.Ingest(doc) },
	} {
		if err := write(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s on a closed, never-built engine: %v, want ErrClosed", name, err)
		}
	}
}

// TestLoadAppliesRuntimeOptions: Load now honors runtime options — the
// historical bug was a snapshot-restored daemon silently dropping every
// -wal/-embed-cache style flag.
func TestLoadAppliesRuntimeOptions(t *testing.T) {
	snapDir := filepath.Join(t.TempDir(), "snap")
	g, _ := corpus.Sample()
	e := sampleEngine(t, DefaultConfig())
	if err := e.Save(snapDir); err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	e2, err := Load(snapDir, g, WithWAL(walDir), WithIngestQueue(4))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.ingest.Load() == nil {
		t.Fatal("Load dropped WithIngestQueue")
	}
	if e2.wal == nil {
		t.Fatal("Load dropped WithWAL")
	}
	if segs := walSegments(t, walDir); len(segs) != 1 {
		t.Fatalf("wal not opened at %s: %v", walDir, segs)
	}
}
