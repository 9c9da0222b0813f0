package newslink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"newslink/internal/faults"
	"newslink/internal/wal"
)

// Streaming ingestion (DESIGN.md §13). Two independent options turn the
// batch-indexed engine into one that is safe and fast under a sustained
// news firehose:
//
//   - WithWAL(dir) arms a crash-safe write-ahead log: every post-Build
//     write is encoded as one record and group-commit fsynced before it is
//     acknowledged; Build and Load replay the log so acknowledged writes
//     survive a crash between snapshots, and Save rotates + prunes it so
//     the log never grows past one snapshot interval.
//
//   - WithIngestQueue(n) arms the async pipeline for Ingest alone: Ingest
//     acknowledges after durability and queueing, and a single applier
//     goroutine folds queued upserts into micro-batches — NLP/NER analysis
//     fans out across cores outside the engine lock, then the whole batch
//     is indexed under one lock acquisition and sealed as one segment,
//     which the tiered merge policy keeps compacted. A full queue sheds
//     Ingest with ErrIngestOverload instead of building an unbounded
//     backlog.
//
// Every synchronous mutation (Add, AddAll, Update, Delete, and Ingest
// without a queue) takes one path, write → writeSync → writeWindow, at
// every setting; a queued Ingest takes ingestPipeline.submit. Both log
// before they apply and acknowledge only what is durable, and both — like
// WAL replay — land in applyLocked.
//
// Lock order: walMu strictly before e.mu, everywhere. A queued Ingest
// takes its WAL record and its queue slot under walMu; a synchronous write
// first drains the queue under walMu, then logs and applies its window
// there. So WAL order, queue order and apply order are one total order —
// replaying the log over the same starting state converges to the same
// searchable state as the original run.

// WAL record ops. A record is [op byte][zigzag-varint doc ID] followed,
// for document-carrying ops, by two length-prefixed strings (title, text)
// and a zigzag-varint event timestamp (Document.Time).
const (
	walOpAdd    byte = 1 // strict add: replay skips duplicates, as Add errors on them
	walOpUpsert byte = 2 // tombstone any previous version, then add
	walOpDelete byte = 3 // tombstone: replay skips unknown IDs, as Delete errors on them
)

// encodeWALOp renders one write as a WAL record payload.
func encodeWALOp(op byte, doc Document) []byte {
	n := 1 + binary.MaxVarintLen64
	if op != walOpDelete {
		n += 3*binary.MaxVarintLen64 + len(doc.Title) + len(doc.Text)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, op)
	buf = binary.AppendVarint(buf, int64(doc.ID))
	if op != walOpDelete {
		buf = binary.AppendUvarint(buf, uint64(len(doc.Title)))
		buf = append(buf, doc.Title...)
		buf = binary.AppendUvarint(buf, uint64(len(doc.Text)))
		buf = append(buf, doc.Text...)
		buf = binary.AppendVarint(buf, doc.Time)
	}
	return buf
}

// decodeWALOp parses one WAL record payload. The record already passed
// the log's CRC, so a malformed payload means a codec bug or version
// skew — surfaced as ErrWALCorrupt, never applied half-parsed.
func decodeWALOp(p []byte) (byte, Document, error) {
	fail := func(what string) (byte, Document, error) {
		return 0, Document{}, fmt.Errorf("%w: %s", ErrWALCorrupt, what)
	}
	if len(p) == 0 {
		return fail("empty record")
	}
	op := p[0]
	p = p[1:]
	id, n := binary.Varint(p)
	if n <= 0 {
		return fail("truncated document id")
	}
	p = p[n:]
	doc := Document{ID: int(id)}
	if op == walOpDelete {
		if len(p) != 0 {
			return fail("trailing bytes after delete")
		}
		return op, doc, nil
	}
	readString := func() (string, bool) {
		l, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return "", false
		}
		s := string(p[n : n+int(l)])
		p = p[n+int(l):]
		return s, true
	}
	var ok bool
	if doc.Title, ok = readString(); !ok {
		return fail("truncated title")
	}
	if doc.Text, ok = readString(); !ok {
		return fail("truncated text")
	}
	t, n := binary.Varint(p)
	if n <= 0 {
		return fail("truncated timestamp")
	}
	doc.Time = t
	if len(p) != n {
		return fail("trailing bytes after document")
	}
	return op, doc, nil
}

// writeOp is one mutation — the unit every write API reduces to, the WAL
// logs and the applier queues.
type writeOp struct {
	op  byte
	doc Document
}

// writeBatch bounds how many writes are analyzed at once on either path:
// one window of a synchronous batch, or one micro-batch of the ingest
// applier (indexed and sealed as a single segment).
const writeBatch = 256

// Add processes and indexes one document: NLP (Section IV), subgraph
// embedding (Section V) and both inverted indexes (Section VI). Documents
// whose entity groups yield no subgraph embedding are still text-indexed
// (their BON vector is empty). A document ID that was already added is
// rejected with ErrDuplicateID.
//
// Add also works after Build: late documents accumulate in an open segment
// that is sealed and attached (Lucene-style multi-segment reading) by the
// next Search or an explicit Refresh. Add is safe to call concurrently with
// searches and other Adds.
func (e *Engine) Add(doc Document) error {
	return e.write(walOpAdd, []Document{doc}, 1)
}

// AddAll indexes a batch of documents, running the NLP and NE components
// concurrently across workers (Section VII-G of the paper: "for processing
// corpus data, we can easily parallelize the process"). Results are
// identical to sequential Add calls in the same order; only wall-clock time
// changes. workers <= 0 selects GOMAXPROCS.
//
// The batch is indexed in windows of 256 documents, the bound the ingest
// queue's micro-batches use: one window is applied while the next is
// analyzed, so memory holds at most two windows of analysis, not the
// whole batch. After Build, the batch lands in the open segment like
// individual Adds — sealed by the next Search or Refresh, whether or not
// WithIngestQueue is armed — each window WAL-logged first under one
// group-commit fsync, so every document of an acknowledged batch survives
// a crash. Between two windows the call lets go of the log, so another
// writer, a queued Ingest or a Save may land there; log order still
// equals apply order, which is all replay needs. A duplicate document ID
// aborts the batch at the offending document; documents before it stay
// indexed and nothing after it is logged or applied (replay skips the
// duplicate the same way, converging to the state this call left behind).
func (e *Engine) AddAll(docs []Document, workers int) error {
	return e.write(walOpAdd, docs, workers)
}

// Update replaces the document with doc.ID by tombstoning the old version
// (when one exists — Update is an upsert, so a new ID is simply added) and
// indexing the new one. The replacement is atomic from a reader's point of
// view: any search sees either the old version or the new one, never both.
// Returns ErrNotBuilt before Build; use Add for initial corpus loading.
func (e *Engine) Update(doc Document) error {
	return e.write(walOpUpsert, []Document{doc}, 1)
}

// Delete tombstones a document by ID: it disappears from Search, Explain
// and ExplainDOT immediately but — Lucene deletion semantics — keeps
// counting in DF and average document length until a merge (the tiered
// policy on Refresh, or Compact) rewrites its segment. An unknown or
// already-deleted ID returns ErrUnknownDoc; an engine without Build
// returns ErrNotBuilt. Safe to call concurrently with searches — the
// tombstone is a copy-on-write swap of the published segment set.
func (e *Engine) Delete(id int) error {
	return e.write(walOpDelete, []Document{{ID: id}}, 1)
}

// Ingest enqueues one document upsert for asynchronous indexing and
// returns once the write is acknowledged: durably logged (when WithWAL is
// armed) and admitted to the bounded queue. The document becomes
// searchable when its micro-batch is applied — typically milliseconds;
// FlushIngest waits for everything admitted so far. A full queue returns
// ErrIngestOverload without logging or queueing anything; Ingest is the
// only write that sheds — the synchronous APIs never touch the queue.
//
// Without WithIngestQueue, Ingest is a synchronous upsert (Update), so
// callers can treat it as the streaming write API at either setting.
// Like Update it requires a built engine.
func (e *Engine) Ingest(doc Document) error {
	if p := e.ingest.Load(); p != nil {
		return p.submit(doc)
	}
	return e.Update(doc)
}

// write is the one entry of every synchronous mutation: the batch is
// written directly, analyzed on up to workers goroutines, whether or not
// the ingest pipeline is armed (writeWindow drains it first). A cluster
// router's engine (LoadRouted, which never arms the pipeline) takes no
// write: its documents must stay the ones its shard workers hold postings
// for.
func (e *Engine) write(op byte, docs []Document, workers int) error {
	if e.remote != nil {
		return ErrReadOnly
	}
	ops := make([]writeOp, len(docs))
	for i, doc := range docs {
		ops[i] = writeOp{op: op, doc: doc}
	}
	return e.writeSync(ops, workers)
}

// writeSync is the direct write path. It works in windows of at most
// opts.batch ops (writeBatch; the bound the ingest applier's micro-batches
// share), so a batch never holds more than two windows of analyzed
// documents: while window i is logged and applied (writeWindow), one
// goroutine analyzes window i+1 outside every lock. A batch of one window
// is analyzed and applied on the caller's goroutine alone. The first
// failing op aborts the batch: earlier windows stay applied, no later
// window is logged or applied, and the in-flight analysis is waited for
// and discarded, so no goroutine outlives the call.
func (e *Engine) writeSync(ops []writeOp, workers int) error {
	size := e.opts.batch
	if len(ops) <= size {
		return e.writeWindow(ops, e.analyzeBatch(ops, workers))
	}
	analyzed := make(chan []docTerms)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lo := 0; lo < len(ops); lo += size {
			an := e.analyzeBatch(ops[lo:min(lo+size, len(ops))], workers)
			select {
			case analyzed <- an:
			case <-stop:
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	for lo := 0; lo < len(ops); lo += size {
		if err := e.writeWindow(ops[lo:min(lo+size, len(ops))], <-analyzed); err != nil {
			return err
		}
	}
	return nil
}

// writeWindow logs and applies one window of analyzed ops. Analysis reads
// only immutable engine state, so it ran outside every lock: concurrent
// writers embed in parallel and searches are not blocked. Then, under
// walMu (log order is apply order): an armed ingest queue is drained
// first, so every Ingest logged before this window is applied before it;
// post-Build writes are logged and made durable with one group-commit
// wait for the window — pre-Build writes are not logged, the initial
// corpus is covered by Build/Save — and applied under mu. The window
// holds walMu through its own fsync, so queue admissions wait that fsync
// out, as every other writer does. Indexing is order-dependent (DocIDs
// are positional), so apply is sequential; analysis handed it each
// document's terms sorted, so it only appends postings — 3 to 6 % of
// build CPU in GOMAXPROCS=1 profiles of BenchmarkColdBuild on a 2-core
// host. The first failing op aborts the window; ops before it stay
// applied.
func (e *Engine) writeWindow(ops []writeOp, analyzed []docTerms) error {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	if e.walClosed {
		// A closed engine takes no write, built or not: its log can no
		// longer make one durable, and its documents files are closed.
		return ErrClosed
	}
	built := e.set.Load() != nil
	for _, w := range ops {
		if w.op != walOpAdd && !built {
			return ErrNotBuilt
		}
	}
	if p := e.ingest.Load(); p != nil {
		if p.closed {
			return ErrClosed
		}
		p.drainLocked()
	}
	if e.wal != nil && built {
		ops = e.cutAfterRejectedAdd(ops)
		var last wal.Pos
		for _, w := range ops {
			pos, err := e.wal.Write(encodeWALOp(w.op, w.doc))
			if err != nil {
				return err
			}
			last = pos
		}
		if err := e.wal.WaitDurable(last); err != nil {
			return err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, w := range ops {
		if err := e.applyLocked(w.op, w.doc, analyzed[i]); err != nil {
			return err
		}
	}
	return nil
}

// cutAfterRejectedAdd truncates a batch after its first add that
// applyLocked must reject, so nothing behind the aborting op is logged:
// the log then holds what was applied plus — like a failed single Add —
// the one rejected record, which replay skips. Callers hold e.walMu, which
// keeps the set of taken IDs stable between this check and the apply.
func (e *Engine) cutAfterRejectedAdd(ops []writeOp) []writeOp {
	if len(ops) < 2 {
		return ops
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	seen := make(map[int]bool, len(ops))
	for i, w := range ops {
		if w.op == walOpAdd && (seen[w.doc.ID] || e.hasDocLocked(w.doc.ID)) {
			return ops[:i+1]
		}
		seen[w.doc.ID] = true
	}
	return ops
}

// applyLocked applies one analyzed write to the open segment and the
// published set — the single op switch behind the direct path, the ingest
// applier and WAL replay. Callers hold e.mu.
func (e *Engine) applyLocked(op byte, doc Document, terms docTerms) error {
	switch op {
	case walOpAdd:
		return e.addLocked(doc, terms)
	case walOpUpsert:
		return e.upsertLocked(doc, terms)
	case walOpDelete:
		return e.deleteLocked(doc.ID)
	}
	return fmt.Errorf("%w: unknown op %d", ErrWALCorrupt, op)
}

// ingestPipeline is the armed async ingest machinery: the bounded queue
// of Ingest upserts and its single applier goroutine. Queue admission (and
// WAL logging) happens under e.walMu; the applier applies under e.mu only,
// so Save and the synchronous writes can block admissions and wait for
// the queue to drain without deadlock.
type ingestPipeline struct {
	e  *Engine
	ch chan writeOp

	// closed and enqueued are guarded by e.walMu (admission order is WAL
	// order); applied is guarded by mu, with cond broadcast per batch so
	// FlushIngest and Save's drain can wait for applied == enqueued.
	closed   bool
	enqueued int64
	mu       sync.Mutex
	applied  int64
	cond     *sync.Cond

	// drainRate is an exponentially weighted moving average of applied
	// documents per second, and lastApply the previous batch's completion
	// time; both guarded by mu. The rate feeds the HTTP layer's
	// Retry-After hint when the queue sheds (IngestRetryAfter).
	drainRate float64
	lastApply time.Time

	// done closes when the applier goroutine exits.
	done chan struct{}
}

func newIngestPipeline(e *Engine, queue int) *ingestPipeline {
	p := &ingestPipeline{
		e:    e,
		ch:   make(chan writeOp, queue),
		done: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// submit is Ingest's entry while the pipeline is armed: admission check,
// WAL logging and queueing of one upsert under one walMu critical section
// (one total order), then — outside the lock — the durability wait (group
// commit batches it with concurrent submitters).
func (p *ingestPipeline) submit(doc Document) error {
	e := p.e
	e.walMu.Lock()
	if p.closed {
		e.walMu.Unlock()
		return ErrClosed
	}
	if len(p.ch) == cap(p.ch) {
		e.walMu.Unlock()
		e.met.ingestShed.Inc()
		return ErrIngestOverload
	}
	var pos wal.Pos
	logged := false
	if e.wal != nil {
		var err error
		if pos, err = e.wal.Write(encodeWALOp(walOpUpsert, doc)); err != nil {
			e.walMu.Unlock()
			return err
		}
		logged = true
	}
	p.enqueued++
	// Cannot block: capacity was checked above and walMu serializes senders.
	p.ch <- writeOp{op: walOpUpsert, doc: doc}
	e.met.ingestQueued.Inc()
	e.met.ingestDepth.Set(int64(len(p.ch)))
	e.walMu.Unlock()
	if logged {
		return e.wal.WaitDurable(pos)
	}
	return nil
}

// run is the applier goroutine: collect up to opts.batch (writeBatch)
// queued writes, apply them as one micro-batch, repeat until the queue is
// closed (Close drains it first, so a closed channel is an empty one).
func (p *ingestPipeline) run() {
	defer close(p.done)
	for {
		first, ok := <-p.ch
		if !ok {
			return
		}
		size := p.e.opts.batch
		batch := make([]writeOp, 1, size)
		batch[0] = first
	collect:
		for len(batch) < size {
			select {
			case it, ok := <-p.ch:
				if !ok {
					break collect
				}
				batch = append(batch, it)
			default:
				break collect
			}
		}
		p.apply(batch)
	}
}

// apply indexes one micro-batch: analysis fans out across cores against
// immutable engine state, then every write lands under a single e.mu
// acquisition and the batch is sealed as one segment (refreshLocked runs
// the tiered merge policy, bounding the segment count under sustained
// ingest). The IngestApply fault point models a crash in the
// acknowledged-but-unapplied window: an injected error drops the batch
// from memory — exactly what a real crash does — and the crash-recovery
// tests prove the WAL replays it.
func (p *ingestPipeline) apply(batch []writeOp) {
	e := p.e
	if faults.Fire(faults.IngestApply) == nil {
		analyzed := e.analyzeBatch(batch, 0)
		e.mu.Lock()
		for i, it := range batch {
			// An upsert fails only before Build, and the pipeline is armed
			// only after it.
			_ = e.applyLocked(it.op, it.doc, analyzed[i])
		}
		e.refreshLocked()
		e.mu.Unlock()
	}
	e.met.ingestApplied.Add(int64(len(batch)))
	e.met.ingestDepth.Set(int64(len(p.ch)))
	now := time.Now()
	p.mu.Lock()
	p.applied += int64(len(batch))
	if !p.lastApply.IsZero() {
		// The inter-batch gap covers apply plus collection time, so
		// batch/gap is end-to-end drain throughput, not raw apply speed.
		if dt := now.Sub(p.lastApply).Seconds(); dt > 0 {
			rate := float64(len(batch)) / dt
			if p.drainRate == 0 {
				p.drainRate = rate
			} else {
				p.drainRate = 0.8*p.drainRate + 0.2*rate
			}
		}
	}
	p.lastApply = now
	p.mu.Unlock()
	p.cond.Broadcast()
}

// IngestRetryAfter estimates how long a shed writer should back off, in
// whole seconds: current queue depth over the observed drain rate,
// clamped to [1, 60]. It returns 0 while the pipeline is unarmed or has
// not applied enough batches to know its rate — callers should then fall
// back to a fixed hint.
func (e *Engine) IngestRetryAfter() int {
	p := e.ingest.Load()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	rate := p.drainRate
	p.mu.Unlock()
	return retryAfterSeconds(len(p.ch), rate)
}

// retryAfterSeconds converts a queue depth and a drain rate (docs/sec)
// into a bounded whole-second backoff hint; 0 means "no estimate".
func retryAfterSeconds(depth int, rate float64) int {
	if rate <= 0 {
		return 0
	}
	secs := int(math.Ceil(float64(depth) / rate))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// docTerms is one analyzed document as the index builders take it: its
// text terms and its node terms (core.DocEmbedding.NodeTerms), each sorted.
type docTerms struct{ text, node []string }

// analyzeBatch runs the NLP and NE components over a batch of writes
// (analyze), on up to workers goroutines (<= 0 selects GOMAXPROCS; deletes
// need no analysis) — the one fan-out behind AddAll and the ingest applier.
// Analysis, the sorts included, reads only immutable engine state, so
// searches and queue admissions proceed concurrently.
func (e *Engine) analyzeBatch(batch []writeOp, workers int) []docTerms {
	out := make([]docTerms, len(batch))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(batch) {
		workers = len(batch)
	}
	if workers <= 1 {
		for i, it := range batch {
			if it.op != walOpDelete {
				out[i] = e.analyze(it.doc.Text)
			}
		}
		return out
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = e.analyze(batch[i].doc.Text)
			}
		}()
	}
	for i, it := range batch {
		if it.op != walOpDelete {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	return out
}

// waitApplied blocks until the applier has applied at least target writes.
func (p *ingestPipeline) waitApplied(target int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.applied < target {
		p.cond.Wait()
	}
}

// drainLocked waits until every admitted write is applied. Callers hold
// e.walMu, which blocks new admissions — the applier needs only e.mu, so
// it keeps draining. Save runs this before capturing the segment set and
// rotating the log: anything admitted (and logged to the old generation)
// must be in the capture, or pruning the old generation would lose it. A
// synchronous write runs it before logging its window, so the queued
// writes logged ahead of it are applied ahead of it.
func (p *ingestPipeline) drainLocked() {
	p.waitApplied(p.enqueued)
}

// FlushIngest blocks until every write admitted before the call is
// applied and searchable. A no-op without WithIngestQueue.
func (e *Engine) FlushIngest() {
	p := e.ingest.Load()
	if p == nil {
		return
	}
	e.walMu.Lock()
	target := p.enqueued
	e.walMu.Unlock()
	p.waitApplied(target)
}

// startDurabilityLocked opens the write-ahead log (replaying whatever a
// previous run left) and arms the ingest pipeline, per the engine's
// options. Build and Load call it once the initial segment set is
// published; callers hold e.walMu (but not e.mu — replay applies records
// under e.mu itself).
func (e *Engine) startDurabilityLocked() error {
	if e.opts.walDir != "" {
		l, err := wal.Open(e.opts.walDir, wal.Options{
			OnFsync: func(d time.Duration) { e.met.walFsyncSeconds.Observe(d.Seconds()) },
			OnAppend: func(n int) {
				e.met.walAppends.Inc()
				e.met.walBytes.Add(int64(n))
			},
		})
		if err != nil {
			return walErr(err)
		}
		if err := e.replayWAL(l); err != nil {
			l.Close()
			return err
		}
		e.wal = l
	}
	if e.opts.ingestQueue > 0 {
		p := newIngestPipeline(e, e.opts.ingestQueue)
		e.ingest.Store(p)
		go p.run()
	}
	return nil
}

// walErr maps the wal package's corruption sentinel to the public one.
func walErr(err error) error {
	if errors.Is(err, wal.ErrCorrupt) {
		return fmt.Errorf("%w: %v", ErrWALCorrupt, err)
	}
	return err
}

// replayWAL applies every logged write, in log order, with the semantics
// of the original call: strict adds skip duplicates, deletes skip unknown
// IDs (both mirror an original call that returned an error without
// changing state), upserts replace. Same starting state + same record
// sequence therefore converges to the same searchable state the original
// run had — the crash-recovery tests assert it down to search results.
func (e *Engine) replayWAL(l *wal.Log) error {
	n, err := l.Replay(func(payload []byte) error {
		op, doc, err := decodeWALOp(payload)
		if err != nil {
			return err
		}
		terms := e.analyzeBatch([]writeOp{{op: op, doc: doc}}, 1)[0]
		e.mu.Lock()
		defer e.mu.Unlock()
		err = e.applyLocked(op, doc, terms)
		if errors.Is(err, ErrDuplicateID) || errors.Is(err, ErrUnknownDoc) {
			return nil // the original call failed the same way, changing nothing
		}
		return err
	})
	if err != nil {
		return walErr(err)
	}
	if n > 0 {
		e.met.walReplayed.Add(int64(n))
		e.mu.Lock()
		e.refreshLocked()
		e.mu.Unlock()
	}
	return nil
}

// stopIngest shuts the pipeline and the log down: drain the queue, stop
// the applier, close the log. Called by Close; further writes return
// ErrClosed.
func (e *Engine) stopIngest() error {
	if p := e.ingest.Load(); p != nil {
		e.FlushIngest()
		e.walMu.Lock()
		if !p.closed {
			p.closed = true
			close(p.ch)
		}
		e.walMu.Unlock()
		<-p.done
	}
	e.walMu.Lock()
	defer e.walMu.Unlock()
	e.walClosed = true
	if e.wal != nil {
		err := e.wal.Close()
		e.wal = nil
		return err
	}
	return nil
}
