package newslink

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newslink/internal/core"
	"newslink/internal/corpus"
	"newslink/internal/faults"
	"newslink/internal/index"
	"newslink/internal/kg"
	"newslink/internal/search"
)

// The model-based history test (DESIGN.md §7). A history is a sequence of
// steps of one or a few operations — the writes add, addall, update,
// delete and ingest; the lifecycle build, refresh, compact, save and
// crash; the reads search, related and explain; the storage faults torn,
// fsync, flip, savefail, installfail, truncate and close — written as one
// line of text ("addall 0-5; build; update 3, delete 3; search q=2 k=3
// ent=1; torn 4") so that a failing history can be read, replayed and
// kept. runModel applies every step to four executions of the engine:
//
//	memory    never reloaded; its addall is one Add per document, so the
//	          batched write path is held to the simplest one
//	reloaded  replaced by Load of its own snapshot at every save
//	wal       WithWAL, WithIngestQueue and withWriteBatch(3): ingest is
//	          queued, and a crash drops an acknowledged micro-batch at the
//	          IngestApply fault point, abandons the engine and recovers a
//	          new one by replaying the log over its last snapshot
//	sharded   from every save on, LoadRouted over LoadSegments slices of
//	          the memory execution's snapshot through localTraverse; it
//	          refuses every write and serves that snapshot until the next
//	          save
//
// After every step each execution is checked against the model — the live
// documents by ID, pending or sealed, their positions, tombstones, time
// column and length folds (the invariants of a published set) — every
// segment's indexes against a build over its documents, and its Search and
// Related answers must be DeepEqual, score bits included, to a reference
// rebuilt from scratch: the set's documents in position order,
// dead ones included so the corpus statistics are Lucene's without
// simulating the merge policy, analyzed by e.analyze into one index.Builder
// pair, masked by the model's liveness and the request's filter, and
// ranked by search.TopK, search.Fuse and referenceSnippet — and each of
// their results must be one the execution serves (checkServed). Executions
// that hold a document explain it, and draw it (ExplainDOT), alike, twice
// in a row; executions that share a segment structure save byte-identical
// snapshots, a save keeps the bytes of every artifact that survives it,
// and Compact makes the wal execution converge to the memory one's
// structure. A fault step leaves every execution checkable exactly again
// by the end of its step.

// modelWorld is the corpus and the read parameters every history draws
// on. A history names them by index, so it stays a short line of text.
type modelWorld struct {
	g       *kg.Graph
	arts    []corpus.Article
	queries []string
	times   []int64  // after=i and before=i bound at times[i]; times[0] = 0 is unbounded
	labels  []string // ent=i requires labels[i]; labels[0] resolves to no node
}

var theModelWorld = sync.OnceValue(func() *modelWorld {
	w := kg.Generate(kg.DefaultConfig(19))
	// The generated articles, and one that names no entity: it embeds to
	// nothing, so it has no related news.
	arts := append(corpus.Generate(w, corpus.CNNLike(), 64, 19), corpus.Article{
		Title: "Markets", Text: "Quarterly earnings beat expectations. Analysts were surprised by the rally."})
	mw := &modelWorld{g: ambiguous(w), arts: arts, times: []int64{0}, labels: []string{"No Such Entity Anywhere"},
		queries: []string{"clashes near the border", "ceasefire talks resume", "minister parliament vote",
			"xyzzy nosuchterm anywhere", arts[0].Title, arts[21].Title, arts[42].Title}}
	for i := 1; i < 8; i++ {
		mw.times = append(mw.times, arts[i*len(arts)/8].Time)
	}
	for _, ev := range w.Events[:3] {
		mw.labels = append(mw.labels, w.Graph.Label(ev.Participants[0]))
	}
	return mw
})

// ambiguous returns w's graph with the label of the first event's location
// given to another place of its country as well: one label then names two
// nodes at the same distance from a third, the tie an explanation must
// break the same way on every run. The articles and the query arts[0]'s
// title name that location.
func ambiguous(w *kg.World) *kg.Graph {
	g, ev := w.Graph, w.Events[0]
	var buf bytes.Buffer
	if err := kg.Write(&buf, g); err != nil {
		panic(err)
	}
	for k := range g.Degree(ev.Country) {
		if to := g.Arc(ev.Country, k).To; to != ev.Location && g.Node(to).Kind == g.Node(ev.Location).Kind {
			fmt.Fprintf(&buf, "A\t%d\t%s\n", to, g.Label(ev.Location))
			break
		}
	}
	out, err := kg.Read(&buf)
	if err != nil {
		panic(err)
	}
	return out
}

type opKind uint8

const (
	opAdd opKind = iota
	opAddAll
	opUpdate
	opDelete
	opIngest
	opBuild
	opRefresh
	opCompact
	opSave
	opCrash
	opSearch
	opRelated
	opExplain
	opTorn
	opFsync
	opFlip
	opSaveFail
	opInstallFail
	opTruncate
	opClose
)

var opNames = [...]string{"add", "addall", "update", "delete", "ingest", "build", "refresh", "compact",
	"save", "crash", "search", "related", "explain", "torn", "fsync", "flip", "savefail", "installfail",
	"truncate", "close"}

// op is one operation of a history. ids are the documents it writes — one
// call per ID, except addall's one batch — or the document it reads, or
// the write torn and fsync fail.
type op struct {
	kind          opKind
	ids           []int
	art           int      // truncate's artifact kind, an index into segmentSuffixes
	q, k, pool    int      // query (modelWorld.queries), k (0 = 10), pool override (0 = the engine's)
	beta          *float64 // nil = the engine's
	after, before int      // indexes into modelWorld.times
	ents          []int    // indexes into modelWorld.labels
}

// history is a sequence of steps; every check runs after a whole step.
type history [][]op

func (o op) String() string {
	var b strings.Builder
	b.WriteString(opNames[o.kind])
	for _, id := range o.ids {
		fmt.Fprintf(&b, " %d", id)
	}
	if o.kind == opTruncate {
		b.WriteString(" " + segmentSuffixes[o.art])
	}
	for _, kv := range []struct {
		name string
		v    int
	}{{"q", o.q}, {"k", o.k}, {"pool", o.pool}, {"after", o.after}, {"before", o.before}} {
		if kv.v != 0 {
			fmt.Fprintf(&b, " %s=%d", kv.name, kv.v)
		}
	}
	if o.beta != nil {
		fmt.Fprintf(&b, " beta=%g", *o.beta)
	}
	for i, e := range o.ents {
		fmt.Fprintf(&b, "%s%d", map[bool]string{true: " ent=", false: "+"}[i == 0], e)
	}
	return b.String()
}

func (h history) String() string {
	steps := make([]string, len(h))
	for i, step := range h {
		ops := make([]string, len(step))
		for j, o := range step {
			ops[j] = o.String()
		}
		steps[i] = strings.Join(ops, ", ")
	}
	return strings.Join(steps, "; ")
}

// parseHistory reads a history in the form String writes: steps separated
// by ";" or newlines, the operations of a step by ",", "a-b" for a run of
// IDs, and an artifact kind by its suffix. The read parameters index the
// model world's tables unchecked.
func parseHistory(s string) (history, error) {
	var h history
	for _, st := range strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == '\n' }) {
		var step []op
		for _, text := range strings.Split(st, ",") {
			f := strings.Fields(text)
			if len(f) == 0 {
				continue
			}
			kind := slices.Index(opNames[:], f[0])
			o := op{kind: opKind(kind)}
			ints := map[string]*int{"q": &o.q, "k": &o.k, "pool": &o.pool, "after": &o.after, "before": &o.before}
			var err error
			for _, arg := range f[1:] {
				if err != nil {
					break
				}
				key, val, isKV := strings.Cut(arg, "=")
				var n, m int
				switch {
				case slices.Contains(segmentSuffixes[:], arg):
					o.art = slices.Index(segmentSuffixes[:], arg)
				case !isKV:
					lo, hi, isRun := strings.Cut(arg, "-")
					if n, err = strconv.Atoi(lo); err == nil && isRun {
						m, err = strconv.Atoi(hi)
					} else {
						m = n
					}
					for id := n; id <= m; id++ {
						o.ids = append(o.ids, id)
					}
				case key == "beta":
					o.beta = new(float64)
					*o.beta, err = strconv.ParseFloat(val, 64)
				case key == "ent":
					for _, e := range strings.Split(val, "+") {
						n, err = strconv.Atoi(e)
						o.ents = append(o.ents, n)
					}
				case ints[key] != nil:
					*ints[key], err = strconv.Atoi(val)
				default:
					err = errors.New("unknown parameter")
				}
			}
			if kind < 0 || err != nil {
				return nil, fmt.Errorf("%q: %v", text, err)
			}
			step = append(step, o)
		}
		if len(step) > 0 {
			h = append(h, step)
		}
	}
	return h, nil
}

// modelIDs bounds the IDs a generated history writes: small enough that
// adds meet live documents and deletes meet dead ones.
const modelIDs = 24

// historyGen draws a history from a byte string, the fuzzer's input:
// each byte is one choice, and an exhausted input draws zeros. It tracks
// which IDs are live, so that most writes take the path they aim at and
// one in six deliberately does not.
type historyGen struct {
	data []byte
	live map[int]bool
}

func (g *historyGen) intn(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

// id draws a live ID when live is set (and one exists), a free one
// otherwise — the other kind one time in six.
func (g *historyGen) id(live bool) int {
	if g.intn(6) == 0 {
		live = !live
	}
	ids := make([]int, 0, modelIDs)
	for id := range modelIDs {
		if g.live[id] == live {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return g.intn(modelIDs)
	}
	return ids[g.intn(len(ids))]
}

func (g *historyGen) read(o op) op {
	mw := theModelWorld()
	o.k = []int{1, 3, 10, 50}[g.intn(4)]
	o.pool = []int{0, 0, 1, 10, 1000}[g.intn(5)]
	if g.intn(2) == 0 {
		o.after, o.before = g.intn(len(mw.times)), g.intn(len(mw.times))
		if g.intn(2) == 0 {
			o.ents = []int{g.intn(len(mw.labels))}
		}
	}
	return o
}

func (g *historyGen) op() op {
	mw := theModelWorld()
	switch w := g.intn(100); {
	case w < 14:
		id := g.id(false)
		g.live[id] = true
		return op{kind: opAdd, ids: []int{id}}
	case w < 20:
		o := op{kind: opAddAll}
		for n := 2 + g.intn(4); n > 0; n-- {
			o.ids = append(o.ids, g.id(false))
		}
		for _, id := range o.ids {
			if g.live[id] {
				break // the batch stops at its first duplicate
			}
			g.live[id] = true
		}
		return o
	case w < 38:
		id := g.id(true)
		kind := []opKind{opUpdate, opIngest, opIngest, opCrash}[g.intn(4)]
		g.live[id] = true
		return op{kind: kind, ids: []int{id}}
	case w < 48:
		id := g.id(true)
		delete(g.live, id)
		return op{kind: opDelete, ids: []int{id}}
	case w < 55:
		return op{kind: opRefresh}
	case w < 58:
		return op{kind: opCompact}
	case w < 63:
		return op{kind: opSave}
	case w < 69:
		o := op{kind: opTorn + opKind(g.intn(int(opClose-opTorn)+1))}
		switch o.kind {
		case opTorn, opFsync:
			o.ids = []int{g.id(true)} // a write that never happens: live is unchanged
		case opTruncate:
			o.art = g.intn(len(segmentSuffixes))
		}
		return o
	case w < 81:
		o := g.read(op{kind: opSearch, q: g.intn(len(mw.queries))})
		o.beta = []*float64{nil, nil, ptr(0.0), ptr(0.5), ptr(1.0)}[g.intn(5)]
		return o
	case w < 91:
		return g.read(op{kind: opRelated, ids: []int{g.id(true)}})
	default:
		o := g.read(op{kind: opExplain, q: g.intn(len(mw.queries)), ids: []int{g.id(true)}})
		o.k, o.pool = 0, 0
		return o
	}
}

func ptr[T any](v T) *T { return &v }

// genHistory draws a history from data: a pre-Build batch, Build, then up
// to 80 steps of one to three operations while the input lasts.
func genHistory(data []byte) history {
	g := &historyGen{data: data, live: map[int]bool{}}
	init := op{kind: opAddAll}
	for id := range 1 + g.intn(12) {
		init.ids = append(init.ids, id)
		g.live[id] = true
	}
	h := history{{init}, {{kind: opBuild}}}
	for len(g.data) > 0 && len(h) < 80 {
		step := []op{g.op()}
		for len(step) < 3 && g.intn(4) == 0 {
			step = append(step, g.op())
		}
		h = append(h, step)
	}
	return h
}

// seedBytes is 320 bytes of math/rand seeded by seed: about 45 steps.
func seedBytes(seed int64) []byte {
	data := make([]byte, 320)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// seedHistory is genHistory over seedBytes(seed).
func seedHistory(seed int64) history { return genHistory(seedBytes(seed)) }

// execution is one way of running a history.
type execution struct {
	name   string
	e      *Engine
	live   map[int]Document // the documents it must serve, by ID
	dir    string           // where it saves; the sharded one maps memory's
	shards []*Shard         // the sharded execution's slices
	moved  bool             // a save over dir or a repair replaced the documents artifacts e reads

	ref    *reference // the reference over set, at model generation gen
	refGen int
}

// reopen gives x a new engine, which maps the files now in x.dir.
func (x *execution) reopen(e *Engine) { x.e, x.moved = e, false }

// modelRun is one history in progress.
type modelRun struct {
	t       *testing.T
	mw      *modelWorld
	an      *Engine             // analysis for the reference: never built
	ana     map[string]docTerms // an.analyze by text
	checked map[*index.Index]bool

	mem, rld, wal, shd *execution

	live    map[int]Document // the model: live documents by ID
	gen     int              // bumped whenever live changes
	version map[int]int      // writes per ID, which number the documents' versions
	ids     map[int]bool     // every ID written
	built   bool
	pre     []preWrite // the writes before Build, which a recovery without a snapshot repeats
	step    int
	scratch string

	walDir   string
	walSaved bool
	slow     *faults.Injector
	resave   string  // where a fault step saves to a fresh directory
	damage   *damage // the truncate step's fault while its step lasts
	survived int     // artifacts the memory execution's saves kept under their names
	failed   int     // merges the truncate steps made fail
	counted  int     // merges and merged documents counted meanwhile

	held   []heldSet
	cur    atomic.Pointer[segmentSet] // the memory execution's set, walked by the reader
	wake   chan struct{}
	merges int64 // merges the memory execution ran
	drops  int   // fully-dead segments its deletes dropped
	shared int   // explanations that shared an entity
	reads  int   // Search and Related steps run
	found  int   // those whose memory execution returned results
}

type preWrite struct {
	o    op
	docs []Document
}

// heldSet is a published set kept across later publishes, which continue
// its time column and length folds and must never change it.
type heldSet struct {
	step  int
	set   *segmentSet
	times []int64
	pos   map[int]int
}

func (r *modelRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("step %d: %s", r.step, fmt.Sprintf(format, args...))
}

// runHistory runs the history written in s (see parseHistory). If the
// history has Search or Related steps, one of them must return results:
// rankings that all come back empty equal the reference's without showing
// anything.
func runHistory(t *testing.T, s string) *modelRun {
	t.Helper()
	h, err := parseHistory(s)
	if err != nil {
		t.Fatal(err)
	}
	r := runModel(t, h)
	if r.reads > 0 && r.found == 0 {
		t.Fatalf("none of the %d Search and Related steps returned results", r.reads)
	}
	return r
}

// runModel runs h on the four executions, checking every step. A failure
// logs the history, ready for runHistory.
func runModel(t *testing.T, h history) *modelRun {
	t.Helper()
	r := newModelRun(t)
	defer func() {
		if t.Failed() {
			t.Logf("history: %s", h)
		}
	}()
	for i, step := range h {
		r.step = i
		for _, o := range step {
			r.apply(o)
		}
		r.repair()
		r.check()
	}
	r.merges = r.mem.e.met.segmentMerges.Value()
	return r
}

func (r *modelRun) walOpts() []Option {
	return []Option{DefaultConfig(), WithWAL(r.walDir), WithIngestQueue(8), withWriteBatch(3)}
}

func newModelRun(t *testing.T) *modelRun {
	mw := theModelWorld()
	dir := t.TempDir()
	r := &modelRun{t: t, mw: mw, an: New(mw.g, DefaultConfig()), ana: map[string]docTerms{}, checked: map[*index.Index]bool{},
		live: map[int]Document{}, version: map[int]int{}, ids: map[int]bool{},
		scratch: filepath.Join(dir, "scratch"), walDir: filepath.Join(dir, "wal"), resave: filepath.Join(dir, "resave"),
		wake: make(chan struct{}, 1)}
	r.mem = &execution{name: "memory", e: New(mw.g, DefaultConfig()), live: r.live, dir: filepath.Join(dir, "memory")}
	r.rld = &execution{name: "reloaded", e: New(mw.g, DefaultConfig()), live: r.live, dir: filepath.Join(dir, "reloaded")}
	r.wal = &execution{name: "wal", e: New(mw.g, r.walOpts()...), live: r.live, dir: filepath.Join(dir, "wal-snapshot")}
	// A slow applier keeps an ingest queued while the operations behind it
	// in its step arrive.
	r.slow = faults.New().Delay(faults.IngestApply, time.Millisecond)
	faults.Arm(r.slow)
	// The reader walks the memory execution's current set while the next
	// step publishes, so under -race an append that wrote where a reader
	// reads is reported.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range r.wake {
			s := r.cur.Load()
			for pos, tm := range s.times {
				if d, err := s.doc(pos); err != nil || d.Time != tm {
					t.Errorf("reader: times[%d] = %d, document %d has %d (%v)", pos, tm, d.ID, d.Time, err)
					return
				}
			}
		}
	}()
	t.Cleanup(func() {
		close(r.wake)
		<-done
		faults.Disarm()
		r.closeSharded()
		for _, x := range []*execution{r.mem, r.rld, r.wal} {
			x.e.Close()
		}
	})
	return r
}

// execs returns the executions running, the sharded one from the first
// save on.
func (r *modelRun) execs() []*execution {
	if r.shd != nil {
		return []*execution{r.mem, r.rld, r.wal, r.shd}
	}
	return []*execution{r.mem, r.rld, r.wal}
}

func (r *modelRun) apply(o op) {
	if o.kind >= opTorn && !r.built {
		return // nothing is logged, saved or loaded before Build
	}
	if o.kind == opCompact || o.kind == opSave || o.kind == opCrash || o.kind >= opTorn {
		r.repair() // these merge, save, recover or replace what the truncate step damaged
	}
	switch o.kind {
	case opBuild:
		var want error
		if len(r.live) == 0 {
			want = ErrNoDocuments
		}
		if r.built {
			want = ErrAlreadyBuilt
		}
		for _, x := range r.execs() {
			r.expectErr(x, "build", x.e.Build(), want)
		}
		r.built = r.built || want == nil
	case opRefresh:
		for _, x := range r.execs() {
			x.e.Refresh()
		}
	case opCompact:
		r.compact()
	case opSave:
		r.save()
	case opSearch, opRelated, opExplain:
		r.read(o)
	case opTorn, opFsync, opFlip:
		r.walFault(o)
	case opSaveFail:
		r.saveFault("savefail", faults.SaveWrite)
	case opInstallFail:
		r.saveFault("installfail", faults.SaveRename)
	case opTruncate:
		r.truncate(o.art)
	case opClose:
		r.close()
	case opAddAll:
		r.write(o)
	default:
		for _, id := range o.ids {
			r.write(op{kind: o.kind, ids: []int{id}})
		}
	}
}

// doc returns the next version of document id: its title numbers the
// version, and its text and time are an article's.
func (r *modelRun) doc(id int) Document {
	r.version[id]++
	v := r.version[id]
	a := r.mw.arts[(id*7+v*3)%len(r.mw.arts)]
	return Document{ID: id, Title: fmt.Sprintf("doc %d v%d", id, v), Text: a.Text, Time: a.Time}
}

// expect applies a write to the model and returns the error the engine
// must return for it.
func (r *modelRun) expect(o op, docs []Document) error {
	switch {
	case o.kind == opAdd || o.kind == opAddAll:
		for _, d := range docs {
			if _, ok := r.live[d.ID]; ok {
				return ErrDuplicateID // an AddAll stops here; the documents before stay
			}
			r.live[d.ID] = d
			r.gen++
		}
		return nil
	case !r.built:
		return ErrNotBuilt
	case o.kind == opDelete:
		if _, ok := r.live[docs[0].ID]; !ok {
			return ErrUnknownDoc
		}
		delete(r.live, docs[0].ID)
	default:
		r.live[docs[0].ID] = docs[0]
	}
	r.gen++
	return nil
}

func (r *modelRun) write(o op) {
	docs := make([]Document, len(o.ids))
	for i, id := range o.ids {
		r.ids[id] = true
		docs[i] = Document{ID: id}
		if o.kind != opDelete {
			docs[i] = r.doc(id)
		}
	}
	want := r.expect(o, docs)
	if !r.built {
		r.pre = append(r.pre, preWrite{o, docs})
	}
	for _, x := range r.execs() {
		switch {
		case x == r.shd:
			r.expectErr(x, o.String(), r.call(x, o, docs), ErrReadOnly)
		case x == r.wal && o.kind == opCrash && r.built:
			r.crash(docs[0])
		case x == r.mem && o.kind == opDelete:
			before := x.e.NumSegments()
			r.expectErr(x, o.String(), r.call(x, o, docs), want)
			if x.e.NumSegments() < before {
				r.drops++
			}
		default:
			r.expectErr(x, o.String(), r.call(x, o, docs), want)
		}
	}
}

// call makes one write on x.
func (r *modelRun) call(x *execution, o op, docs []Document) error {
	switch o.kind {
	case opAdd:
		return x.e.Add(docs[0])
	case opAddAll:
		if x == r.mem {
			for _, d := range docs {
				if err := x.e.Add(d); err != nil {
					return err
				}
			}
			return nil
		}
		workers := 0 // GOMAXPROCS
		if x == r.wal {
			workers = 100 // clamped to the batch
		}
		return x.e.AddAll(docs, workers)
	case opUpdate:
		return x.e.Update(docs[0])
	case opDelete:
		return x.e.Delete(docs[0].ID)
	}
	return ingest(x.e, docs[0]) // ingest, and crash on every execution but wal
}

// ingest is Ingest retried while the queue sheds it: a shed write is
// neither logged nor queued, so the retry is the same write.
func ingest(e *Engine, doc Document) error {
	for {
		err := e.Ingest(doc)
		if !errors.Is(err, ErrIngestOverload) {
			return err
		}
		e.FlushIngest()
	}
}

func (r *modelRun) expectErr(x *execution, what string, err, want error) {
	r.t.Helper()
	if (want == nil) != (err == nil) || !errors.Is(err, want) {
		r.fatalf("%s: %s: error %v, want %v", x.name, what, err, want)
	}
}

// crash is the wal execution's crash: an Ingest is acknowledged, its
// micro-batch dropped at the IngestApply fault point, and the engine
// abandoned and recovered (restart).
func (r *modelRun) crash(doc Document) {
	x := r.wal
	inj := faults.New().Fail(faults.IngestApply, errFault)
	faults.Arm(inj)
	err := ingest(x.e, doc)
	x.e.FlushIngest()
	faults.Arm(r.slow)
	r.expectErr(x, "crash", err, nil)
	if inj.Hits(faults.IngestApply) == 0 {
		r.fatalf("crash: the applier never reached the fault point")
	}
	if s := x.e.set.Load(); s != nil {
		if pos, ok := s.position(doc.ID); ok && r.stored(s.doc(pos)) == doc {
			r.fatalf("crash: the dropped micro-batch was applied")
		}
	}
	r.restart("crash")
}

// errFault is the error of every fault point a fault step fails.
var errFault = errors.New("injected fault")

// restart abandons the wal execution's engine as a dead process leaves it
// and recovers a new one (recoverWAL). The abandoned engine is closed only
// after recovery, so replay never reads what Close would have drained or
// synced.
func (r *modelRun) restart(what string) {
	e, err := r.recoverWAL()
	if err != nil {
		r.fatalf("%s: recovering: %v", what, err)
	}
	dead := r.wal.e
	r.wal.reopen(e)
	if err := dead.Close(); err != nil {
		r.fatalf("%s: closing the abandoned engine: %v", what, err)
	}
}

// recoverWAL recovers the wal execution the way a restarted process does:
// Load over its last snapshot, or the writes before Build and Build,
// replaying the log either way. A recovery that fails publishes nothing:
// it returns no engine, and a failed Build closes its engine.
func (r *modelRun) recoverWAL() (*Engine, error) {
	if r.walSaved {
		return Load(r.wal.dir, r.mw.g, r.walOpts()...)
	}
	x := &execution{name: "wal", e: New(r.mw.g, r.walOpts()...)}
	for _, p := range r.pre {
		_ = r.call(x, p.o, p.docs) // its error was checked when it first ran
	}
	err := x.e.Build()
	if err == nil {
		return x.e, nil
	}
	if x.e.set.Load() != nil {
		r.fatalf("a Build that failed with %v published a set", err)
	}
	r.expectErr(x, "a retried Build", x.e.Build(), ErrClosed)
	return nil, errors.Join(err, x.e.Close())
}

// walFault fails the wal execution's log (DESIGN.md §7): torn halves the
// record of an Update on its way to disk, fsync fails its fsync — the call
// and the next write return the error — and tears the record, and flip
// flips a payload byte of the last complete record, which recovery must
// refuse before the byte is restored. Each ends in a crash and a recovery
// that holds exactly the model's writes; the other executions do nothing.
func (r *modelRun) walFault(o op) {
	x, what := r.wal, o.String()
	switch o.kind {
	case opTorn:
		r.ids[o.ids[0]] = true
		inj := faults.New().MutateN(faults.WALAppend, 1, func(b []byte) []byte { return b[:len(b)/2] })
		faults.Arm(inj)
		_ = x.e.Update(r.doc(o.ids[0])) // its caller dies before the answer
		faults.Arm(r.slow)
		if inj.Hits(faults.WALAppend) == 0 {
			r.fatalf("%s: nothing was logged", what)
		}
	case opFsync:
		r.ids[o.ids[0]] = true
		x.e.FlushIngest()
		segs := walSegments(r.t, r.walDir)
		active := segs[len(segs)-1]
		before, _ := os.Stat(active)
		faults.Arm(faults.New().Fail(faults.WALSync, errFault))
		err := x.e.Update(r.doc(o.ids[0]))
		faults.Arm(r.slow)
		r.expectErr(x, what, err, errFault)
		r.expectErr(x, what+": the next write", x.e.Update(r.doc(o.ids[0])), errFault)
		after, _ := os.Stat(active)
		if after.Size() <= before.Size() || os.Truncate(active, (before.Size()+after.Size())/2) != nil {
			r.fatalf("%s: no unsynced record to tear", what)
		}
	case opFlip:
		segs := walSegments(r.t, r.walDir)
		for i := len(segs) - 1; i >= 0; i-- {
			data, err := os.ReadFile(segs[i])
			if err != nil {
				r.fatalf("%s: %v", what, err)
			}
			if len(data) == 0 {
				continue
			}
			flip := func() {
				data[len(data)-2] ^= 0x10 // a payload byte: every payload is at least an op and an ID
				if err := os.WriteFile(segs[i], data, 0o644); err != nil {
					r.fatalf("%s: %v", what, err)
				}
			}
			flip()
			e, err := r.recoverWAL()
			if e != nil {
				e.Close()
			}
			r.expectErr(x, what+": recovery", err, ErrWALCorrupt)
			flip()
			break
		}
	}
	r.restart(what)
}

// saveFault fails the next Save of the memory, reloaded and wal executions
// at point (failingSave): each returns the injected error, and no staging
// or parked copy is left beside them.
func (r *modelRun) saveFault(what string, point faults.Point) {
	for _, x := range []*execution{r.mem, r.rld, r.wal} {
		faults.Arm(faults.New().FailN(point, 1, errFault))
		r.expectErr(x, what, r.failingSave(x, what), errFault)
		faults.Arm(r.slow)
	}
	staged, _ := filepath.Glob(filepath.Join(filepath.Dir(r.mem.dir), ".newslink-tmp-*"))
	parked, _ := filepath.Glob(filepath.Join(filepath.Dir(r.mem.dir), "*.old"))
	if left := append(staged, parked...); len(left) > 0 {
		r.fatalf("%s: the failed save left %v behind", what, left)
	}
}

// failingSave runs a Save of x to its own directory that must fail and
// returns its error. The directory keeps what it held, or stays absent,
// and the wal log keeps the generation a later crash replays.
func (r *modelRun) failingSave(x *execution, what string) error {
	files, _ := readFiles(x.dir) // none where there is no snapshot yet
	logs := walSegments(r.t, r.walDir)
	err := x.e.Save(x.dir)
	if now, _ := readFiles(x.dir); !reflect.DeepEqual(now, files) {
		r.fatalf("%s: %s: the failed save changed %s", x.name, what, x.dir)
	}
	if now := walSegments(r.t, r.walDir); x == r.wal && (len(now) != len(logs)+1 || !slices.Equal(now[:len(logs)], logs)) {
		r.fatalf("%s: the wal segments %v became %v; want the old ones kept and one rotated in", what, logs, now)
	}
	return err
}

// damage is what the truncate step emptied of the documents artifacts:
// the bytes of each file, and the documents of every segment reading one,
// which the reference reads instead (keyed by the text index that
// tombstone clones share).
type damage struct {
	xs           []*execution // the executions that read the emptied files
	files        map[string][]byte
	docs         map[*index.Index][]Document
	errs, merges int64 // the reloaded execution's failed and counted merges before
}

// damaged reports whether x may fail a read: the truncate step emptied
// documents artifacts it reads.
func (r *modelRun) damaged(x *execution) bool {
	return r.damage != nil && slices.Contains(r.damage.xs, x)
}

// anyLoaded reports whether a segment of s reads its snapshot's artifacts.
func anyLoaded(s *segmentSet) bool {
	return slices.ContainsFunc(s.segs, func(sg *segment) bool { return sg.docs.onDisk() })
}

// truncate empties one artifact kind under every execution that loaded it
// — reloaded (Load), sharded (LoadRouted) and, recovered over its
// snapshot, wal — and reads them all; its first read seals what the step
// wrote, so the merge policy may meet the damage. A loaded segment parsed
// its indexes onto the heap, so an emptied index changes no answer and
// fails nothing (indexTruncated). Its documents artifact is read per
// request: until the step ends or an operation merges, saves, recovers or
// faults (repair; DESIGN.md §7), reads of an emptied one may fail but
// never answer differently, and Compact, a Save to a fresh directory and
// one over the execution's own snapshot (failingSave) fail, publishing
// nothing.
func (r *modelRun) truncate(art int) {
	docs := segmentSuffixes[art] == docsSuffix
	xs := slices.DeleteFunc([]*execution{r.rld, r.shd, r.wal}, func(x *execution) bool {
		return x == nil || docs && x.moved || !anyLoaded(x.e.set.Load())
	})
	if len(xs) == 0 {
		return
	}
	var served map[string][]byte // the memory execution's last save, which the sharded one serves
	if !docs {
		served, _ = readFiles(r.mem.dir)
	}
	met := &r.rld.e.met
	d := &damage{xs: xs, files: map[string][]byte{}, docs: map[*index.Index][]Document{},
		errs: met.segmentMergeErrors.Value(), merges: met.segmentMerges.Value() + met.segmentMergedDocs.Value()}
	var kept []kept
	for _, x := range xs {
		for _, sg := range x.e.set.Load().segs {
			if docs && sg.docs.onDisk() {
				stored := make([]Document, sg.numDocs())
				for j := range stored {
					stored[j] = r.stored(sg.doc(j))
				}
				d.docs[sg.text] = stored
			}
		}
		if x.e.pending.Load() == 0 { // a read would seal what the step wrote before the damage
			kept = append(kept, r.keep(x))
		}
		paths, _ := filepath.Glob(filepath.Join(x.dir, "seg-*."+segmentSuffixes[art]))
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err == nil {
				d.files[path], err = data, os.Truncate(path, 0)
			}
			if err != nil {
				r.fatalf("truncate: %v", err)
			}
		}
	}
	if docs {
		r.damage = d
	}
	labels := r.mw.labels[1:]
	for i, q := range r.mw.queries {
		r.compareSearch(Query{Text: q, K: 10})
		r.compareSearch(Query{Text: q, K: 10, Beta: ptr(0.0), Entities: labels[i%len(labels) : i%len(labels)+1]})
	}
	ids := r.liveIDs()
	for _, id := range ids {
		r.compareRelated(RelatedQuery{DocID: id, K: 5})
	}
	if len(ids) > 0 {
		r.compareExplain(Query{Text: r.mw.queries[4], Entities: labels[:1]}, ids[0])
	}
	for _, x := range r.execs() {
		ref := r.reference(x)
		for pos := range ref.docs {
			if d, err := x.e.DocAt(pos); err == nil && d != ref.docs[pos] || err != nil && !r.damaged(x) {
				r.fatalf("%s: DocAt(%d) = %+v, %v; want %+v", x.name, pos, d, err, ref.docs[pos])
			}
		}
	}
	if docs {
		r.docsTruncated(xs)
	} else {
		r.indexTruncated(xs, served)
	}
	r.checkKept(kept, "the truncation")
}

// docsTruncated checks that Compact and both Saves of xs fail over their
// emptied documents artifacts, publishing nothing.
func (r *modelRun) docsTruncated(xs []*execution) {
	for _, x := range xs {
		x.e.FlushIngest()
		x.e.Refresh() // a failed Compact or Save then publishes nothing
		s := x.e.set.Load()
		bad := anyLoaded(s)
		if x != r.shd && bad && (len(s.segs) > 1 || s.deleted > 0) && x.e.Compact() == nil {
			r.fatalf("%s: Compact over a truncated artifact returned no error", x.name)
		}
		if x != r.wal { // its Save prunes the log its own snapshot still needs
			if err := x.e.Save(r.resave); (err == nil) == bad {
				r.fatalf("%s: Save to a fresh directory over a truncated artifact: %v", x.name, err)
			}
			os.RemoveAll(r.resave)
		}
		if bad && r.failingSave(x, "truncate: save") == nil {
			r.fatalf("%s: Save over its own truncated snapshot returned no error", x.name)
		}
		if x.e.set.Load() != s {
			r.fatalf("%s: a failed Compact or Save published a new set", x.name)
		}
	}
}

// indexTruncated checks that emptied indexes fail nothing: each of xs
// saves to a fresh directory (all but wal, whose Save prunes the log its
// own snapshot still needs) and over its own snapshot, rewriting the
// emptied artifacts, into the files the memory execution saves — the
// sharded one into served, the memory execution's last save — and then
// every execution compacts. A save over its own snapshot replaces the
// documents artifacts xs read too (moved).
func (r *modelRun) indexTruncated(xs []*execution, served map[string][]byte) {
	r.expectErr(r.mem, "truncate: save", r.mem.e.Save(r.scratch), nil)
	saved, _ := readFiles(r.scratch)
	for _, x := range xs {
		x.e.FlushIngest()
		save := func(dir, what string) {
			r.expectErr(x, what, x.e.Save(dir), nil)
			want := saved
			switch {
			case x == r.shd:
				want = served
			case !r.sameStructure(x, r.mem):
				return
			}
			if got, _ := readFiles(dir); !maps.EqualFunc(got, want, bytes.Equal) {
				r.fatalf("%s: %s over a truncated index wrote other files than the memory execution's save", x.name, what)
			}
		}
		if x != r.wal {
			save(r.resave, "save to a fresh directory")
			os.RemoveAll(r.resave)
		}
		save(x.dir, "save over its own snapshot")
		x.moved = true
	}
	r.compact()
}

// repair ends the truncate step's damage: the bytes go back into the same
// files, which the descriptors share, and each file is then replaced by a
// copy — removed under the engines that read it, which keep reading what
// they loaded, exactly (the step's checks) and into byte-identical saves.
// It counts the merges the damage made fail, and the merges counted
// meanwhile.
func (r *modelRun) repair() {
	d := r.damage
	if d == nil {
		return
	}
	r.damage = nil
	for path, data := range d.files {
		err := os.WriteFile(path, data, 0o644)
		if err == nil {
			err = os.Remove(path)
		}
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		if err != nil {
			r.fatalf("repair: %v", err)
		}
	}
	for _, x := range d.xs {
		x.moved = true
	}
	met := &r.rld.e.met
	r.failed += int(met.segmentMergeErrors.Value() - d.errs)
	r.counted += int(met.segmentMerges.Value() + met.segmentMergedDocs.Value() - d.merges)
	if r.shd != nil {
		r.expectErr(r.shd, "re-save", r.shd.e.Save(r.resave), nil)
		r.sameFiles(r.mem.dir, r.resave)
		os.RemoveAll(r.resave)
	}
}

// kept is what an execution answered and a printed copy of it: truncate
// and close print the answers again after the damage, and one that
// aliased a pooled read buffer or a released file would print other bytes.
type kept struct {
	x       *execution
	answers answers
	printed string
}

func (r *modelRun) keep(x *execution) kept {
	a := r.ask(x)
	return kept{x, a, fmt.Sprintf("%+v", a)}
}

func (r *modelRun) checkKept(ks []kept, since string) {
	for _, k := range ks {
		if fmt.Sprintf("%+v", k.answers) != k.printed {
			r.fatalf("%s: answers taken before %s changed", k.x.name, since)
		}
	}
}

// answers are one execution's reads of a few fixed requests.
type answers struct {
	search, related []Result
	explain         Explanation
	dot             string
	doc             Document
}

func (r *modelRun) ask(x *execution) (a answers) {
	q := r.mw.queries[4]
	a.search, _ = x.e.Search(q, 5)
	if ids := r.liveIDs(); len(ids) > 0 {
		a.related, _ = x.e.Related(ids[0], 5)
		a.explain, _ = x.e.Explain(q, ids[0], 3)
		a.dot, _ = x.e.ExplainDOT(q, ids[0], "model")
	}
	a.doc, _ = x.e.DocAt(0)
	return a
}

// close closes the reloaded, wal and sharded executions, twice — memory,
// the baseline, is never reloaded — and reopens each the way a restarted
// process does: the reloaded one by Load of a snapshot it saved just
// before, since without a log only a snapshot carries its writes across,
// the wal one by recovery over its snapshot and log, the sharded one over
// memory's last snapshot. On a closed engine every read, write, Save and
// Compact fails with ErrClosed (checkClosed), what it answered before
// reads back unchanged, and the reopened ones must hold every write the
// model holds.
func (r *modelRun) close() {
	r.expectErr(r.rld, "close: save", r.rld.e.Save(r.rld.dir), nil)
	var ks []kept
	for _, x := range []*execution{r.rld, r.wal, r.shd} {
		if x == nil {
			continue
		}
		ks = append(ks, r.keep(x))
		r.expectErr(x, "close", x.e.Close(), nil)
		r.expectErr(x, "second close", x.e.Close(), nil)
		r.checkClosed(x)
	}
	r.checkKept(ks, "Close")
	e, err := Load(r.rld.dir, r.mw.g)
	w, werr := r.recoverWAL()
	if err = errors.Join(err, werr); err != nil {
		r.fatalf("reopening: %v", err)
	}
	r.rld.reopen(e)
	r.wal.reopen(w)
	if x := r.shd; x != nil {
		r.closeSharded() // its slices too
		r.openSharded(x.live)
	}
}

// checkClosed asserts that every read and write of a closed engine, Save
// and Compact included, fails with ErrClosed — a routed engine refuses
// writes and Compact first, with ErrReadOnly — so none reads a closed
// descriptor.
func (r *modelRun) checkClosed(x *execution) {
	q, doc := r.mw.queries[4], Document{ID: modelIDs, Title: "after close", Text: r.mw.arts[0].Text}
	_, search := x.e.Search(q, 5)
	_, related := x.e.Related(0, 5)
	_, explain := x.e.Explain(q, 0, 3)
	_, dot := x.e.ExplainDOT(q, 0, "model")
	_, at := x.e.DocAt(0)
	_, _, sources := x.e.Sources()
	write := ErrClosed
	if x == r.shd {
		write = ErrReadOnly
	}
	for what, c := range map[string][2]error{"Search": {search, ErrClosed}, "Related": {related, ErrClosed},
		"Explain": {explain, ErrClosed}, "ExplainDOT": {dot, ErrClosed}, "DocAt": {at, ErrClosed}, "Sources": {sources, ErrClosed},
		"Save": {x.e.Save(r.resave), ErrClosed}, "Compact": {x.e.Compact(), write}, "Add": {x.e.Add(doc), write},
		"Ingest": {x.e.Ingest(doc), write}, "Delete": {x.e.Delete(0), write}} {
		r.expectErr(x, what+" after Close", c[0], c[1])
	}
}

// compact runs Compact everywhere: afterwards each writable execution
// holds at most one segment and no tombstone, and the wal execution has
// the memory execution's structure. Over a settled set — nothing pending,
// as at the start of every step — it merges once, rewriting every live
// document, or is a no-op that publishes nothing.
func (r *modelRun) compact() {
	for _, x := range r.execs() {
		if x == r.shd {
			r.expectErr(x, "compact", x.e.Compact(), ErrReadOnly)
			continue
		}
		if !r.built {
			r.expectErr(x, "compact", x.e.Compact(), ErrNotBuilt)
			continue
		}
		x.e.FlushIngest()
		before, settled := x.e.set.Load(), x.e.pending.Load() == 0
		merges, merged := x.e.met.segmentMerges.Value(), x.e.met.segmentMergedDocs.Value()
		r.expectErr(x, "compact", x.e.Compact(), nil)
		after := x.e.set.Load()
		if len(after.segs) > 1 || after.deleted != 0 || x.e.NumSegments() != len(after.segs) || x.e.NumDeletedDocs() != 0 {
			r.fatalf("%s: Compact left %d segments and %d tombstones", x.name, len(after.segs), after.deleted)
		}
		if !settled {
			continue
		}
		var wantMerges, wantMerged int64
		if len(before.segs) > 1 || before.deleted > 0 {
			wantMerges, wantMerged = 1, int64(after.numLive())
		} else if after != before {
			r.fatalf("%s: a no-op Compact published a new set", x.name)
		}
		if dm, dd := x.e.met.segmentMerges.Value()-merges, x.e.met.segmentMergedDocs.Value()-merged; dm != wantMerges || dd != wantMerged {
			r.fatalf("%s: Compact counted %d merges of %d documents, want %d of %d", x.name, dm, dd, wantMerges, wantMerged)
		}
	}
	if r.built && !r.sameStructure(r.wal, r.mem) {
		r.fatalf("after Compact the wal execution's structure differs from memory's")
	}
}

// save saves the memory, reloaded and wal executions; replaces the
// reloaded one by Load of its snapshot, and the sharded one by a routed
// engine over the memory one's. The snapshots of executions that share a
// structure are byte-identical, and the routed engine re-saves its
// snapshot byte for byte. A save writes every file anew, so the wal
// execution, which keeps its engine, no longer reads the files of its
// directory (moved).
func (r *modelRun) save() {
	for _, x := range []*execution{r.mem, r.rld, r.wal} {
		before, _ := readFiles(x.dir) // none where there is no snapshot yet
		err := x.e.Save(x.dir)
		if !r.built {
			r.expectErr(x, "save", err, ErrNotBuilt)
			continue
		}
		r.expectErr(x, "save", err, nil)
		// Artifacts are content-addressed: one that outlives a save keeps
		// its bytes.
		now, _ := readFiles(x.dir)
		for name, data := range before {
			saved, ok := now[name]
			if !ok || !strings.HasPrefix(name, "seg-") {
				continue
			}
			if !bytes.Equal(saved, data) {
				r.fatalf("%s: save changed the bytes of %s", x.name, name)
			}
			if x == r.mem {
				r.survived++
			}
		}
		// The save replaced the files a loaded engine reads.
		x.moved = true
	}
	if !r.built {
		return
	}
	r.walSaved = true
	switch {
	case r.sameStructure(r.rld, r.mem):
		r.sameFiles(r.mem.dir, r.rld.dir)
	case r.failed == 0: // only a merge the truncate step failed leaves them apart
		r.fatalf("the reloaded execution's structure differs from memory's")
	}
	if r.sameStructure(r.wal, r.mem) {
		r.sameFiles(r.mem.dir, r.wal.dir)
	}
	// Save rotated the log and pruned the generation the snapshot holds.
	if segs := walSegments(r.t, r.walDir); len(segs) != 1 {
		r.fatalf("wal segments after Save: %v", segs)
	}
	loaded, err := Load(r.rld.dir, r.mw.g)
	if err != nil {
		r.fatalf("reloaded: %v", err)
	}
	r.rld.e.Close()
	r.rld.reopen(loaded)
	r.checkLoaded(r.mem, false)
	r.checkLoaded(r.rld, true)
	r.closeSharded()
	r.openSharded(maps.Clone(r.live))
}

// openSharded opens the sharded execution over the memory execution's
// snapshot, which holds live, and checks that the routed engine re-saves
// that snapshot byte for byte.
func (r *modelRun) openSharded(live map[int]Document) {
	m, err := ReadManifest(r.mem.dir)
	if err != nil {
		r.fatalf("sharded: %v", err)
	}
	x := &execution{name: "sharded", live: live, dir: r.mem.dir}
	n := len(m.Segments)
	for i, parts := 0, min(3, n); i < parts; i++ {
		sh, err := LoadSegments(r.mem.dir, r.mw.g, m.Graph, m.Segments[i*n/parts:(i+1)*n/parts], m.Checksums, nil)
		if err != nil {
			r.fatalf("sharded: slice %d: %v", i, err)
		}
		x.shards = append(x.shards, sh)
	}
	x.e, err = LoadRouted(r.mem.dir, r.mw.g, localTraverse(x.shards...))
	if err != nil {
		r.fatalf("sharded: %v", err)
	}
	r.shd = x
	r.checkLoaded(x, true)
	if err := x.e.Save(r.scratch); err != nil {
		r.fatalf("sharded: re-save: %v", err)
	}
	r.sameFiles(r.mem.dir, r.scratch)
}

func (r *modelRun) closeSharded() {
	if r.shd == nil {
		return
	}
	r.shd.e.Close()
	for _, sh := range r.shd.shards {
		sh.Close()
	}
	r.shd = nil
}

// checkLoaded asserts the one shape of x's documents: every segment on
// the heap, or every one read from its snapshot's documents artifact.
func (r *modelRun) checkLoaded(x *execution, loaded bool) {
	for si, sg := range x.e.set.Load().segs {
		if sg.docs.onDisk() != loaded || (sg.docs.docs == nil) != loaded {
			r.fatalf("%s: segment %d reads its documents from disk %v, want %v", x.name, si, sg.docs.onDisk(), loaded)
		}
	}
}

// sameFiles asserts that two snapshot directories hold the same files
// with the same bytes.
func (r *modelRun) sameFiles(a, b string) {
	if err := diffDirs(a, b); err != nil {
		r.fatalf("%v", err)
	}
}

// diffDirs describes the first difference between the files of two
// directories, or returns nil when they hold the same names and bytes.
func diffDirs(a, b string) error {
	fa, err := readFiles(a)
	if err != nil {
		return err
	}
	fb, err := readFiles(b)
	if err != nil {
		return err
	}
	for name := range fb {
		if _, ok := fa[name]; !ok {
			return fmt.Errorf("%s holds %s, %s does not", b, name, a)
		}
	}
	for name, data := range fa {
		if !bytes.Equal(data, fb[name]) {
			return fmt.Errorf("%s differs between %s and %s", name, a, b)
		}
	}
	return nil
}

// readFiles returns the bytes of every file of dir by name.
func readFiles(dir string) (map[string][]byte, error) {
	ents, err := os.ReadDir(dir)
	files := make(map[string][]byte, len(ents))
	for _, ent := range ents {
		if err == nil {
			files[ent.Name()], err = os.ReadFile(filepath.Join(dir, ent.Name()))
		}
	}
	return files, err
}

// sameStructure reports whether a and b publish the same segments: the
// same documents at the same positions, tombstoned alike.
func (r *modelRun) sameStructure(a, b *execution) bool {
	sa, sb := a.e.set.Load(), b.e.set.Load()
	if sa == nil || sb == nil || len(sa.segs) != len(sb.segs) {
		return sa == sb
	}
	for i, ga := range sa.segs {
		gb := sb.segs[i]
		if ga.numDocs() != gb.numDocs() {
			return false
		}
		for j := range ga.numDocs() {
			if r.stored(ga.doc(j)) != r.stored(gb.doc(j)) || ga.dead.Get(j) != gb.dead.Get(j) {
				return false
			}
		}
	}
	return true
}

// check runs after every step: the set invariants of every execution,
// the sets the memory execution published earlier, and one search and one
// related probe against the reference.
func (r *modelRun) check() {
	if r.built {
		r.wal.e.FlushIngest()
	}
	for _, x := range r.execs() {
		r.checkSet(x)
	}
	if s := r.mem.e.set.Load(); s != nil {
		r.checkHeld()
		if r.step%12 == 0 {
			r.hold(s)
		}
		r.cur.Store(s)
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
	if !r.built {
		return
	}
	r.compareSearch(Query{Text: r.mw.queries[r.step%len(r.mw.queries)], K: 10})
	if ids := r.liveIDs(); len(ids) > 0 {
		r.compareRelated(RelatedQuery{DocID: ids[r.step%len(ids)], K: 5})
	}
}

// liveIDs returns the IDs the model holds, in order.
func (r *modelRun) liveIDs() []int {
	ids := make([]int, 0, len(r.live))
	for id := range r.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// checkSet checks the set x publishes, and its pending documents, against
// the model and against what a from-scratch walk of its segments gives:
// bases, the time column, tombstones, the position of every ID, the live
// counts, and the NumDocs and AvgDocLen bits of both raw sources against
// a fresh index.NewMulti.
func (r *modelRun) checkSet(x *execution) {
	x.e.mu.Lock()
	pending := maps.Clone(x.e.pendPos)
	pendDocs := slices.Clone(x.e.pendDocs)
	x.e.mu.Unlock()
	s := x.e.set.Load()
	if s == nil {
		if r.built {
			r.fatalf("%s: no published set after Build", x.name)
		}
		s = newSegmentSet(nil, nil)
	}
	last := map[int]int{}
	var times []int64
	var texts, nodes []index.Source
	for si, sg := range s.segs {
		if s.bases[si] != len(times) {
			r.fatalf("%s: segment %d based at %d, want %d", x.name, si, s.bases[si], len(times))
		}
		r.checkIndexes(x, sg)
		for j := range sg.numDocs() {
			if d := r.stored(sg.doc(j)); sg.times[j] != d.Time {
				r.fatalf("%s: segment %d time column differs from its document %d", x.name, si, d.ID)
			} else {
				last[d.ID] = len(times) + j
			}
		}
		times = append(times, sg.times...)
		texts, nodes = append(texts, sg.text), append(nodes, sg.node)
	}
	if !slices.Equal(s.times, times) {
		r.fatalf("%s: times differ from the concatenated segment columns", x.name)
	}
	dead := 0
	for pos := range s.numDocs {
		si, local := s.segIndexOf(pos)
		d := r.stored(s.doc(pos))
		_, inPending := pending[d.ID]
		want, live := x.live[d.ID]
		live = live && !inPending && last[d.ID] == pos
		if s.segs[si].dead.Get(local) == live {
			r.fatalf("%s: document %d at %d: tombstoned %v, the model says live %v", x.name, d.ID, pos, !live, live)
		}
		if live && d != want {
			r.fatalf("%s: document %d at %d is %+v, want %+v", x.name, d.ID, pos, d, want)
		}
		if !live {
			dead++
		}
	}
	if s.deleted != dead || s.numLive()+len(pendDocs) != len(x.live) || x.e.NumDocs() != len(x.live) {
		r.fatalf("%s: %d tombstones and %d live documents (NumDocs %d), want %d and %d",
			x.name, s.deleted, s.numLive()+len(pendDocs), x.e.NumDocs(), dead, len(x.live))
	}
	for id := range r.ids {
		pos, sealed := s.position(id)
		p, inPending := pending[id]
		want, live := x.live[id]
		switch {
		case sealed && inPending:
			r.fatalf("%s: ID %d both pending and live", x.name, id)
		case (sealed || inPending) != live:
			r.fatalf("%s: ID %d live %v, the model says %v", x.name, id, sealed || inPending, live)
		case sealed && pos != last[id]:
			r.fatalf("%s: position(%d) = %d, want %d", x.name, id, pos, last[id])
		case inPending && pendDocs[p] != want:
			r.fatalf("%s: pending document %d is %+v, want %+v", x.name, id, pendDocs[p], want)
		}
	}
	for _, c := range []struct {
		name  string
		got   index.Source
		parts []index.Source
	}{{"text", s.rawText, texts}, {"node", s.rawNode, nodes}} {
		want := index.NewMulti(c.parts...)
		if c.got.NumDocs() != want.NumDocs() || math.Float64bits(c.got.AvgDocLen()) != math.Float64bits(want.AvgDocLen()) {
			r.fatalf("%s: %s source has %d docs, avgdl %v; a fresh Multi %d, %v",
				x.name, c.name, c.got.NumDocs(), c.got.AvgDocLen(), want.NumDocs(), want.AvgDocLen())
		}
	}
}

// checkIndexes asserts that a segment's two indexes are what a Builder
// makes of its documents' analysis, byte for byte — built, merged or
// loaded, each index is a function of the text it holds, the text Explain,
// ExplainDOT and Related re-derive embeddings from. An index is checked
// once: segments are immutable, and tombstone clones share theirs.
func (r *modelRun) checkIndexes(x *execution, sg *segment) {
	if r.checked[sg.text] {
		return
	}
	r.checked[sg.text] = true
	tb, nb := index.NewBuilder(), index.NewBuilder()
	for j := range sg.numDocs() {
		a := r.analysis(r.stored(sg.doc(j)).Text)
		tb.Add(a.text)
		nb.Add(a.node)
	}
	for _, c := range [][2]*index.Index{{sg.text, tb.Build()}, {sg.node, nb.Build()}} {
		var got, want bytes.Buffer
		if _, err := c[0].WriteTo(&got); err != nil {
			r.fatalf("%s: %v", x.name, err)
		}
		c[1].WriteTo(&want)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			r.fatalf("%s: a segment's index differs from a build over its documents", x.name)
		}
	}
}

func (r *modelRun) hold(s *segmentSet) {
	h := heldSet{step: r.step, set: s, times: slices.Clone(s.times), pos: map[int]int{}}
	for id := range r.ids {
		if p, ok := s.position(id); ok {
			h.pos[id] = p
		}
	}
	r.held = append(r.held, h)
}

func (r *modelRun) checkHeld() {
	for _, h := range r.held {
		if !slices.Equal(h.set.times, h.times) {
			r.fatalf("times of the set held since step %d changed", h.step)
		}
		for id := range r.ids {
			want, held := h.pos[id]
			if got, ok := h.set.position(id); ok != held || got != want {
				r.fatalf("set held since step %d: position(%d) = %d, %v; was %d, %v", h.step, id, got, ok, want, held)
			}
		}
	}
}

// read runs a read operation on every execution.
func (r *modelRun) read(o op) {
	if !r.built {
		return
	}
	r.wal.e.FlushIngest() // a queued document is acknowledged, not yet searchable
	mw := r.mw
	var ents []string
	for _, i := range o.ents {
		ents = append(ents, mw.labels[i])
	}
	k := cmp.Or(o.k, 10)
	after, before := mw.times[o.after], mw.times[o.before]
	n := 0
	switch o.kind {
	case opSearch:
		n = r.compareSearch(Query{Text: mw.queries[o.q], K: k, PoolDepth: o.pool, Beta: o.beta, After: after, Before: before, Entities: ents})
	case opRelated:
		n = r.compareRelated(RelatedQuery{DocID: o.ids[0], K: k, PoolDepth: o.pool, After: after, Before: before, Entities: ents})
	case opExplain:
		r.compareExplain(Query{Text: mw.queries[o.q], After: after, Before: before, Entities: ents}, o.ids[0])
		return
	}
	r.reads++
	if n > 0 {
		r.found++
	}
}

// compareSearch checks a search on every execution and returns how many
// results the memory execution gave.
func (r *modelRun) compareSearch(q Query) int {
	n := 0
	for _, x := range r.execs() {
		got, err := x.e.SearchContext(context.Background(), q)
		if err != nil && r.damaged(x) {
			continue // the truncate step's damage: an error, never a different answer
		}
		if err != nil {
			r.fatalf("%s: search %+v: %v", x.name, q, err)
		}
		what := fmt.Sprintf("search %+v", q)
		r.checkServed(x, what, got, q.After, q.Before, q.Entities, -1)
		if want := r.reference(x).search(r, q); !sameRanking(got, want) {
			r.fatalf("%s: %s:\n got %+v\nwant %+v", x.name, what, got, want)
		}
		if x == r.mem {
			n = len(got)
		}
	}
	return n
}

// compareRelated checks a related query on every execution and returns
// how many results the memory execution gave.
func (r *modelRun) compareRelated(q RelatedQuery) int {
	n := 0
	for _, x := range r.execs() {
		got, err := x.e.RelatedContext(context.Background(), q)
		if err != nil && r.damaged(x) {
			continue
		}
		want, werr := r.reference(x).related(r, q)
		what := fmt.Sprintf("related %+v", q)
		r.expectErr(x, what, err, werr)
		r.checkServed(x, what, got, q.After, q.Before, q.Entities, q.DocID)
		if !sameRanking(got, want) {
			r.fatalf("%s: %s:\n got %+v\nwant %+v", x.name, what, got, want)
		}
		if x == r.mem {
			n = len(got)
		}
	}
	return n
}

// checkServed asserts of a ranking what equality with the reference, which
// shares the engine's masking and fusion code, cannot: every result is a
// document x serves, in its current version, that the request's filter
// admits and that is not the excluded source, each at most once and in
// score order.
func (r *modelRun) checkServed(x *execution, what string, got []Result, after, before int64, ents []string, exclude int) {
	seen := map[int]bool{}
	for i, res := range got {
		d, live := x.live[res.ID]
		switch {
		case res.ID == exclude:
			r.fatalf("%s: %s returned its source document", x.name, what)
		case !live:
			r.fatalf("%s: %s returned %d, which is not served", x.name, what, res.ID)
		case res.Title != d.Title:
			r.fatalf("%s: %s returned %d as %q, a stale version of %q", x.name, what, res.ID, res.Title, d.Title)
		case !r.admits(d, r.analysis(d.Text), after, before, ents):
			r.fatalf("%s: %s returned %d, which its filter rejects", x.name, what, res.ID)
		case seen[res.ID]:
			r.fatalf("%s: %s returned %d twice", x.name, what, res.ID)
		case i > 0 && res.Score > got[i-1].Score:
			r.fatalf("%s: %s is out of score order at %d", x.name, what, i)
		}
		seen[res.ID] = true
	}
}

// sameRanking is reflect.DeepEqual with an empty ranking equal to none.
func sameRanking(a, b []Result) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// compareExplain asserts that a document is explained when the model holds
// it and the query's filter admits it — exactly as without the filter —
// and is ErrUnknownDoc otherwise, that every execution explains it, and
// draws it (ExplainDOT), the same way twice, and as the memory execution
// does when it holds the same version of it: the sharded execution serves
// its last save's.
func (r *modelRun) compareExplain(q Query, id int) {
	var base explained
	for _, x := range r.execs() {
		got, again := r.explain(x, q, id), r.explain(x, q, id)
		if r.damaged(x) && slices.ContainsFunc(append(got.errs[:], again.errs[:]...), func(err error) bool { return err != nil }) {
			continue // the truncate step's damage: an error, never a different answer
		}
		if !reflect.DeepEqual(again, got) {
			r.fatalf("%s: explanation of %d differs between two runs:\n%+v\nvs\n%+v", x.name, id, got, again)
		}
		d, live := x.live[id]
		var want, wantPlain error
		if !live {
			wantPlain = ErrUnknownDoc
		}
		if !live || !r.admits(d, r.analysis(d.Text), q.After, q.Before, q.Entities) {
			want = ErrUnknownDoc
		}
		r.expectErr(x, "explain", got.errs[0], want)
		r.expectErr(x, "explain unfiltered", got.errs[1], wantPlain)
		r.expectErr(x, "explain dot", got.errs[2], wantPlain)
		if want == nil && !reflect.DeepEqual(got.exp, got.plain) {
			r.fatalf("%s: the filter changed the explanation of %d", x.name, id)
		}
		if x == r.mem {
			base = got
			if len(got.plain.SharedEntities) > 0 {
				r.shared++
			}
		} else if x.live[id] == r.mem.live[id] && (!reflect.DeepEqual(got.plain, base.plain) || got.dot != base.dot) {
			r.fatalf("%s: explanation of %d differs from memory's:\n%+v\nvs\n%+v", x.name, id, got.plain, base.plain)
		}
	}
}

// explained is one run of the three explain calls.
type explained struct {
	exp, plain Explanation
	dot        string
	errs       [3]error
}

func (r *modelRun) explain(x *execution, q Query, id int) (e explained) {
	e.exp, e.errs[0] = x.e.ExplainQueryContext(context.Background(), q, id, 3)
	e.plain, e.errs[1] = x.e.Explain(q.Text, id, 3)
	e.dot, e.errs[2] = x.e.ExplainDOT(q.Text, id, "model")
	return e
}

// analysis is the reference analyzer's e.analyze, memoized by text.
func (r *modelRun) analysis(text string) docTerms {
	a, ok := r.ana[text]
	if !ok {
		a = r.an.analyze(text)
		r.ana[text] = a
	}
	return a
}

// admits reports whether a document passes a request's time bounds and
// entity facets, decided from its analysis.
func (r *modelRun) admits(d Document, a docTerms, after, before int64, ents []string) bool {
	if after != 0 && d.Time < after || before != 0 && d.Time > before {
		return false
	}
	for _, l := range ents {
		found := false
		for _, n := range r.mw.g.Lookup(kg.Fold(l)) {
			found = found || slices.Contains(a.node, core.NodeTerm(n))
		}
		if !found {
			return false
		}
	}
	return true
}

// reference is the from-scratch oracle of one published set.
type reference struct {
	set   *segmentSet
	docs  []Document
	terms []docTerms
	live  []bool
	pos   map[int]int // live ID -> position
	nLive int
	text  *index.Index
	node  *index.Index
}

// reference returns the reference over x's published set, rebuilt when the
// set or the model changed.
func (r *modelRun) reference(x *execution) *reference {
	s := x.e.set.Load()
	gen := r.gen
	if x == r.shd {
		gen = -1 // its model is frozen at its save
	}
	if x.ref != nil && x.ref.set == s && x.refGen == gen {
		return x.ref
	}
	ref := &reference{set: s, pos: map[int]int{}, live: make([]bool, s.numDocs)}
	tb, nb := index.NewBuilder(), index.NewBuilder()
	last := map[int]int{}
	for pos := range s.numDocs {
		d := r.setDoc(s, pos)
		a := r.analysis(d.Text)
		tb.Add(a.text)
		nb.Add(a.node)
		ref.docs, ref.terms = append(ref.docs, d), append(ref.terms, a)
		last[d.ID] = pos
	}
	ref.text, ref.node = tb.Build(), nb.Build()
	for id, pos := range last {
		if _, ok := x.live[id]; ok {
			ref.live[pos], ref.pos[id] = true, pos
			ref.nLive++
		}
	}
	x.ref, x.refGen = ref, gen
	return ref
}

// setDoc is s.doc(pos), read from the truncate step's copy while the
// segment's artifact is damaged.
func (r *modelRun) setDoc(s *segmentSet, pos int) Document {
	si, local := s.segIndexOf(pos)
	if r.damage != nil {
		if docs, ok := r.damage.docs[s.segs[si].text]; ok {
			return docs[local]
		}
	}
	return r.stored(s.segs[si].doc(local))
}

// stored is a document read for a check that no damage reaches (the
// truncate step's reads go through setDoc): a read that fails fails the
// run.
func (r *modelRun) stored(d Document, err error) Document {
	if err != nil {
		r.fatalf("reading a stored document: %v", err)
	}
	return d
}

// keepFunc is a request filter of the reference.
type keepFunc func(index.DocID) bool

func (f keepFunc) Keep(d index.DocID) bool { return f(d) }

// keep is the reference's mask: live, admitted by the filter, and not
// the excluded position.
func (ref *reference) keep(r *modelRun, after, before int64, ents []string, exclude int) keepFunc {
	return func(d index.DocID) bool {
		p := int(d)
		return ref.live[p] && p != exclude && r.admits(ref.docs[p], ref.terms[p], after, before, ents)
	}
}

func (ref *reference) pool(depth, k int) int {
	return min(max(cmp.Or(depth, DefaultConfig().PoolDepth), k), ref.nLive)
}

func (ref *reference) topK(r *modelRun, idx *index.Index, keep keepFunc, node bool, q search.Query, k int) []search.Hit {
	src := index.Masked(idx, nil, keep)
	scorer := search.NewBM25(src)
	if node {
		scorer = search.NodeBM25(src.NumDocs(), src.AvgDocLen())
	}
	hits, err := search.TopK(src, scorer, q, k)
	if err != nil {
		r.fatalf("reference: %v", err)
	}
	return hits
}

// results materializes a fused ranking, with the snippets of terms.
func (ref *reference) results(fused []search.Hit, terms []string) []Result {
	out := make([]Result, len(fused))
	for i, h := range fused {
		d := ref.docs[h.Doc]
		out[i] = Result{ID: d.ID, Title: d.Title, Score: h.Score, Snippet: referenceSnippet(d.Text, terms)}
	}
	return out
}

// search is Equation 3 over exact TAAT rankings of both legs, the query
// analyzed without the engine's caches.
func (ref *reference) search(r *modelRun, q Query) []Result {
	beta := DefaultConfig().Beta
	if q.Beta != nil {
		beta = *q.Beta
	}
	doc := r.an.gs.pipe.Process(q.Text)
	var terms []string
	for _, s := range doc.Sentences {
		terms = append(terms, s.Terms...)
	}
	keep := ref.keep(r, q.After, q.Before, q.Entities, -1)
	pool := ref.pool(q.PoolDepth, q.K)
	var bow, bon []search.Hit
	if beta < 1 {
		bow = ref.topK(r, ref.text, keep, false, search.NewQuery(terms), pool)
	}
	if emb := r.an.gs.embedDoc(doc); beta > 0 && emb != nil {
		bon = ref.topK(r, ref.node, keep, true, search.NewQuery(emb.NodeTerms()), pool)
	}
	return ref.results(search.Fuse(bow, bon, beta, q.K), terms)
}

// related ranks by the BON leg alone, the source document's node terms as
// the query and its position excluded.
func (ref *reference) related(r *modelRun, q RelatedQuery) ([]Result, error) {
	pos, ok := ref.pos[q.DocID]
	if !ok {
		return nil, ErrUnknownDoc
	}
	keep := ref.keep(r, q.After, q.Before, q.Entities, pos)
	bon := ref.topK(r, ref.node, keep, true, search.NewQuery(ref.terms[pos].node), ref.pool(q.PoolDepth, q.K))
	return ref.results(search.Fuse(nil, bon, 1, q.K), nil), nil
}

// localTraverse runs a routed engine's traversals over shards, LoadSegments
// slices of the whole snapshot in order, the way a cluster router and its
// workers do: the statistics and the canonical term order of the whole
// snapshot, each slice traversed with them and its hits rebased, and the
// lists merged.
func localTraverse(shards ...*Shard) func(context.Context, Traversal) (Retrieval, error) {
	var texts, nodes []index.Source
	bases := make([]int, len(shards))
	n := 0
	for i, sh := range shards {
		bases[i] = n
		n += sh.set.numDocs
		for _, sg := range sh.set.segs {
			texts, nodes = append(texts, sg.text), append(nodes, sg.node)
		}
	}
	text, node := index.NewMulti(texts...), index.NewMulti(nodes...)
	textScorer, nodeScorer := search.NewBM25(text), search.NodeBM25(node.NumDocs(), node.AvgDocLen())
	return func(ctx context.Context, tr Traversal) (Retrieval, error) {
		leg := func(stats index.Source, scorer search.BM25, q search.Query, nodeLeg bool) ([]search.Hit, error) {
			if q == nil {
				return nil, nil
			}
			ordered, _ := search.OrderTerms(stats, scorer, q)
			lists := make([][]search.Hit, len(shards))
			for i, sh := range shards {
				text, node, err := sh.Sources(tr.After, tr.Before, tr.Entities)
				src := text
				if nodeLeg {
					src = node
				}
				if err == nil {
					lists[i], _, err = search.TopKBlockMaxOrderedStats(ctx, src, scorer, ordered, tr.Pool)
				}
				if err != nil {
					return nil, err
				}
				for j := range lists[i] {
					lists[i][j].Doc += index.DocID(bases[i])
				}
			}
			return search.MergeTopK(tr.Pool, lists...), nil
		}
		var r Retrieval
		var err error
		if r.BOW, err = leg(text, textScorer, tr.Text, false); err != nil {
			return Retrieval{}, err
		}
		r.BON, err = leg(node, nodeScorer, tr.Node, true)
		return r, err
	}
}

// filterHistory is the filter fixture: three segments, a tombstone in
// each.
const filterHistory = "addall 0-29; build; addall 30-59; addall 60-63; delete 5, delete 40, delete 61"

// filterReads returns one step of kind per filter case — none, each time
// bound, a window, an empty one, entity facets resolved, unresolvable and
// conjunctive, and a facet with a bound — and per parameter string.
func filterReads(kind string, params ...string) string {
	var b strings.Builder
	for _, flt := range []string{"", "after=4", "before=4", "after=2 before=6", "after=6 before=2", "ent=1", "ent=0", "ent=1+3", "ent=2 after=3"} {
		for _, p := range params {
			fmt.Fprintf(&b, "; %s %s %s", kind, p, flt)
		}
	}
	return b.String()
}

// modelSeeds is how many generated histories TestModel runs.
const modelSeeds = 8

// TestModel runs seeded histories from the generator on the four
// executions. A failing seed logs its history; FuzzHistory searches the
// same space and shrinks what it finds.
func TestModel(t *testing.T) {
	for seed := int64(1); seed <= modelSeeds; seed++ {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) { runModel(t, seedHistory(seed)) })
	}
}

// TestPublishDifferential: over a generated history that merges by
// policy and by Compact and drops fully-dead segments, every published set
// keeps its invariants and the sets held across later publishes never
// change (checkSet, checkHeld, and the reader under -race).
func TestPublishDifferential(t *testing.T) {
	if r := runModel(t, seedHistory(13)); r.merges == 0 || r.drops == 0 {
		t.Fatalf("history covered %d merges and %d segment drops; want some of each", r.merges, r.drops)
	}
}

// FuzzHistory wraps the generator: every input is a history, so the fuzzer
// shrinks a failing one to the shortest input that still fails, which is
// kept under testdata/fuzz/FuzzHistory.
func FuzzHistory(f *testing.F) {
	f.Add(seedBytes(modelSeeds + 1))
	f.Fuzz(func(t *testing.T, data []byte) { runModel(t, genHistory(data)) })
}

// TestHistoryRoundTrip: a history reads back from the text it prints.
func TestHistoryRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		h := seedHistory(seed)
		back, err := parseHistory(h.String())
		if err != nil || !reflect.DeepEqual(back, h) {
			t.Fatalf("seed %d: %s reads back as %s (%v)", seed, h, back, err)
		}
	}
}
