package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
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

	"newslink"
	"newslink/internal/faults"
)

// The cluster tier's model-based test (DESIGN.md §7). A history is one line
// of text, "fail 1; search q=0 k=3 ent=1+2; heal; await", run against one
// three-slot cluster over the buildSnapshot fixture; a leading "hedged"
// gives slot 0 a second replica and turns hedging on. Its steps are reads
// (search, related, explain, dot, write, and burst: a table of reads 20 at
// a time), faults on a slot's worker (fail, flake, lag, slow, cut, kill,
// restart, corrupt) and lifecycle (heal, await). After every read the
// router's reply must equal the oracle's for the set of slots that can
// serve — a single process over those slots' segments alone — with the
// degradation fields that set implies, and the retry, hedge and
// partial-results counters must move exactly as the step says.

// clusterWorld is what a history's parameters index besides the queries
// (q=): time bounds (after=, before=; times[0] = 0 is unbounded) and entity
// labels (ent=1+2 requires two; labels[0] resolves to no node).
var clusterWorld = sync.OnceValue(func() (cw struct {
	times  []int64
	labels []string
}) {
	w, arts := fixtureCorpus()
	cw.times, cw.labels = []int64{0}, []string{"No Such Entity Anywhere"}
	for _, i := range []int{8, 12, 24, 36, 40} {
		cw.times = append(cw.times, arts[i].Time)
	}
	for _, ev := range w.Events[:3] {
		cw.labels = append(cw.labels, w.Graph.Label(ev.Participants[0]))
	}
	return cw
})

// The fixture's shape, as buildSnapshot writes it: one segment of 16
// documents per slot, document ID = position, 3 and 20 tombstoned. An
// attempt gets at most a third of modelTimeout (two attempts and a re-run
// over the survivors); slowDelay outlasts it, and lagDelay, well inside
// it, outlasts the hedge delay of a quick slot.
const (
	numSlots     = 3
	allSlots     = 1<<numSlots - 1
	slotDocs     = 16
	modelTimeout = 900 * time.Millisecond
	slowDelay    = 1200 * time.Millisecond
	lagDelay     = 5 * time.Millisecond
	slotKinds    = " fail flake lag slow cut kill restart corrupt "
	bareKinds    = " hedged search burst heal await "
)

var fixtureTombstones = []int{3, 20}

// cstep is one step: its kind, the document or slot it names, and a read's
// parameters as key=value text.
type cstep struct {
	kind   string
	arg    int
	params []string
}

type clusterHistory []cstep

func (s cstep) String() string {
	f := []string{s.kind}
	if !strings.Contains(bareKinds, " "+s.kind+" ") {
		f = append(f, strconv.Itoa(s.arg))
	}
	return strings.Join(append(f, s.params...), " ")
}

func (h clusterHistory) String() string {
	steps := make([]string, len(h))
	for i, s := range h {
		steps[i] = s.String()
	}
	return strings.Join(steps, "; ")
}

func (h clusterHistory) hedged() bool { return len(h) > 0 && h[0].kind == "hedged" }

// parseClusterHistory reads a history in the form String writes.
func parseClusterHistory(text string) (clusterHistory, error) {
	var h clusterHistory
	for _, text := range strings.Split(text, ";") {
		f := append(strings.Fields(text), "")
		s, err := cstep{kind: f[0]}, error(nil)
		switch {
		case f[0] == "":
			continue
		case strings.Contains(slotKinds+" related explain dot write resave ", " "+s.kind+" "):
			s.arg, err = strconv.Atoi(f[1])
			f = f[1:]
		case !strings.Contains(bareKinds, " "+s.kind+" ") || s.kind == "hedged" && len(h) > 0:
			err = errors.New("unknown step")
		}
		if s.arg < 0 || strings.Contains(slotKinds, " "+s.kind+" ") && s.arg >= numSlots {
			err = errors.New("no such slot or document")
		}
		for _, p := range f[1 : len(f)-1] {
			s.params = append(s.params, p)
			key, val, _ := strings.Cut(p, "=")
			if _, e := strconv.ParseFloat(strings.ReplaceAll(val, "+", ""), 64); e != nil || !strings.Contains(" q k pool beta after before ent ", " "+key+" ") {
				err = fmt.Errorf("bad parameter %s", p)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%q: %v", text, err)
		}
		h = append(h, s)
	}
	return h, nil
}

// byteGen draws choices from a byte string, the fuzzer's input: each byte
// is one choice, and an exhausted input draws zeros.
type byteGen struct{ data []byte }

func (g *byteGen) intn(n int) (v int) {
	if len(g.data) > 0 {
		v, g.data = int(g.data[0])%n, g.data[1:]
	}
	return v
}

func (g *byteGen) pick(choices ...string) string { return choices[g.intn(len(choices))] }

// read draws a read (or write) step of kind: a document, q, k, pool, β and,
// half the time, filter clauses, keeping what the route takes. Most related
// steps name a document of a slot in up.
func (g *byteGen) read(kind string, up int) cstep {
	cw := clusterWorld()
	s := cstep{kind: kind, arg: g.intn(numSlots*slotDocs + 1)}
	if slot := g.intn(numSlots); kind == "related" && up&(1<<slot) != 0 && g.intn(8) > 0 {
		s.arg = slot*slotDocs + g.intn(slotDocs)
	}
	s.params = []string{fmt.Sprintf("q=%d", g.intn(len(identityQueries))), g.pick("k=1", "k=3", "k=46", "k=100"),
		g.pick("pool=1", "pool=12", "pool=10000"), g.pick("beta=0", "beta=0.5", "beta=1")}
	if g.intn(2) == 0 {
		s.params = append(s.params, fmt.Sprintf("after=%d", g.intn(len(cw.times))), fmt.Sprintf("before=%d", g.intn(len(cw.times))),
			fmt.Sprintf("ent=%d+%d", g.intn(len(cw.labels)), g.intn(len(cw.labels))))
	}
	s.params = slices.DeleteFunc(s.params, func(p string) bool {
		switch {
		case kind == "write":
			return true // a write names only its document
		case kind == "related" && p[0] == 'q', kind == "dot" && p[0] != 'q', kind == "explain" && (p[0] == 'k' || p[0] == 'p'):
			return true // the route takes no such parameter
		case kind != "search" && strings.HasPrefix(p, "beta"):
			return true // β is a search parameter
		}
		return g.intn(3) == 0
	})
	return s
}

// genClusterHistory draws a history from data: the layout, then up to 30
// steps while the input lasts. It tracks which slots it took down, for
// read, and it usually awaits a restarted worker.
func genClusterHistory(data []byte) clusterHistory {
	g := &byteGen{data: data}
	var h clusterHistory
	if g.intn(4) == 0 {
		h = append(h, cstep{kind: "hedged"})
	}
	up, killed := allSlots, 0
	for len(g.data) > 0 && len(h) < 30 {
		s := cstep{kind: g.pick("search", "search", "search", "search", "related", "related", "explain", "dot", "write", "burst",
			"fail", "fail", "flake", "flake", "lag", "slow", "cut", "kill", "restart", "corrupt", "heal", "await")}
		switch restart := s.kind == "restart" || s.kind == "corrupt"; s.kind {
		case "search", "related", "explain", "dot", "write":
			s = g.read(s.kind, up)
		case "heal":
			up = allSlots &^ killed
		case "await", "burst":
		default:
			s.arg = g.intn(numSlots)
			if bit := 1 << s.arg; restart {
				up, killed = up|bit, killed&^bit
			} else if s.kind != "flake" && s.kind != "lag" && (s.arg != 0 || !h.hedged()) {
				up &^= bit
				if s.kind == "kill" {
					killed |= bit
				}
			}
			if restart && g.intn(4) > 0 {
				h = append(h, s)
				s = cstep{kind: "await"}
			}
		}
		h = append(h, s)
	}
	return h
}

// seedBytes is n bytes of math/rand seeded by seed; 160 draw about 25 steps.
func seedBytes(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// workerModel is what the model knows of a worker.
type workerModel struct {
	rule    string // the fault it is under, "" for none
	killed  bool
	settled bool                   // the router's view of it is known
	fresh   bool                   // restarted beside a serving replica, not awaited since: it may answer unassigned
	shot    bool                   // a flake's failure has not fired yet
	kept    map[string]os.FileInfo // from a restart until await checks it: the files not to fetch again
}

// serving reports whether the worker can answer an RPC: a flake's one
// failure is retried, and a lag delays it within the attempt's budget.
func (w *workerModel) serving() bool {
	return !w.killed && (w.rule == "" || w.rule == "flake" || w.rule == "lag")
}

// clusterRun is one history in execution: the cluster, the model of its
// workers, and the oracles. Worker i serves slot i%numSlots; a fault on
// slot s targets worker s.
type clusterRun struct {
	t       *testing.T
	h       clusterHistory
	dir     string
	procs   []*workerProc
	w       []workerModel
	inj     *faults.Injector
	rt      *Router
	url     string
	step    int
	found   int // ranked reads that returned results
	mu      sync.Mutex
	oracles map[int]string // the URL of the oracle of each slot set
}

// runClusterHistory runs the history written in text. If it has ranked
// reads, one of them must return results: rankings that all come back
// empty equal the oracle's without showing anything.
func runClusterHistory(t *testing.T, text string) {
	t.Helper()
	h, err := parseClusterHistory(text)
	if err != nil {
		t.Fatal(err)
	}
	ranked := slices.ContainsFunc(h, func(s cstep) bool { return strings.Contains(" search related burst ", " "+s.kind+" ") })
	if r := runClusterModel(t, h); ranked && r.found == 0 {
		t.Fatal("no search or related step returned results")
	}
}

// runClusterModel runs h, checking every step. A failure logs the history.
func runClusterModel(t *testing.T, h clusterHistory) *clusterRun {
	t.Helper()
	dir, _, procs, rt, ts := startCluster(t, Config{RequestTimeout: modelTimeout, maxAttempts: 2, Hedge: h.hedged(), hedgeMin: time.Millisecond})
	r := &clusterRun{t: t, h: h, dir: dir, procs: procs, w: make([]workerModel, len(procs)), rt: rt, url: ts.URL,
		oracles: map[int]string{}}
	t.Cleanup(faults.Disarm)
	defer func() {
		if t.Failed() {
			t.Logf("history: %s", h)
		}
	}()
	r.apply(cstep{kind: "heal"}) // arms an injector that counts hits
	for i, s := range h {
		r.step = i
		r.apply(s)
	}
	return r
}

func (r *clusterRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("step %d (%s): %s", r.step, r.h[r.step], fmt.Sprintf(format, args...))
}

func (r *clusterRun) apply(s cstep) {
	w, p := &r.w[s.arg%numSlots], r.procs[s.arg%numSlots]
	switch s.kind {
	case "hedged":
	case "resave":
		r.resave(s.arg)
	case "kill":
		p.kill()
		w.killed = true
	case "restart", "corrupt":
		p.kill()
		w.kept = map[string]os.FileInfo{}
		dir := r.t.TempDir()
		if s.kind == "corrupt" {
			// Restart over the same directory, one artifact damaged.
			dir = p.dir
			var err error
			if w.kept, err = corrupt(dir); err != nil {
				r.fatalf("%v", err)
			}
		}
		p.serve(r.t, p.ID(), dir, r.rt.engine.Graph())
		// Slot 0's other replica serves a hedged history throughout, and the
		// router tries it on whichever read finds this one unassigned, so
		// reads need not wait for this one's assignment.
		w.fresh = r.h.hedged() && s.arg == 0
		w.killed, w.settled = false, w.fresh
	case "fail", "flake", "lag", "slow", "cut", "heal":
		first := r.inj == nil
		if !first {
			r.spent()
		}
		r.inj = faults.New()
		for i, p := range r.procs {
			if w := &r.w[i]; s.kind == "heal" || i == s.arg {
				wasDown := !w.serving() && !w.killed
				w.rule = strings.TrimPrefix(s.kind, "heal")
				w.shot = w.rule == "flake"
				// A worker that could not serve and now can is admitted only by
				// the probe loop, which may spend a flake's failure: until an
				// await, the router's view of it is unknown.
				recovers := wasDown && w.serving()
				w.settled = first || w.settled && !recovers
			}
			gate, injected := faults.ClusterShard(p.ID()), errors.New("injected shard fault")
			switch w := r.w[i]; {
			case w.rule == "fail":
				r.inj.Fail(gate, injected)
			case w.shot:
				r.inj.FailN(gate, 1, injected)
			case w.rule == "lag":
				r.inj.Delay(gate, lagDelay)
			case w.rule == "slow":
				r.inj.Delay(gate, slowDelay)
			case w.rule == "cut":
				r.inj.Mutate(faults.ClusterShardWrite(p.ID()), func(b []byte) []byte { return b[:len(b)/2] })
			}
		}
		faults.Arm(r.inj)
	default: // a read, or await
		if s.kind == "await" || slices.ContainsFunc(r.w, func(w workerModel) bool { return !w.settled }) {
			// A read first waits out a router that has not settled: the model
			// does not predict the race between a request and the probe loop.
			r.await()
		}
		if s.kind != "await" {
			r.reads(s)
		}
	}
}

// corrupt flips a bit in the middle one of dir's files, rewriting it as a
// new file so no descriptor open on the old one sees it, and returns the
// others' file information.
func corrupt(dir string) (map[string]os.FileInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	kept := map[string]os.FileInfo{}
	for j, ent := range entries {
		path := filepath.Join(dir, ent.Name())
		if j != len(entries)/2 {
			if kept[ent.Name()], err = os.Stat(path); err != nil {
				return nil, err
			}
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		data[len(data)/2] ^= 0x10
		if err := os.Remove(path); err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
	}
	return kept, nil
}

// resave deletes document id from the snapshot and restarts the router over
// it: the plan ID must change, a delete changing only the manifest. The old
// router is closed first, so its probe loop never assigns its plan again.
// It is never drawn: a router that can assign no worker fails to start.
func (r *clusterRun) resave(id int) {
	old := r.rt
	old.Close()
	e, err := newslink.Load(r.dir, old.engine.Graph())
	if err != nil {
		r.fatalf("%v", err)
	}
	if err := e.Delete(id); err != nil {
		r.fatalf("%v", err)
	}
	if err := e.Save(r.dir); err != nil {
		r.fatalf("%v", err)
	}
	if err := e.Close(); err != nil {
		r.fatalf("%v", err)
	}
	var ts *httptest.Server
	r.rt, ts = startRouter(r.t, r.dir, old.engine.Graph(), old.cfg)
	r.url = ts.URL
	if r.rt.plan.ID == old.plan.ID {
		r.fatalf("plan %s, the old router's, after deleting %d", r.rt.plan.ID, id)
	}
	r.oracles = map[int]string{}
	for i := range r.w {
		r.w[i].settled = false
	}
}

// spent clears the flake failures that fired since the injector was armed
// and returns how many did.
func (r *clusterRun) spent() (n int) {
	for i, p := range r.procs {
		if w := &r.w[i]; w.shot && r.inj.Hits(faults.ClusterShard(p.ID())) > 0 {
			w.shot = false
			n++
		}
	}
	return n
}

// await polls until every worker that can serve is admitted, with no
// failure counted, and holds the router's plan. A search per poll drives
// the breaker: only an ejected worker is assigned again, and one that
// answers unassigned is ejected at once. A restarted worker then holds
// exactly its slot's artifacts, with the plan's checksums, having fetched
// only what was missing or damaged.
func (r *clusterRun) await() {
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		ready := true
		for i, p := range r.procs {
			_, plan, _ := p.snapshotState()
			w, ep := r.w[i], r.rt.slots[i%numSlots].eps[i/numSlots]
			assigned, admitted := plan == r.rt.plan.ID, ep.healthy.Load()
			// A serving worker is ready once it holds the plan, is admitted and
			// has no failure counted against it.
			serves := w.serving() && assigned && admitted && ep.fails.Load() == 0
			ready = ready && (serves || !w.serving())
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			r.fatalf("workers not re-admitted within 15s")
		}
		_, _ = fetch(http.MethodGet, r.url+"/v1/search?q="+url.QueryEscape(identityQueries[0]), "") // any reply will do
	}
	for i := range r.w {
		w, dir := &r.w[i], r.procs[i].dir
		w.settled, w.fresh = true, false
		if w.kept == nil || !w.serving() {
			continue
		}
		sums := slotChecksums(r.rt.plan, r.rt.slots[i%numSlots].plan)
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != len(sums) {
			r.fatalf("worker %d holds %d files (%v), want its slot's %d artifacts", i, len(entries), err, len(sums))
		}
		for _, ent := range entries {
			path := filepath.Join(dir, ent.Name())
			now, err := os.Stat(path)
			before, kept := w.kept[ent.Name()]
			if err != nil || fileChecksum(r.t, path) != sums[ent.Name()] || kept && !os.SameFile(before, now) {
				r.fatalf("worker %d holds %s: not its slot's, damaged, or fetched again though intact (%v)", i, ent.Name(), err)
			}
		}
		w.kept = nil
	}
}

// oracle returns the URL of a single process over the segments of the
// slots in set alone (referenceServer over a snapshot that lists only
// theirs): what merging those slots' shards must produce. Built once per
// set.
func (r *clusterRun) oracle(set int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if u, ok := r.oracles[set]; ok {
		return u
	}
	m, err := newslink.ReadManifest(r.dir)
	if err != nil {
		r.t.Fatal(err)
	}
	m.Segments = nil
	for i, sp := range r.rt.plan.Shards {
		if set&(1<<i) != 0 {
			m.Segments = append(m.Segments, sp.Segments...)
		}
	}
	sub := r.t.TempDir()
	for _, sm := range m.Segments {
		for _, name := range newslink.SegmentFileNames(sm.ID) {
			err = errors.Join(err, os.Link(filepath.Join(r.dir, name), filepath.Join(sub, name)))
		}
	}
	meta, merr := json.Marshal(m)
	if err = errors.Join(err, merr, os.WriteFile(filepath.Join(sub, "meta.json"), meta, 0o644)); err != nil {
		r.t.Fatal(err)
	}
	r.oracles[set] = referenceServer(r.t, sub, r.rt.engine.Graph()).URL
	return r.oracles[set]
}

// reply is one HTTP answer: the status, the body and the body decoded.
type reply struct {
	status int
	raw    string
	body   map[string]any
}

// fetch makes one request and reads its reply.
func fetch(method, url, body string) (reply, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	rep := reply{status: resp.StatusCode, raw: string(raw)}
	_ = json.Unmarshal(raw, &rep.body) // a dot reply is text: its body stays nil
	return rep, err
}

func (rep reply) results() []any {
	res, _ := rep.body["results"].([]any)
	return res
}

// path is a read's request.
func (s cstep) path() string {
	cw := clusterWorld()
	v := url.Values{"q": {identityQueries[0]}, "id": {strconv.Itoa(s.arg)}}
	for _, p := range s.params {
		key, val, _ := strings.Cut(p, "=")
		n, _ := strconv.Atoi(val)
		switch key {
		case "q":
			v.Set("q", identityQueries[n])
		case "after", "before":
			v.Set(key, strconv.FormatInt(cw.times[n], 10))
		case "ent":
			for _, e := range strings.Split(val, "+") {
				n, _ = strconv.Atoi(e)
				v.Add("entity", cw.labels[n])
			}
		default:
			v.Set(key, val)
		}
	}
	switch s.kind {
	case "search":
		v.Del("id")
	case "related":
		v.Del("q")
		v.Del("id")
		return fmt.Sprintf("/v1/related/%d?%s", s.arg, v.Encode())
	case "explain":
		v.Set("paths", "4")
	}
	return "/v1/" + s.kind + "?" + v.Encode()
}

// reads runs a read step — a burst is a table of them, 20 at a time —
// checking every reply and the counters.
func (r *clusterRun) reads(s cstep) {
	up, clean := 0, true
	for i, w := range r.w {
		if w.serving() {
			up |= 1 << (i % numSlots)
		}
		clean = clean && w.serving() && !w.fresh
	}
	steps, clients := []cstep{s}, 1
	if s.kind == "burst" {
		steps, clients = burstReads(r.step, up), 20
	}
	r.oracle(up)
	r.oracle(allSlots)
	r.spent() // failures the probe loop or an await spent are not this step's
	counters := func() [3]int64 { return [3]int64{r.rt.mRetries.Value(), r.rt.mHedges.Value(), r.rt.mPartial.Value()} }
	before := counters()
	var degraded, found atomic.Int64
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(steps); i += clients {
				got, err := r.check(steps[i], up)
				if err != nil {
					r.t.Errorf("step %d (%s): %s: %v", r.step, s, steps[i], err)
					return
				}
				if got.body["degraded"] == true {
					degraded.Add(1)
				}
				if len(got.results()) > 0 {
					found.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	r.found += int(found.Load())
	spent, after, hedged := r.spent(), counters(), r.h.hedged()
	switch {
	case r.t.Failed():
		r.t.FailNow()
	case after[2]-before[2] != degraded.Load():
		r.fatalf("partial-results counter moved by %d over %d degraded replies", after[2]-before[2], degraded.Load())
	case !hedged && after[1] != before[1]:
		r.fatalf("hedge counter moved by %d without a second replica", after[1]-before[1])
	case !hedged && clean && after[0]-before[0] != int64(spent):
		// With every worker serving and assigned, the only retries are the
		// flakes'.
		r.fatalf("retry counter moved by %d over %d transient failures", after[0]-before[0], spent)
	case s.kind == "burst" && hedged && (r.w[0].rule == "slow" || r.w[0].rule == "lag") && after[1] == before[1]:
		r.fatalf("no hedge fired against a persistently %s replica", r.w[0].rule)
	}
}

// burstReads is what the burst at step reads: 80 reads drawn as a history
// draws them, from bytes fixed by the step and the serving slots.
func burstReads(step, up int) []cstep {
	g, steps := &byteGen{data: seedBytes(int64(step<<numSlots|up), 2000)}, []cstep(nil)
	for range 80 {
		steps = append(steps, g.read(g.pick("search", "search", "related", "explain"), up))
	}
	return steps
}

// check runs one read and compares its reply with the model's for the set
// of serving slots.
func (r *clusterRun) check(s cstep, set int) (reply, error) {
	if s.kind == "write" { // a POST, a stream or a DELETE of the document, by its ID
		w := [][2]string{{http.MethodPost, "/v1/docs"}, {http.MethodPost, "/v1/docs:stream"}, {http.MethodDelete, fmt.Sprintf("/v1/docs/%d", s.arg)}}[s.arg%3]
		got, err := fetch(w[0], r.url+w[1], fmt.Sprintf(`{"id":%d,"title":"Clashes","text":"Clashes near the border resumed."}`, s.arg))
		if err == nil && (got.status != http.StatusForbidden || !strings.Contains(got.raw, `"read_only"`)) {
			err = fmt.Errorf("%s %s: %d %s, want 403 read_only", w[0], w[1], got.status, got.raw)
		}
		return reply{}, err
	}
	path := s.path()
	got, err := fetch(http.MethodGet, r.url+path, "")
	want, werr := fetch(http.MethodGet, r.oracle(allSlots)+path, "")
	err = errors.Join(err, werr)
	// The router's engine holds every document, so explain, dot and an
	// unknown document ask no shard.
	if unsharded := s.kind == "explain" || s.kind == "dot" || want.status != http.StatusOK; err == nil && unsharded {
		if got.status != want.status || got.raw != want.raw {
			err = fmt.Errorf("router %d %s\nsingle process %d %s", got.status, got.raw, want.status, want.raw)
		}
		return got, err
	}
	n := bits.OnesCount(uint(set))
	// The source of a related read lives on a slot that does not serve, so
	// no oracle over the serving slots holds it.
	elsewhere := s.kind == "related" && s.arg < numSlots*slotDocs && set&(1<<(s.arg/slotDocs)) == 0 &&
		!slices.Contains(fixtureTombstones, s.arg)
	if n > 0 && !elsewhere {
		want, werr = fetch(http.MethodGet, r.oracle(set)+path, "")
		err = errors.Join(err, werr)
	}
	switch {
	case err != nil:
	case n == 0:
		want = reply{status: http.StatusServiceUnavailable, raw: `"shard_unavailable"`}
	case elsewhere:
		// The source belongs to a slot that does not serve: no oracle over
		// the serving slots can rank its related news, but the reply must
		// say it is degraded.
		want = envelope(got, n)
	default:
		want = envelope(want, n)
	}
	if err == nil && (got.status != want.status || got.status == http.StatusOK && !reflect.DeepEqual(got.body, want.body) ||
		got.status != http.StatusOK && !strings.Contains(got.raw, want.raw)) {
		err = fmt.Errorf("router %d %s\nwant %d %v %s", got.status, got.raw, want.status, want.body, want.raw)
	}
	return got, err
}

// envelope is a ranked reply of a router with ok of its slots serving.
func envelope(rep reply, ok int) reply {
	body := maps.Clone(rep.body)
	delete(body, "degraded")
	delete(body, "degraded_reason")
	body["shards_total"], body["shards_ok"] = float64(numSlots), float64(ok)
	if ok < numSlots {
		body["degraded"], body["degraded_reason"] = true, "shard_unavailable"
	}
	return reply{status: http.StatusOK, body: body}
}

// clusterSeeds is how many generated histories TestClusterModel runs.
const clusterSeeds = 4

// TestClusterModel runs seeded histories from the generator, each after
// checking that it reads back from the text it prints. A failing seed logs
// its history; FuzzClusterHistory searches the same space.
func TestClusterModel(t *testing.T) {
	for seed := int64(1); seed <= clusterSeeds; seed++ {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			h := genClusterHistory(seedBytes(seed, 160))
			if back, err := parseClusterHistory(h.String()); err != nil || back.String() != h.String() {
				t.Fatalf("%s reads back as %s (%v)", h, back, err)
			}
			runClusterModel(t, h)
		})
	}
}

// FuzzClusterHistory wraps the generator: every input is a history.
func FuzzClusterHistory(f *testing.F) {
	f.Add(seedBytes(clusterSeeds+1, 160))
	f.Fuzz(func(t *testing.T, data []byte) { runClusterModel(t, genClusterHistory(data)) })
}

// readSteps returns one step per argument and parameter string, as history
// text: readSteps("search", []string{"q=0"}, "", "k=3") is
// "; search q=0 ; search q=0 k=3".
func readSteps(kind string, args []string, params ...string) string {
	var b strings.Builder
	for _, a := range args {
		for _, p := range params {
			fmt.Fprintf(&b, "; %s %s %s", kind, a, p)
		}
	}
	return b.String()
}

var (
	queryArgs  = []string{"q=0", "q=1", "q=2", "q=3", "q=4", "q=5"}
	docArgs    = []string{"0", "10", "17", "33", "47", "3", "20"} // one per segment edge, and the tombstones
	edgeParams = []string{"", "k=1", "k=3", "k=25", "k=46", "k=100", "pool=1", "pool=12", "k=3 pool=3", "k=5 pool=10000"}
	fltParams  = []string{"after=3", "before=3", "after=3 before=4", "ent=1", "ent=1 before=3", "ent=0", "ent=1+2 after=1"}
	downParams = []string{"", "k=3", "after=3", "ent=1"}
)

// fixedHistories holds, by test name, the fixed histories of the fault,
// parity and front-door cases; runFixed runs its test's.
var fixedHistories = map[string]string{
	"TestDegradedOnShardError":                 "fail 1; search; search q=4; explain 16; explain 0; heal; await; search",
	"TestDegradedFilteredMatchesLiveSlots":     "fail 1" + readSteps("search", []string{"q=0"}, "after=2", "after=1 before=5", "ent=1"),
	"TestDegradedOnShardTimeout":               "slow 1; search q=1; search q=1 k=3",
	"TestDegradedOnShardCrashMidStream":        "cut 1; search q=2; search q=2",
	"TestWorkerCrashAndRecovery":               "search q=3; kill 2; search q=3; search q=5; related 5; restart 2; await; search q=3; related 40",
	"TestRetryOnTransientFailure":              "flake 0; search q=4; flake 2; related 40; search q=4",
	"TestHedgedRequests":                       "hedged; slow 0; search; search; burst; kill 0; search q=1; restart 0; await; search q=1",
	"TestAllShardsDown":                        "fail 0; fail 1; fail 2; search; related 5; explain 5; dot 5; heal; await; search",
	"TestWorkerRefetchesCorruptArtifact":       "corrupt 1; await" + readSteps("search", queryArgs, "k=10"),
	"TestRouterMatchesSingleProcess":           readSteps("search", queryArgs, append(edgeParams, "beta=0", "beta=1", "beta=0.5", "beta=0.5 k=7")...),
	"TestRouterFilteredMatchesSingleProcess":   readSteps("search", queryArgs[:4], fltParams...),
	"TestRouterExplainMatchesSingleProcess":    readSteps("explain", docArgs, "q=0", "q=1") + readSteps("dot", docArgs, "q=0", "q=1"),
	"TestRouterFilteredExplain":                readSteps("explain", docArgs, fltParams...),
	"TestHedgedConcurrentMatchesSingleProcess": "hedged; lag 0; burst; slow 0; burst; heal; await; burst; fail 0; burst",
	"TestRouterRelatedMatchesSingleProcess": readSteps("related", docArgs, append(edgeParams, fltParams...)...) + "; fail 1" +
		readSteps("search", queryArgs[:4], downParams...) + readSteps("related", []string{"0", "33", "47", "17", "20"}, downParams...) +
		readSteps("explain", []string{"0", "17"}, "q=0", "q=1") + "; fail 0; fail 2; explain 17 q=1; related 17",
	"TestUnassignedReplicaCostsOneAttempt":   "hedged; restart 0; search; search q=1; related 5; search q=2 k=3; related 17; burst; await; search",
	"TestRestartedRouterServesNewTombstones": "search q=4; related 17; resave 0; search q=4; related 17; fail 1; resave 31; search q=4; related 1",
	"TestRouterRefusesWrites":                "search; related 5; write 5; write 3; write 4; search; related 5",
}

func runFixed(t *testing.T) { runClusterHistory(t, fixedHistories[t.Name()]) }

func TestDegradedOnShardError(t *testing.T)                 { runFixed(t) }
func TestDegradedFilteredMatchesLiveSlots(t *testing.T)     { runFixed(t) }
func TestDegradedOnShardTimeout(t *testing.T)               { runFixed(t) }
func TestDegradedOnShardCrashMidStream(t *testing.T)        { runFixed(t) }
func TestWorkerCrashAndRecovery(t *testing.T)               { runFixed(t) }
func TestRetryOnTransientFailure(t *testing.T)              { runFixed(t) }
func TestHedgedRequests(t *testing.T)                       { runFixed(t) }
func TestAllShardsDown(t *testing.T)                        { runFixed(t) }
func TestWorkerRefetchesCorruptArtifact(t *testing.T)       { runFixed(t) }
func TestRouterMatchesSingleProcess(t *testing.T)           { runFixed(t) }
func TestRouterFilteredMatchesSingleProcess(t *testing.T)   { runFixed(t) }
func TestRouterExplainMatchesSingleProcess(t *testing.T)    { runFixed(t) }
func TestRouterFilteredExplain(t *testing.T)                { runFixed(t) }
func TestHedgedConcurrentMatchesSingleProcess(t *testing.T) { runFixed(t) }
func TestRouterRelatedMatchesSingleProcess(t *testing.T)    { runFixed(t) }
func TestRestartedRouterServesNewTombstones(t *testing.T)   { runFixed(t) }
func TestUnassignedReplicaCostsOneAttempt(t *testing.T)     { runFixed(t) }
func TestRouterRefusesWrites(t *testing.T)                  { runFixed(t) }
