package cluster

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"newslink"
	"newslink/internal/corpus"
	"newslink/internal/index"
	"newslink/internal/kg"
	"newslink/internal/server"
)

// buildSnapshot writes a snapshot with at least three segments and
// two tombstoned documents (one per distinct segment), the corpus shape
// the cluster partitions. Documents carry the corpus's monotone event
// timestamps so temporal filters select predictable slices. Returns the
// snapshot directory and the graph.
func buildSnapshot(t testing.TB) (string, *kg.Graph) {
	t.Helper()
	w := kg.Generate(kg.DefaultConfig(19))
	arts := corpus.Generate(w, corpus.CNNLike(), 48, 19)
	e := newslink.New(w.Graph, newslink.DefaultConfig())
	for i, a := range arts {
		if err := e.Add(newslink.Document{ID: a.ID, Title: a.Title, Text: a.Text, Time: a.Time}); err != nil {
			t.Fatal(err)
		}
		switch i + 1 {
		case 16:
			if err := e.Build(); err != nil {
				t.Fatal(err)
			}
		case 32, 48:
			e.Refresh()
		}
	}
	for _, id := range fixtureTombstones { // IDs are positions
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.NumSegments(); n < 3 {
		t.Fatalf("fixture produced %d segments, want >= 3", n)
	}
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, w.Graph
}

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// workerProc is a shard worker served on a fixed loopback address, so a
// test can kill it — close its listener and connections — and bring a new
// worker up where the router expects it.
type workerProc struct {
	*Worker
	addr string
	ln   net.Listener
	srv  *http.Server
}

// serve brings a worker with identity id up on the process's address,
// storing artifacts under dir.
func (p *workerProc) serve(t testing.TB, id, dir string, g *kg.Graph) {
	t.Helper()
	var err error
	if p.ln, err = net.Listen("tcp", p.addr); err != nil {
		t.Fatal(err)
	}
	p.Worker, p.addr = NewWorker(id, dir, g, testLogger()), p.ln.Addr().String()
	p.srv = &http.Server{Handler: p.Handler()}
	go p.srv.Serve(p.ln)
}

// kill closes the listener (itself, as Serve may not have tracked it yet) and connections.
func (p *workerProc) kill() { p.ln.Close(); p.srv.Close() }

// startWorkers launches n shard workers, returning them and their endpoint
// groups in slot order: worker i serves slot i.
func startWorkers(t testing.TB, g *kg.Graph, n int) ([]*workerProc, [][]string) {
	t.Helper()
	workers := make([]*workerProc, n)
	endpoints := make([][]string, n)
	for i := range workers {
		p := &workerProc{addr: "127.0.0.1:0"}
		p.serve(t, fmt.Sprintf("w%d", i), t.TempDir(), g)
		t.Cleanup(func() { p.kill() })
		workers[i], endpoints[i] = p, []string{"http://" + p.addr}
	}
	return workers, endpoints
}

// startRouter serves a router over an httptest server, whose URL (the
// router's SelfURL, which workers fetch artifacts from) exists before
// NewRouter and which serves before Start assigns the workers.
func startRouter(t testing.TB, dir string, g *kg.Graph, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	ts := httptest.NewUnstartedServer(nil)
	t.Cleanup(ts.Close)
	cfg.SelfURL = "http://" + ts.Listener.Addr().String()
	cfg.Logger = cmp.Or(cfg.Logger, testLogger())
	cfg.ProbeInterval = cmp.Or(cfg.ProbeInterval, 50*time.Millisecond)
	cfg.retryBase = cmp.Or(cfg.retryBase, time.Millisecond)
	rt, err := NewRouter(dir, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts.Config.Handler = rt.Handler()
	ts.Start()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := rt.Start(ctx); err != nil {
		t.Fatal(err)
	}
	return rt, ts
}

// startCluster is the three-slot harness most tests use: worker i serves
// slot i. With cfg.Hedge set, a fourth worker is slot 0's second replica.
func startCluster(t testing.TB, cfg Config) (string, *kg.Graph, []*workerProc, *Router, *httptest.Server) {
	t.Helper()
	dir, g := buildSnapshot(t)
	n := 3
	if cfg.Hedge {
		n = 4
	}
	workers, endpoints := startWorkers(t, g, n)
	if cfg.Hedge {
		endpoints[0] = append(endpoints[0], endpoints[3]...)
	}
	cfg.Endpoints = endpoints[:3]
	rt, ts := startRouter(t, dir, g, cfg)
	return dir, g, workers, rt, ts
}

// getJSON asserts the status and decodes the body.
func getJSON(t testing.TB, rawurl string, wantStatus int, out any) {
	t.Helper()
	rep, err := fetch(http.MethodGet, rawurl, "")
	if err != nil || rep.status != wantStatus {
		t.Fatalf("GET %s: status %d (%v), want %d\nbody: %s", rawurl, rep.status, err, wantStatus, rep.raw)
	}
	if err := json.Unmarshal([]byte(rep.raw), out); out != nil && err != nil {
		t.Fatalf("GET %s: decoding: %v\nbody: %s", rawurl, err, rep.raw)
	}
}

// referenceServer serves the same snapshot through a single-process
// engine, the identity oracle for scatter-gather results.
func referenceServer(t testing.TB, dir string, g *kg.Graph) *httptest.Server {
	t.Helper()
	eng, err := newslink.Load(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	ts := httptest.NewServer(server.New(eng).Handler())
	t.Cleanup(ts.Close)
	return ts
}

var identityQueries = []string{
	"clashes near the border",
	"ceasefire talks resume",
	"markets rally on earnings",
	"championship final",
	"minister parliament vote",
	"xyzzy nosuchterm anywhere",
}

// fixtureCorpus regenerates the deterministic fixture corpus and world
// behind buildSnapshot, for tests that need entity labels and timestamps.
func fixtureCorpus() (*kg.World, []corpus.Article) {
	w := kg.Generate(kg.DefaultConfig(19))
	return w, corpus.Generate(w, corpus.CNNLike(), 48, 19)
}

// TestMalformedSearchSameOnBothFrontDoors: the router and a single process
// parse one request grammar per route, so every malformed search or
// explain is refused with the same status and the same body on both.
func TestMalformedSearchSameOnBothFrontDoors(t *testing.T) {
	dir, g, _, _, ts := startCluster(t, Config{})
	ref := referenceServer(t, dir, g)
	paths := []string{
		"/v1/explain", "/v1/explain?id=1", "/v1/explain?q=x", "/v1/explain?q=x&id=abc", "/v1/explain?q=x&id=-1",
		"/v1/explain?q=x&id=1&paths=abc", "/v1/explain?q=x&id=1&paths=-1", "/v1/explain?q=x&id=1&paths=1001",
		"/v1/explain?q=x&id=1&entity=", "/v1/explain?q=x&id=1&after=soon",
	}
	for _, params := range []string{
		"", "q=", "q=x&k=abc", "q=x&k=0", "q=x&k=1001", "q=x&k=-3",
		"q=x&pool=abc", "q=x&pool=-1", "q=x&pool=10001",
		"q=x&beta=abc", "q=x&beta=7", "q=x&beta=-0.1",
		"q=x&after=soon", "q=x&before=1.5", "q=x&entity=",
		"q=x&entity=" + strings.Repeat("a&entity=", 16) + "a",
		"q=x&beta=7&after=soon", // two faults: both report the same one
	} {
		paths = append(paths, "/v1/search?"+params)
	}
	for _, path := range paths {
		got, err := fetch(http.MethodGet, ts.URL+path, "")
		want, werr := fetch(http.MethodGet, ref.URL+path, "")
		if err = errors.Join(err, werr); err != nil || want.status != http.StatusBadRequest {
			t.Fatalf("%s: single process answered %d (%v), want 400\n%s", path, want.status, err, want.raw)
		}
		if got.status != want.status || got.raw != want.raw {
			t.Errorf("%s: front doors disagree\nrouter: %d %s\nsingle: %d %s", path, got.status, got.raw, want.status, want.raw)
		}
	}
}

// TestRouterTraceSpans asserts the scatter/shard/gather span structure
// on a traced request.
func TestRouterTraceSpans(t *testing.T) {
	_, _, _, _, ts := startCluster(t, Config{})
	var res server.SearchResponse
	getJSON(t, ts.URL+"/v1/search?q="+url.QueryEscape("border clashes")+"&trace=1", http.StatusOK, &res)
	stages := map[string]bool{}
	for _, sp := range res.Trace {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"scatter", "gather", "shard[0]", "shard[1]", "shard[2]"} {
		if !stages[want] {
			t.Fatalf("trace missing stage %q; got %v", want, stages)
		}
	}
}

// TestRouterReadyAndStats exercises the operational surfaces.
func TestRouterReadyAndStats(t *testing.T) {
	_, _, _, rt, ts := startCluster(t, Config{})
	getJSON(t, ts.URL+"/v1/readyz", http.StatusOK, nil)
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, nil)
	var st ClusterStatus
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.Plan != rt.Plan().ID {
		t.Fatalf("stats plan %s, want %s", st.Plan, rt.Plan().ID)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("stats has %d shards, want 3", len(st.Shards))
	}
	for _, sh := range st.Shards {
		for _, ep := range sh.Endpoints {
			if !ep.Healthy {
				t.Fatalf("endpoint %s of slot %d not healthy after start", ep.URL, sh.Slot)
			}
		}
	}
}

// TestBuildPlanPartition checks the plan invariants the router relies
// on: contiguous bases that are the segments' positions in the snapshot,
// exhaustive segment coverage, and live counts net of tombstones.
func TestBuildPlanPartition(t *testing.T) {
	dir, g := buildSnapshot(t)
	m, err := newslink.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newslink.Load(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	text, _ := e.SegmentIndexes()
	docs := make([]int, len(text))
	for i, idx := range text {
		docs[i] = idx.NumDocs()
	}
	for _, n := range []int{1, 2, 3, 7} {
		plan, err := BuildPlan(m, docs, n)
		if err != nil {
			t.Fatal(err)
		}
		base, segs, live := 0, 0, 0
		for i, sp := range plan.Shards {
			if sp.Base != base {
				t.Fatalf("n=%d slot %d base %d, want %d", n, i, sp.Base, base)
			}
			if len(sp.Segments) == 0 {
				t.Fatalf("n=%d slot %d has no segments", n, i)
			}
			docsIn := 0
			for j := range sp.Segments {
				docsIn += docs[segs+j]
			}
			if sp.Docs != docsIn {
				t.Fatalf("n=%d slot %d holds %d documents, its segments %d", n, i, sp.Docs, docsIn)
			}
			base += sp.Docs
			segs += len(sp.Segments)
			live += sp.Live
		}
		if segs != 3 {
			t.Fatalf("n=%d covers %d segments, want 3", n, segs)
		}
		if live != 46 { // 48 docs, 2 tombstones
			t.Fatalf("n=%d live docs %d, want 46", n, live)
		}
	}
	if _, err := BuildPlan(m, docs, 0); err == nil {
		t.Fatal("BuildPlan(0) succeeded")
	}
	if _, err := BuildPlan(m, docs[1:], 3); err == nil {
		t.Fatal("BuildPlan without a count for every segment succeeded")
	}
	docs[0]++ // a tombstone bitmap no longer covering its segment
	if _, err := BuildPlan(m, docs, 3); !errors.Is(err, newslink.ErrSnapshotCorrupt) {
		t.Fatalf("BuildPlan over a miscounted segment: %v, want ErrSnapshotCorrupt", err)
	}
}

// assignDirect posts an assignment to a worker and returns its
// acknowledgement.
func assignDirect(t *testing.T, workerURL string, req *AssignRequest) AssignResponse {
	t.Helper()
	payload, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := doRequest(context.Background(), http.DefaultClient, workerURL+"/v1/shard/assign", payload)
	if err != nil {
		t.Fatal(err)
	}
	defer putBuf(body)
	var ack AssignResponse
	if err := DecodeRPC(*body, &ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// TestEmptyWorkerFetchesEveryArtifact: segments restore concurrently, so
// the worker's fetch hook runs on several goroutines at once. An empty
// worker assigned a slot of every segment fetches each artifact once, and
// its acknowledgement counts them all; the same assignment again is
// acknowledged without a reload or a fetch.
func TestEmptyWorkerFetchesEveryArtifact(t *testing.T) {
	dir, g := buildSnapshot(t)
	_, endpoints := startWorkers(t, g, 1)
	rt, _ := startRouter(t, dir, g, Config{Endpoints: endpoints})
	req := rt.assignRequest(rt.slots[0])
	_, fresh := startWorkers(t, g, 1)
	if ack := assignDirect(t, fresh[0][0], req); ack.Fetched != len(req.Checksums) || len(req.Segments) < 2 {
		t.Fatalf("empty worker acknowledged %+v for %d segments, want %d artifacts fetched", ack, len(req.Segments), len(req.Checksums))
	}
	if ack := assignDirect(t, fresh[0][0], req); ack.Fetched != 0 {
		t.Fatalf("repeated assignment acknowledged %+v, want nothing fetched", ack)
	}
}

// TestWorkerReassignmentClosesReplacedShard: a worker assigned one slot
// and then another closes the shard it replaced as it installs the new
// one: afterwards it holds one descriptor per segment of the new slot, on
// its documents, and maps nothing. A traversal reads only heap state, so
// one still running on the replaced shard reads the same postings before,
// during and after that Close.
func TestWorkerReassignmentClosesReplacedShard(t *testing.T) {
	_, g, _, rt, _ := startCluster(t, Config{})
	workers, endpoints := startWorkers(t, g, 1)
	a, b := rt.assignRequest(rt.slots[0]), rt.assignRequest(rt.slots[1])
	assignDirect(t, endpoints[0][0], a)
	replaced, _, _ := workers[0].snapshotState()
	terms, _, err := rt.engine.AnalyzeQuery(context.Background(), "clashes near the border")
	if err != nil || len(terms) == 0 {
		t.Fatalf("analyzed %v, %v", terms, err)
	}
	traverse := func() [][]index.Posting {
		text, _, err := replaced.Sources(0, 0, nil)
		if err != nil {
			t.Error(err)
			return nil
		}
		lists := make([][]index.Posting, len(terms))
		for i, term := range terms {
			if lists[i], err = index.Postings(text, term); err != nil {
				t.Error(err)
			}
		}
		return lists
	}
	want := traverse()
	if slices.IndexFunc(want, func(l []index.Posting) bool { return len(l) > 0 }) < 0 {
		t.Fatalf("no term of %v posts in the replaced slot", terms)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if got := traverse(); !reflect.DeepEqual(got, want) {
				t.Errorf("a traversal of the replaced shard read other postings while it closed")
				return
			}
		}
	}()
	assignDirect(t, endpoints[0][0], b)
	<-done
	if got := traverse(); !reflect.DeepEqual(got, want) {
		t.Fatal("a traversal of the replaced shard read other postings after it closed")
	}
	if fds, maps := openUnder(t, workers[0].dir); fds != len(b.Segments) || maps != 0 {
		t.Fatalf("worker re-assigned from %d segments to %d holds %d descriptors and %d mappings, want %d and 0",
			len(a.Segments), len(b.Segments), fds, maps, len(b.Segments))
	}
}

// BenchmarkClusterScatterGather measures an end-to-end search through the
// router and three local shard workers: each iteration is one scatter of
// the traversals, the merge, and the router engine's fusion, documents and
// snippets.
func BenchmarkClusterScatterGather(b *testing.B) {
	_, _, _, rt, _ := startCluster(b, Config{})
	h := rt.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/search?q="+url.QueryEscape("clashes near the border")+"&k=10", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
