package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newslink"
	"newslink/internal/corpus"
	"newslink/internal/faults"
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
	for _, id := range []int{arts[3].ID, arts[20].ID} {
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

// startWorkers launches n shard workers over httptest servers, returning
// both the workers (for fault-point IDs) and their endpoint groups in
// slot order: worker i serves slot i.
func startWorkers(t testing.TB, g *kg.Graph, n int) ([]*Worker, [][]string) {
	t.Helper()
	workers := make([]*Worker, n)
	endpoints := make([][]string, n)
	for i := range workers {
		w := NewWorker(fmt.Sprintf("w%d", i), t.TempDir(), g, testLogger())
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(ts.Close)
		workers[i] = w
		endpoints[i] = []string{ts.URL}
	}
	return workers, endpoints
}

// startRouter serves a router over an httptest server. The handler is
// installed through an indirection so the server's URL (the router's
// SelfURL, which workers fetch artifacts from) exists before NewRouter.
func startRouter(t testing.TB, dir string, g *kg.Graph, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	type handlerBox struct{ h http.Handler }
	var h atomic.Value
	h.Store(handlerBox{http.NotFoundHandler()})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.Load().(handlerBox).h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	cfg.SelfURL = ts.URL
	if cfg.Logger == nil {
		cfg.Logger = testLogger()
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	if cfg.retryBase == 0 {
		cfg.retryBase = time.Millisecond
	}
	rt, err := NewRouter(dir, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	h.Store(handlerBox{rt.Handler()})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := rt.Start(ctx); err != nil {
		t.Fatal(err)
	}
	return rt, ts
}

// startCluster is the full three-worker harness most tests use.
func startCluster(t testing.TB, cfg Config) (string, *kg.Graph, []*Worker, *Router, *httptest.Server) {
	t.Helper()
	dir, g := buildSnapshot(t)
	workers, endpoints := startWorkers(t, g, 3)
	cfg.Endpoints = endpoints
	rt, ts := startRouter(t, dir, g, cfg)
	return dir, g, workers, rt, ts
}

// getJSON asserts the status and decodes the body.
func getJSON(t testing.TB, rawurl string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(rawurl)
	if err != nil {
		t.Fatalf("GET %s: %v", rawurl, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", rawurl, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d\nbody: %s", rawurl, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding: %v\nbody: %s", rawurl, err, body)
		}
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

// parityCell is one cell of the router-parity table: a request kind, over
// unfiltered or filtered parameters. runParity runs its cells against a
// router with hedging off or on.
type parityCell struct {
	kind     string // "search", "related" or "explain"
	filtered bool
}

// parityCluster is what runParity ran against: the snapshot and its
// graph, the workers, the router and its server, and the single process
// over the same snapshot.
type parityCluster struct {
	dir     string
	g       *kg.Graph
	workers []*Worker
	rt      *Router
	ts, ref *httptest.Server
}

var (
	parityLive       = []int{0, 10, 17, 33, 47} // one per segment edge, none tombstoned
	parityTombstoned = []int{3, 20}
	parityEdges      = []string{"", "&k=1", "&k=3", "&k=25", "&k=46", "&k=100", "&pool=1", "&pool=12", "&k=3&pool=3", "&k=5&pool=10000"}
)

// parityPaths lists the requests of one cell: every query, document and
// parameter edge of its kind, tombstoned documents included.
func parityPaths(c parityCell) []string {
	var paths []string
	ids := append(append([]int(nil), parityLive...), parityTombstoned...)
	switch {
	case c.kind == "search" && !c.filtered:
		for _, q := range identityQueries {
			for _, p := range append(parityEdges, "&beta=0", "&beta=1", "&beta=0.5", "&beta=0.5&k=7") {
				paths = append(paths, "/v1/search?q="+url.QueryEscape(q)+p)
			}
		}
	case c.kind == "search":
		for _, q := range identityQueries[:4] {
			for _, flt := range filteredParams() {
				for _, p := range []string{"", "&k=3", "&beta=0", "&beta=1"} {
					paths = append(paths, "/v1/search?q="+url.QueryEscape(q)+flt+p)
				}
			}
		}
	case c.kind == "related":
		params := parityEdges
		if c.filtered {
			params = filteredParams()
		}
		for _, id := range ids {
			for _, p := range params {
				paths = append(paths, fmt.Sprintf("/v1/related/%d?%s", id, strings.TrimPrefix(p, "&")))
			}
		}
	default:
		params := []string{""}
		if c.filtered {
			params = filteredParams()
		}
		for _, id := range ids {
			for _, q := range identityQueries[:2] {
				for _, p := range params {
					paths = append(paths, fmt.Sprintf("/v1/explain?q=%s&id=%d&paths=4%s", url.QueryEscape(q), id, p))
				}
			}
		}
	}
	return paths
}

// runParity asserts the merge-identity property over the given cells: the
// router's scatter-gather over three shard workers answers every request
// of every cell — status, ranking, scores, explanation — as a single
// process over the same snapshot, tombstones included, with no shard
// reported missing. With hedge on, slot 0 has a second, persistently
// slow replica, and the requests run 20 at a time, so every payload is
// read by two in-flight attempts and losers' buffers are abandoned; a
// hedge must fire.
func runParity(t *testing.T, hedge bool, cells ...parityCell) parityCluster {
	t.Helper()
	var c parityCluster
	c.dir, c.g = buildSnapshot(t)
	cfg := Config{}
	if hedge {
		workers, endpoints := startWorkers(t, c.g, 4)
		endpoints[0] = append(endpoints[0], endpoints[3][0])
		c.workers, cfg = workers, Config{Endpoints: endpoints[:3], Hedge: true, hedgeMin: time.Millisecond}
	} else {
		c.workers, cfg.Endpoints = startWorkers(t, c.g, 3)
	}
	c.rt, c.ts = startRouter(t, c.dir, c.g, cfg)
	c.ref = referenceServer(t, c.dir, c.g)
	var paths []string
	for _, cell := range cells {
		paths = append(paths, parityPaths(cell)...)
	}
	type answer struct {
		status int
		body   map[string]any
	}
	fetch := func(rawurl string) (answer, error) {
		resp, err := http.Get(rawurl)
		if err != nil {
			return answer{}, err
		}
		defer resp.Body.Close()
		a := answer{status: resp.StatusCode}
		return a, json.NewDecoder(resp.Body).Decode(&a.body)
	}
	want := make([]answer, len(paths))
	for i, path := range paths {
		var err error
		if want[i], err = fetch(c.ref.URL + path); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	clients := 1
	if hedge {
		faults.Arm(faults.New().Delay(faults.ClusterShard(c.workers[0].ID()), 5*time.Millisecond))
		defer faults.Disarm()
		clients = 20
	}
	var nonEmpty atomic.Int64
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(paths); i += clients {
				got, err := fetch(c.ts.URL + paths[i])
				if _, ranked := got.body["results"]; err == nil && got.status == http.StatusOK && ranked {
					if got.body["shards_total"] != float64(3) || got.body["shards_ok"] != float64(3) || got.body["degraded"] != nil {
						err = fmt.Errorf("all shards live, got %v", got.body)
					}
					delete(got.body, "shards_total")
					delete(got.body, "shards_ok")
					if res, _ := got.body["results"].([]any); len(res) > 0 {
						nonEmpty.Add(1)
					}
				}
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = fmt.Errorf("cluster and single process diverge\ncluster: %+v\nsingle:  %+v", got, want[i])
				}
				if err != nil {
					t.Errorf("%s: %v", paths[i], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	ranked := slices.ContainsFunc(cells, func(c parityCell) bool { return c.kind != "explain" })
	if ranked && nonEmpty.Load() == 0 {
		t.Error("no request had results; the comparison went unexercised")
	}
	if hedge && c.rt.mHedges.Value() == 0 {
		t.Error("no hedge fired against a persistently slow replica")
	}
	return c
}

func TestRouterMatchesSingleProcess(t *testing.T) { runParity(t, false, parityCell{kind: "search"}) }

func TestRouterFilteredMatchesSingleProcess(t *testing.T) {
	runParity(t, false, parityCell{kind: "search", filtered: true})
}

func TestRouterExplainMatchesSingleProcess(t *testing.T) {
	runParity(t, false, parityCell{kind: "explain"})
}

func TestRouterFilteredExplain(t *testing.T) {
	runParity(t, false, parityCell{kind: "explain", filtered: true})
}

// fixtureCorpus regenerates the deterministic fixture corpus and world
// behind buildSnapshot, for tests that need entity labels and timestamps.
func fixtureCorpus() (*kg.World, []corpus.Article) {
	w := kg.Generate(kg.DefaultConfig(19))
	return w, corpus.Generate(w, corpus.CNNLike(), 48, 19)
}

// filteredParams enumerates filter query-parameter combinations over the
// fixture corpus: each temporal bound, a closed window, an entity facet
// (resolved and unresolvable), and a composition.
func filteredParams() []string {
	w, arts := fixtureCorpus()
	label := w.Graph.Label(w.Events[0].Participants[0])
	mid, late := arts[24].Time, arts[36].Time
	return []string{
		fmt.Sprintf("&after=%d", mid),
		fmt.Sprintf("&before=%d", mid),
		fmt.Sprintf("&after=%d&before=%d", mid, late),
		"&entity=" + url.QueryEscape(label),
		fmt.Sprintf("&entity=%s&before=%d", url.QueryEscape(label), mid),
		"&entity=" + url.QueryEscape("No Such Entity Anywhere"),
	}
}

// TestMalformedSearchSameOnBothFrontDoors: the router and a single process
// parse one request grammar per route, so every malformed search or
// explain is refused with the same status and the same body on both.
func TestMalformedSearchSameOnBothFrontDoors(t *testing.T) {
	dir, g, _, _, ts := startCluster(t, Config{})
	ref := referenceServer(t, dir, g)
	body := func(base, path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return resp.StatusCode, string(b)
	}
	paths := []string{
		"/v1/explain?id=1", "/v1/explain?q=x", "/v1/explain?q=x&id=abc", "/v1/explain?q=x&id=-1",
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
		gotStatus, gotBody := body(ts.URL, path)
		wantStatus, wantBody := body(ref.URL, path)
		if wantStatus != http.StatusBadRequest {
			t.Fatalf("%s: single process answered %d, want 400\n%s", path, wantStatus, wantBody)
		}
		if gotStatus != wantStatus || gotBody != wantBody {
			t.Errorf("%s: front doors disagree\nrouter: %d %s\nsingle: %d %s", path, gotStatus, gotBody, wantStatus, wantBody)
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
