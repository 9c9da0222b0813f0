package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newslink"
	"newslink/internal/faults"
	"newslink/internal/kg"
	"newslink/internal/server"
)

// TestNewVocabularyCostsTwoRPCsPerShard: the router reads statistics from
// the snapshot it owns and holds every document itself, so any query —
// one whose terms it has never seen, or an entity-filtered one — costs
// what every query costs: one search per live shard and nothing else (the
// docs call that made it two is gone). Nothing is ever sent to the retired
// /v1/shard/{stats,docs,explain} (no longer routes: see
// TestWorkerUnassignedErrorPaths), and the router's indexes serve all of
// it from their directories: not one postings byte is read.
func TestNewVocabularyCostsTwoRPCsPerShard(t *testing.T) {
	dir, g := buildSnapshot(t)
	var mu sync.Mutex
	calls := map[string]int{}
	endpoints := make([][]string, 3)
	for i := range endpoints {
		h := NewWorker(fmt.Sprintf("w%d", i), t.TempDir(), g, testLogger()).Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			calls[r.URL.Path]++
			mu.Unlock()
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		endpoints[i] = []string{ts.URL}
	}
	rt, ts := startRouter(t, dir, g, Config{Endpoints: endpoints})
	ref := referenceServer(t, dir, g)

	entity := "&entity=" + url.QueryEscape(clusterWorld().labels[1])
	paths := []string{"/v1/search?q=" + url.QueryEscape(identityQueries[0]) + "&k=10" + entity}
	for _, q := range identityQueries {
		paths = append(paths, "/v1/search?q="+url.QueryEscape(q)+"&k=10")
	}
	for _, path := range paths {
		mu.Lock()
		clear(calls)
		mu.Unlock()
		var got, want server.SearchResponse
		getJSON(t, ts.URL+path, http.StatusOK, &got)
		getJSON(t, ref.URL+path, http.StatusOK, &want)
		if got.Degraded || !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("%s: cluster diverges from the single process\ncluster: %+v\nsingle:  %+v", path, got, want.Results)
		}
		if len(got.Results) == 0 && path == paths[0] {
			t.Fatalf("%s: the entity-filtered query matched nothing; the filtered case went unexercised", path)
		}
		wantCalls := map[string]int{"/v1/shard/search": 3}
		mu.Lock()
		if !reflect.DeepEqual(calls, wantCalls) {
			t.Errorf("%s: shard calls %v, want %v", path, calls, wantCalls)
		}
		mu.Unlock()
	}

	if n := rt.Metrics().Counter("newslink_blocks_decoded_total", "").Value(); n != 0 {
		t.Errorf("the router decoded %d postings blocks, want 0: its workers traverse them", n)
	}
}

// openUnder counts what this process holds on files under dir: open
// descriptors and memory mappings.
func openUnder(t *testing.T, dir string) (fds, maps int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	mapped, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("cannot list mappings: %v", err)
	}
	// t.TempDir may sit behind a symlink; descriptors and mappings name
	// the real path.
	real, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, real+"/") {
			fds++
		}
	}
	for _, line := range strings.Split(string(mapped), "\n") {
		if strings.Contains(line, " "+real+"/") {
			maps++
		}
	}
	return fds, maps
}

// copySnapshot copies the (flat) snapshot directory src into a fresh one.
func copySnapshot(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// editChecksums rewrites the checksum map of the snapshot's meta.json.
func editChecksums(t *testing.T, dir string, edit func(sums map[string]string)) {
	t.Helper()
	path := filepath.Join(dir, "meta.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]json.RawMessage
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	var sums map[string]string
	if err := json.Unmarshal(meta["checksums"], &sums); err != nil {
		t.Fatal(err)
	}
	edit(sums)
	if meta["checksums"], err = json.Marshal(sums); err != nil {
		t.Fatal(err)
	}
	if data, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fileChecksum is a file's CRC32-C in the manifest's encoding.
func fileChecksum(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%08x", crc32.Checksum(data, castagnoli))
}

// Layout of a documents artifact (docsfile.go in the root package), as far
// as the corruption cases below edit one: a 16-byte header (magic, count),
// the ID and Time columns, then 2n+1 offsets into the text area.
func docsCount(b []byte) int { return int(binary.LittleEndian.Uint64(b[8:])) }

func docsOffsets(b []byte) []byte {
	n := docsCount(b)
	return b[16+16*n : 16+32*n+8]
}

// TestNewRouterCorruptionTable: the router depends on every artifact, so
// it fails the way the loaders do — every documents, text, node and
// embeddings artifact of the snapshot, missing, truncated, bit-flipped or
// without a recorded checksum, every documents artifact that passes
// verification but disagrees with its index (count) or with itself
// (offsets), and every embeddings artifact that passes verification but
// does not parse, is ErrSnapshotCorrupt naming the artifact from
// NewRouter, with no router returned and no descriptor left open on the
// snapshot.
func TestNewRouterCorruptionTable(t *testing.T) {
	pristine, g := buildSnapshot(t)
	m, err := newslink.ReadManifest(pristine)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(path string, fn func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, fn(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// recorded rewrites an artifact and records its new checksum, so the
	// damage passes verification and reaches the reader.
	recorded := func(fn func([]byte) []byte) func(dir, artifact string) {
		return func(dir, artifact string) {
			path := filepath.Join(dir, artifact)
			mutate(path, fn)
			sum := fileChecksum(t, path)
			editChecksums(t, dir, func(sums map[string]string) { sums[artifact] = sum })
		}
	}
	type damage struct {
		name  string
		apply func(dir, artifact string)
	}
	damages := []damage{
		{"missing", func(dir, artifact string) {
			if err := os.Remove(filepath.Join(dir, artifact)); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(dir, artifact string) {
			mutate(filepath.Join(dir, artifact), func(b []byte) []byte { return b[:len(b)/2] })
		}},
		{"bit-flipped", func(dir, artifact string) {
			mutate(filepath.Join(dir, artifact), func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b })
		}},
		{"checksum absent from the manifest", func(dir, artifact string) {
			editChecksums(t, dir, func(sums map[string]string) {
				if _, ok := sums[artifact]; !ok {
					t.Fatalf("manifest has no checksum for %s to drop", artifact)
				}
				delete(sums, artifact)
			})
		}},
	}
	docsDamages := append(damages,
		damage{"count other than the index's", recorded(func(b []byte) []byte {
			// Drop the last document: its ID, time, closing offsets and text.
			n := docsCount(b)
			offs := docsOffsets(b)
			end := binary.LittleEndian.Uint64(offs[8*(2*n-2):])
			out := binary.LittleEndian.AppendUint64(append([]byte(nil), b[:8]...), uint64(n-1))
			out = append(out, b[16:16+8*(n-1)]...)
			out = append(out, b[16+8*n:16+8*n+8*(n-1)]...)
			out = append(out, offs[:8*(2*n-1)]...)
			return append(out, b[16+32*n+8:][:end]...)
		})},
		damage{"offset past the text area", recorded(func(b []byte) []byte {
			area := len(b) - (16 + 32*docsCount(b) + 8)
			binary.LittleEndian.PutUint64(docsOffsets(b)[3*8:], uint64(area+1))
			return b
		})},
		damage{"non-monotone offsets", recorded(func(b []byte) []byte {
			offs := docsOffsets(b)
			binary.LittleEndian.PutUint64(offs[1*8:], binary.LittleEndian.Uint64(offs[2*8:])+1)
			return b
		})},
	)
	cfg := Config{Endpoints: [][]string{{"http://a"}, {"http://b"}, {"http://c"}}, Logger: testLogger()}
	for _, sm := range m.Segments {
		for _, suffix := range []string{".docs.bin", ".text.idx", ".node.idx"} {
			artifact := "seg-" + sm.ID + suffix
			dmgs := damages
			if suffix == ".docs.bin" {
				dmgs = docsDamages
			}
			for _, dmg := range dmgs {
				dir := copySnapshot(t, pristine)
				dmg.apply(dir, artifact)
				rt, err := NewRouter(dir, g, cfg)
				if !errors.Is(err, newslink.ErrSnapshotCorrupt) || !strings.Contains(err.Error(), artifact) {
					t.Errorf("%s %s: err = %v, want ErrSnapshotCorrupt naming the artifact", artifact, dmg.name, err)
				}
				if rt != nil {
					t.Errorf("%s %s: NewRouter returned a router", artifact, dmg.name)
					rt.Close()
				}
				if fds, maps := openUnder(t, dir); fds+maps != 0 {
					t.Errorf("%s %s: %d descriptors and %d mappings left on the snapshot", artifact, dmg.name, fds, maps)
				}
			}
		}
	}
}

// TestRouterCloseReleasesIndexFiles: a router maps nothing of its
// snapshot and holds one descriptor per segment of its plan, on the
// segment's documents (its indexes were read onto the heap); Close
// releases every descriptor.
func TestRouterCloseReleasesIndexFiles(t *testing.T) {
	dir, g := buildSnapshot(t)
	rt, err := NewRouter(dir, g, Config{Endpoints: [][]string{{"http://a"}, {"http://b"}}, Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	segments := 0
	for _, sp := range rt.Plan().Shards {
		segments += len(sp.Segments)
	}
	if fds, maps := openUnder(t, dir); fds != segments || maps != 0 {
		t.Errorf("open router holds %d descriptors and %d mappings on the snapshot, want %d and 0 (the documents of %d segments)",
			fds, maps, segments, segments)
	}
	rt.Close()
	if fds, maps := openUnder(t, dir); fds+maps != 0 {
		t.Errorf("closed router still holds %d descriptors and %d mappings on the snapshot", fds, maps)
	}
}

// bigTextSnapshot saves the fixture corpus as six segments (two
// tombstones) with every document's text padded by 200 KiB: 9.4 MiB of
// document text in all, more than maxRPCBody.
func bigTextSnapshot(t *testing.T) (string, *kg.Graph) {
	t.Helper()
	w, arts := fixtureCorpus()
	pad := strings.Repeat(" ", 200<<10)
	e := newslink.New(w.Graph, newslink.DefaultConfig())
	for i, a := range arts {
		if err := e.Add(newslink.Document{ID: a.ID, Title: a.Title, Text: a.Text + pad, Time: a.Time}); err != nil {
			t.Fatal(err)
		}
		if (i+1)%8 != 0 {
			continue
		}
		if i+1 == 8 {
			if err := e.Build(); err != nil {
				t.Fatal(err)
			}
		} else {
			e.Refresh()
		}
	}
	for _, id := range []int{arts[3].ID, arts[20].ID} {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.NumSegments(); n != 6 {
		t.Fatalf("fixture produced %d segments, want 6", n)
	}
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir, w.Graph
}

// TestOneSlotRouterOverMoreThanTheRPCCap: a router with one slot assigns
// the whole snapshot to one worker. Its document text is larger than any
// RPC body may be, which must not matter — documents reach the worker in
// the snapshot's artifacts, not in the assignment — so the router becomes
// ready and answers exactly like a single process.
func TestOneSlotRouterOverMoreThanTheRPCCap(t *testing.T) {
	dir, g := bigTextSnapshot(t)
	_, endpoints := startWorkers(t, g, 1)
	_, ts := startRouter(t, dir, g, Config{Endpoints: endpoints})
	getJSON(t, ts.URL+"/v1/readyz", http.StatusOK, nil)
	ref := referenceServer(t, dir, g)
	for _, q := range identityQueries {
		path := "/v1/search?q=" + url.QueryEscape(q) + "&k=5"
		var got, want server.SearchResponse
		getJSON(t, ts.URL+path, http.StatusOK, &got)
		getJSON(t, ref.URL+path, http.StatusOK, &want)
		if got.Degraded || !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("%s: cluster diverges from the single process\ncluster: %+v\nsingle:  %+v", path, got, want.Results)
		}
	}
}

// TestAssignRequestCarriesNoDocuments: an assignment names segments and
// checksums only, so its encoded size does not grow with the corpus text —
// a few hundred bytes per segment for the benchmark's plan shape (six
// segments over three slots), here over 9 MiB of text.
func TestAssignRequestCarriesNoDocuments(t *testing.T) {
	dir, g := bigTextSnapshot(t)
	rt, err := NewRouter(dir, g, Config{Endpoints: [][]string{{"http://a"}, {"http://b"}, {"http://c"}}, Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, sl := range rt.slots {
		body, err := encodeRequest(rt.assignRequest(sl))
		if err != nil {
			t.Fatal(err)
		}
		if len(body) >= 4<<10 {
			t.Errorf("slot %d: assignment of %d segments encodes to %d bytes, want < 4 KiB", sl.idx, len(sl.plan.Segments), len(body))
		}
	}
}

// TestLoadersRefuseSnapshotVersions: version 7 is the one snapshot format.
// A snapshot whose meta.json names another version — 4, 5 and 6 from
// before, 8 from a later build — is ErrSnapshotVersion on every entry that reads a
// manifest: the three loaders, ReadManifest and the router. The message
// names the version, and no engine or router comes back.
func TestLoadersRefuseSnapshotVersions(t *testing.T) {
	src, g := buildSnapshot(t)
	routed := func(dir string, g *kg.Graph, _ ...newslink.Option) (*newslink.Engine, error) {
		return newslink.LoadRouted(dir, g, func(context.Context, newslink.Traversal) (newslink.Retrieval, error) {
			return newslink.Retrieval{}, nil
		})
	}
	for _, v := range []int{4, 5, 6, 8} {
		dir := copySnapshot(t, src)
		metaPath := filepath.Join(dir, "meta.json")
		data, err := os.ReadFile(metaPath)
		if err != nil {
			t.Fatal(err)
		}
		var meta map[string]json.RawMessage
		if err := json.Unmarshal(data, &meta); err != nil {
			t.Fatal(err)
		}
		meta["version"] = json.RawMessage(fmt.Sprint(v))
		if data, err = json.Marshal(meta); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metaPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		refused := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, newslink.ErrSnapshotVersion) || !strings.Contains(err.Error(), fmt.Sprintf("version %d,", v)) {
				t.Fatalf("version %d: %s: %v, want ErrSnapshotVersion naming the version", v, what, err)
			}
		}
		for name, load := range map[string]func(string, *kg.Graph, ...newslink.Option) (*newslink.Engine, error){
			"Load": newslink.Load, "LoadRouted": routed,
		} {
			e, err := load(dir, g)
			refused(name, err)
			if e != nil {
				t.Fatalf("version %d: %s returned an engine", v, name)
			}
		}
		m, err := newslink.ReadManifest(dir)
		refused("ReadManifest", err)
		rt, err := NewRouter(dir, g, Config{Endpoints: [][]string{{"http://a"}}, Logger: testLogger()})
		refused("NewRouter", err)
		if m != nil || rt != nil {
			t.Fatalf("version %d: a manifest or a router came back", v)
		}
	}
}

// TestStartAssignsEndpointsConcurrently: initial assignment runs for every
// endpoint at once. With the first slot's worker stalled in its assign
// handler, the other two slots are admitted — and the router is ready —
// while that worker is still unassigned and Start has not returned.
func TestStartAssignsEndpointsConcurrently(t *testing.T) {
	dir, g := buildSnapshot(t)
	workers, endpoints := startWorkers(t, g, 3)
	const stall = 2 * time.Second
	faults.Arm(faults.New().Delay(faults.ClusterShard(workers[0].ID()), stall))
	defer faults.Disarm()

	var h atomic.Pointer[http.Handler]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { (*h.Load()).ServeHTTP(w, r) }))
	defer ts.Close()
	rt, err := NewRouter(dir, g, Config{Endpoints: endpoints, SelfURL: ts.URL, Logger: testLogger(), ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rh := rt.Handler()
	h.Store(&rh)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := time.Now()
	done := make(chan error, 1)
	go func() { done <- rt.Start(ctx) }()

	for !rt.slots[1].eps[0].healthy.Load() || !rt.slots[2].eps[0].healthy.Load() {
		select {
		case err := <-done:
			t.Fatalf("Start returned (%v) before the unstalled slots were admitted", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	getJSON(t, ts.URL+"/v1/readyz", http.StatusOK, nil)
	if e, _, _ := workers[0].snapshotState(); e != nil {
		t.Fatal("the stalled worker was assigned before the other slots were admitted")
	}
	if rt.slots[0].eps[0].healthy.Load() {
		t.Fatal("the stalled slot was admitted before its worker answered")
	}
	if elapsed := time.Since(started); elapsed >= stall {
		t.Fatalf("the other slots took %v to be admitted, as long as the stall", elapsed)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !rt.slots[0].eps[0].healthy.Load() {
		t.Fatal("Start returned without admitting the stalled slot")
	}
}

// TestRouterStoredFieldReadErrors: the router reads documents from its
// snapshot on demand — search and related to gather results, explain, dot
// and related to re-derive a document's embedding from its text — so a
// disk going bad under it fails the requests that read them, never a 200
// with empty or missing results. Before the damage, explain answers
// exactly as a single process does.
func TestRouterStoredFieldReadErrors(t *testing.T) {
	dir, g, _, _, ts := startCluster(t, Config{})
	ref := referenceServer(t, dir, g)
	q := url.QueryEscape(identityQueries[0])
	var res server.SearchResponse
	getJSON(t, ts.URL+"/v1/search?q="+q+"&k=5", http.StatusOK, &res)
	if len(res.Results) == 0 {
		t.Fatal("no results to read")
	}
	id := res.Results[0].ID
	explain := fmt.Sprintf("/v1/explain?q=%s&id=%d&paths=3", q, id)
	dot := fmt.Sprintf("/v1/dot?q=%s&id=%d", q, id)
	related := fmt.Sprintf("/v1/related/%d?k=5", id)
	truncate := func(suffix string) {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(dir, "seg-*."+suffix))
		if err != nil || len(matches) == 0 {
			t.Fatalf("no seg-*.%s under %s (%v)", suffix, dir, err)
		}
		for _, path := range matches {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	var got, want server.ExplainResponse
	getJSON(t, ts.URL+explain, http.StatusOK, &got)
	getJSON(t, ref.URL+explain, http.StatusOK, &want)
	if !reflect.DeepEqual(got.Explanation, want.Explanation) {
		t.Fatalf("explain diverges\ncluster: %+v\nsingle:  %+v", got.Explanation, want.Explanation)
	}

	truncate("docs.bin")
	getJSON(t, ts.URL+"/v1/search?q="+q+"&k=5", http.StatusInternalServerError, nil)
	getJSON(t, ts.URL+related, http.StatusInternalServerError, nil)
	getJSON(t, ts.URL+explain, http.StatusInternalServerError, nil)
	getJSON(t, ts.URL+dot, http.StatusInternalServerError, nil)
}

// TestNewRouterRejectsDuplicateEndpoint: a worker holds one slot, and a
// search RPC does not name its slot, so a worker listed under two slots
// would answer both with one slot's postings — silently wrong rankings.
// NewRouter refuses a URL listed twice, within a group or across groups
// (a surplus group folds into a slot as replicas), and names it.
func TestNewRouterRejectsDuplicateEndpoint(t *testing.T) {
	dir, g := buildSnapshot(t)
	for _, eps := range [][][]string{
		{{"http://w0"}, {"http://w0"}, {"http://w2"}},
		{{"http://w0", "http://w0"}, {"http://w1"}},
		{{"http://w1"}, {"http://w0"}, {"http://w2"}, {"http://w0"}},
	} {
		rt, err := NewRouter(dir, g, Config{Endpoints: eps, Logger: testLogger()})
		if err == nil || !strings.Contains(err.Error(), "http://w0 ") {
			t.Errorf("endpoints %v: err = %v, want one naming http://w0", eps, err)
		}
		if rt != nil {
			rt.Close()
			t.Errorf("endpoints %v: NewRouter returned a router", eps)
		}
	}
}
