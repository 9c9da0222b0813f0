package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"newslink"
	"newslink/internal/server"
)

// TestNewVocabularyCostsTwoRPCsPerShard: the router reads statistics from
// the snapshot it owns, so a query whose terms it has never seen costs what
// every query costs — one search per live shard and one docs call per shard
// owning a result — and nothing is ever sent to the retired /v1/shard/stats,
// which is no longer a route. The router's indexes serve all of it from
// their directories: not one postings byte is read.
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

	sixes := 0
	for _, q := range identityQueries {
		mu.Lock()
		clear(calls)
		mu.Unlock()
		// The first time the router sees any of these terms.
		path := "/v1/search?q=" + url.QueryEscape(q) + "&k=10"
		var got, want server.SearchResponse
		getJSON(t, ts.URL+path, http.StatusOK, &got)
		getJSON(t, ref.URL+path, http.StatusOK, &want)
		if got.Degraded || !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("%s: cluster diverges from the single process\ncluster: %+v\nsingle:  %+v", path, got, want.Results)
		}
		owners := map[int]bool{}
		for _, r := range got.Results {
			slot, ok := rt.Plan().ShardOf(r.ID)
			if !ok {
				t.Fatalf("%s: result %d belongs to no slot", path, r.ID)
			}
			owners[slot] = true
		}
		wantCalls := map[string]int{}
		if len(got.Results) > 0 {
			wantCalls["/v1/shard/search"], wantCalls["/v1/shard/docs"] = 3, len(owners)
		}
		mu.Lock()
		if !reflect.DeepEqual(calls, wantCalls) {
			t.Errorf("%s: shard calls %v, want %v", path, calls, wantCalls)
		}
		mu.Unlock()
		if len(owners) == 3 {
			sixes++
		}
	}
	if sixes == 0 {
		t.Fatal("no fixture query has results on all three shards; the 2-RPCs-per-shard case went unexercised")
	}

	resp, err := http.Post(endpoints[0][0]+"/v1/shard/stats", "application/octet-stream", strings.NewReader("NL"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/shard/stats on a worker: status %d, want 404", resp.StatusCode)
	}

	for _, sl := range rt.slots {
		for i := range sl.text {
			if n := sl.text[i].BytesRead() + sl.node[i].BytesRead(); n != 0 {
				t.Errorf("slot %d segment %d: the router read %d postings bytes, want 0", sl.idx, i, n)
			}
		}
	}
}

// openUnder counts this process's open descriptors on files under dir.
func openUnder(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	// t.TempDir may sit behind a symlink; descriptors name the real path.
	real, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, real+"/") {
			n++
		}
	}
	return n
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

// TestNewRouterCorruptionTable: the router now depends on the index
// artifacts, so it fails the way the loaders do — every text and node index
// of the snapshot, missing, truncated, bit-flipped or without a recorded
// checksum, is ErrSnapshotCorrupt from NewRouter, with no router returned
// and no descriptor left open on the snapshot.
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
	damages := []struct {
		name  string
		apply func(dir, artifact string)
	}{
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
			mutate(filepath.Join(dir, "meta.json"), func(b []byte) []byte {
				var meta map[string]json.RawMessage
				if err := json.Unmarshal(b, &meta); err != nil {
					t.Fatal(err)
				}
				var sums map[string]string
				if err := json.Unmarshal(meta["checksums"], &sums); err != nil {
					t.Fatal(err)
				}
				if _, ok := sums[artifact]; !ok {
					t.Fatalf("manifest has no checksum for %s to drop", artifact)
				}
				delete(sums, artifact)
				if meta["checksums"], err = json.Marshal(sums); err != nil {
					t.Fatal(err)
				}
				out, err := json.Marshal(meta)
				if err != nil {
					t.Fatal(err)
				}
				return out
			})
		}},
	}
	cfg := Config{Endpoints: [][]string{{"http://a"}, {"http://b"}, {"http://c"}}, Logger: testLogger()}
	for _, sm := range m.Segments {
		for _, suffix := range []string{".text.idx", ".node.idx"} {
			artifact := "seg-" + sm.ID + suffix
			for _, dmg := range damages {
				dir := copySnapshot(t, pristine)
				dmg.apply(dir, artifact)
				rt, err := NewRouter(dir, g, cfg)
				if !errors.Is(err, newslink.ErrSnapshotCorrupt) {
					t.Errorf("%s %s: err = %v, want ErrSnapshotCorrupt", artifact, dmg.name, err)
				}
				if rt != nil {
					t.Errorf("%s %s: NewRouter returned a router", artifact, dmg.name)
					rt.Close()
				}
				if n := openUnder(t, dir); n != 0 {
					t.Errorf("%s %s: %d descriptors left open on the snapshot", artifact, dmg.name, n)
				}
			}
		}
	}
}

// TestRouterCloseReleasesIndexFiles: a router holds one descriptor per
// index artifact of its plan, and Close gives every one of them back.
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
	if got := openUnder(t, dir); got != 2*segments {
		t.Errorf("open router holds %d descriptors on the snapshot, want %d (text + node of %d segments)", got, 2*segments, segments)
	}
	rt.Close()
	if got := openUnder(t, dir); got != 0 {
		t.Errorf("closed router still holds %d descriptors on the snapshot", got)
	}
}
