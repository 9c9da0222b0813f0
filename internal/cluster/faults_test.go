package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"newslink"
	"newslink/internal/faults"
	"newslink/internal/kg"
	"newslink/internal/server"
)

// liveSlotReference serves the corpus of every slot except the excluded
// one through a single-process engine: the oracle for degraded results.
// The excluded slot's documents simply do not exist in this engine — it
// loads a copy of the snapshot whose manifest lists only the other
// slots' segments — so its ranking is exactly what "merge the live
// shards" must produce.
func liveSlotReference(t *testing.T, dir string, g *kg.Graph, plan *Plan, exclude int) *httptest.Server {
	t.Helper()
	m, err := newslink.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Segments = nil
	for i, sp := range plan.Shards {
		if i != exclude {
			m.Segments = append(m.Segments, sp.Segments...)
		}
	}
	sub := t.TempDir()
	for _, sm := range m.Segments {
		for _, name := range newslink.SegmentFileNames(sm.ID) {
			if err := os.Link(filepath.Join(dir, name), filepath.Join(sub, name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	meta, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := newslink.Load(sub, g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	ts := httptest.NewServer(server.New(eng).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// assertDegradedMatches asserts one degraded search against the
// live-slot oracle: 200, Degraded, 2/3 shards, identical results.
func assertDegradedMatches(t *testing.T, routerURL, refURL, q string) {
	t.Helper()
	path := "/v1/search?q=" + url.QueryEscape(q) + "&k=10"
	var got, want server.SearchResponse
	getJSON(t, routerURL+path, http.StatusOK, &got)
	getJSON(t, refURL+path, http.StatusOK, &want)
	if !got.Degraded || got.DegradedReason != "shard_unavailable" {
		t.Fatalf("%s: want degraded shard_unavailable, got %+v", path, got)
	}
	if got.ShardsTotal != 3 || got.ShardsOK != 2 {
		t.Fatalf("%s: shards %d/%d, want 2/3", path, got.ShardsOK, got.ShardsTotal)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("%s: degraded results diverge from live-slot merge\ncluster: %+v\noracle:  %+v",
			path, got.Results, want.Results)
	}
}

// waitRecovered polls until the router serves full, non-degraded results
// again (the probe loop re-admitted the shard) and then checks identity
// against the full-snapshot oracle.
func waitRecovered(t *testing.T, routerURL, refURL, q string) {
	t.Helper()
	path := "/v1/search?q=" + url.QueryEscape(q) + "&k=10"
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got server.SearchResponse
		getJSON(t, routerURL+path, http.StatusOK, &got)
		if !got.Degraded && got.ShardsOK == 3 {
			var want server.SearchResponse
			getJSON(t, refURL+path, http.StatusOK, &want)
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("%s: post-recovery results diverge\ncluster: %+v\nsingle:  %+v",
					path, got.Results, want.Results)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: still degraded (%d/%d) after 10s", path, got.ShardsOK, got.ShardsTotal)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDegradedOnShardError injects a persistent RPC error into one
// worker: every search must still answer 200 with Degraded=true and
// results identical to merging the two live shards. Disarming the fault
// must lead to automatic re-admission with full results — no router
// restart.
func TestDegradedOnShardError(t *testing.T) {
	dir, g, workers, rt, ts := startCluster(t, Config{})
	ref := liveSlotReference(t, dir, g, rt.Plan(), 1)
	full := referenceServer(t, dir, g)
	q := "clashes near the border"

	partialBefore := rt.mPartial.Value()
	faults.Arm(faults.New().Fail(faults.ClusterShard(workers[1].ID()), errors.New("injected shard error")))
	defer faults.Disarm()

	assertDegradedMatches(t, ts.URL, ref.URL, q)
	assertDegradedMatches(t, ts.URL, ref.URL, "minister parliament vote")
	if got := rt.mPartial.Value(); got <= partialBefore {
		t.Fatalf("partial-results counter did not move: %d", got)
	}

	// Explain runs on the router's engine, which holds every document and
	// embedding: the dead shard's documents still explain; so do a live
	// shard's.
	sp := rt.Plan().Shards[1]
	getJSON(t, ts.URL+fmt.Sprintf("/v1/explain?q=x&id=%d", sp.Base), http.StatusOK, nil)
	getJSON(t, ts.URL+"/v1/explain?q=border&id=0", http.StatusOK, nil)

	faults.Disarm()
	waitRecovered(t, ts.URL, full.URL, q)
}

// TestDegradedFilteredMatchesLiveSlots: filters and degradation compose —
// with one shard down, a filtered search scores with the survivors'
// unfiltered statistics and must return exactly what a single process
// over the surviving segments returns for the same filtered request.
func TestDegradedFilteredMatchesLiveSlots(t *testing.T) {
	dir, g, workers, rt, ts := startCluster(t, Config{})
	ref := liveSlotReference(t, dir, g, rt.Plan(), 1)
	_, arts := fixtureCorpus()

	faults.Arm(faults.New().Fail(faults.ClusterShard(workers[1].ID()), errors.New("injected shard error")))
	defer faults.Disarm()

	for _, flt := range []string{
		fmt.Sprintf("&after=%d", arts[12].Time),
		fmt.Sprintf("&after=%d&before=%d", arts[8].Time, arts[40].Time),
	} {
		path := "/v1/search?q=" + url.QueryEscape("clashes near the border") + "&k=10" + flt
		var got, want server.SearchResponse
		getJSON(t, ts.URL+path, http.StatusOK, &got)
		getJSON(t, ref.URL+path, http.StatusOK, &want)
		if !got.Degraded || got.ShardsOK != 2 {
			t.Fatalf("%s: want degraded 2/3, got %+v", path, got)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("%s: degraded filtered results diverge from live-slot merge\ncluster: %+v\noracle:  %+v",
				path, got.Results, want.Results)
		}
	}
}

// TestDegradedOnShardTimeout delays one worker past the request budget:
// the router must abandon it and still answer degraded within the
// original deadline, not 504.
func TestDegradedOnShardTimeout(t *testing.T) {
	dir, g, workers, rt, ts := startCluster(t, Config{
		RequestTimeout: 800 * time.Millisecond,
		maxAttempts:    2,
	})
	ref := liveSlotReference(t, dir, g, rt.Plan(), 1)
	q := "ceasefire talks resume"

	faults.Arm(faults.New().Delay(faults.ClusterShard(workers[1].ID()), 2*time.Second))
	defer faults.Disarm()

	assertDegradedMatches(t, ts.URL, ref.URL, q)
}

// TestDegradedOnShardCrashMidStream truncates one worker's response
// mid-body (full Content-Length promised, connection aborted), the
// wire shape of a worker crashing while streaming: the router must see
// a transport error, not a short document, and degrade gracefully.
func TestDegradedOnShardCrashMidStream(t *testing.T) {
	dir, g, workers, rt, ts := startCluster(t, Config{maxAttempts: 2})
	ref := liveSlotReference(t, dir, g, rt.Plan(), 1)
	q := "markets rally on earnings"

	faults.Arm(faults.New().Mutate(faults.ClusterShardWrite(workers[1].ID()), func(b []byte) []byte {
		return b[:len(b)/2]
	}))
	defer faults.Disarm()

	assertDegradedMatches(t, ts.URL, ref.URL, q)
}

// TestWorkerCrashAndRecovery kills one worker process outright
// (listener closed mid-operation), asserts degraded service, then
// brings a replacement up on the same address with an empty artifact
// directory: the probe loop must re-assign it, the worker must fetch
// its segment files from the router's blob endpoint, and full results
// must return without touching the router.
func TestWorkerCrashAndRecovery(t *testing.T) {
	dir, g := buildSnapshot(t)
	_, endpoints := startWorkers(t, g, 2)

	// Slot 2's worker is hand-managed so it can die and come back on the
	// same address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	w2 := NewWorker("w2", t.TempDir(), g, testLogger())
	srv := &http.Server{Handler: w2.Handler()}
	go srv.Serve(ln)
	endpoints = append(endpoints, []string{"http://" + addr})

	rt, ts := startRouter(t, dir, g, Config{Endpoints: endpoints, maxAttempts: 2})
	ref := liveSlotReference(t, dir, g, rt.Plan(), 2)
	full := referenceServer(t, dir, g)
	q := "championship final"

	// Sanity: full service first.
	var pre server.SearchResponse
	getJSON(t, ts.URL+"/v1/search?q="+url.QueryEscape(q), http.StatusOK, &pre)
	if pre.Degraded || pre.ShardsOK != 3 {
		t.Fatalf("cluster not fully live before crash: %+v", pre)
	}

	// Crash: the worker vanishes mid-operation.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	assertDegradedMatches(t, ts.URL, ref.URL, q)

	// Restart on the same address with a fresh, empty directory: the
	// replacement holds no artifacts and must recover them from the
	// router's blob endpoint during re-assignment.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	freshDir := t.TempDir()
	w2b := NewWorker("w2", freshDir, g, testLogger())
	srv2 := &http.Server{Handler: w2b.Handler()}
	go srv2.Serve(ln2)
	t.Cleanup(func() { srv2.Close() })

	waitRecovered(t, ts.URL, full.URL, q)

	// The replacement really was seeded over the wire: its directory holds
	// exactly the slot's artifacts — three per segment — each with the
	// plan's checksum, and it serves the router's plan.
	var want []string
	for _, sm := range rt.Plan().Shards[2].Segments {
		want = append(want, newslink.SegmentFileNames(sm.ID)...)
	}
	slices.Sort(want)
	entries, err := os.ReadDir(freshDir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ent := range entries {
		got = append(got, ent.Name())
		if sum := fileChecksum(t, filepath.Join(freshDir, ent.Name())); sum != rt.Plan().Checksums[ent.Name()] {
			t.Fatalf("seeded %s has checksum %s, want %s", ent.Name(), sum, rt.Plan().Checksums[ent.Name()])
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("restarted worker holds %v, want the slot's artifacts %v", got, want)
	}
	if _, plan, _ := w2b.snapshotState(); plan != rt.Plan().ID {
		t.Fatalf("restarted worker serves plan %s, want %s", plan, rt.Plan().ID)
	}
}

// TestRetryOnTransientFailure injects a single failure: the router must
// retry within the same request, answer 200 non-degraded, and count the
// retry.
func TestRetryOnTransientFailure(t *testing.T) {
	dir, g, workers, rt, ts := startCluster(t, Config{})
	full := referenceServer(t, dir, g)
	q := "minister parliament vote"

	retriesBefore := rt.mRetries.Value()
	faults.Arm(faults.New().FailN(faults.ClusterShard(workers[0].ID()), 1, errors.New("transient")))
	defer faults.Disarm()

	path := "/v1/search?q=" + url.QueryEscape(q) + "&k=10"
	var got, want server.SearchResponse
	getJSON(t, ts.URL+path, http.StatusOK, &got)
	getJSON(t, full.URL+path, http.StatusOK, &want)
	if got.Degraded || got.ShardsOK != 3 {
		t.Fatalf("transient failure degraded the response: %+v", got)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("results diverge after retry\ncluster: %+v\nsingle:  %+v", got.Results, want.Results)
	}
	if got := rt.mRetries.Value(); got <= retriesBefore {
		t.Fatalf("retry counter did not move: %d", got)
	}
}

// TestHedgedRequests runs a slot with two replicas, one persistently
// slow: with hedging on, the duplicate request to the fast replica must
// fire and win, keeping responses non-degraded.
func TestHedgedRequests(t *testing.T) {
	dir, g := buildSnapshot(t)
	workers, endpoints := startWorkers(t, g, 4)
	// Fold the fourth worker into slot 0 as a second replica.
	endpoints[0] = append(endpoints[0], endpoints[3][0])
	endpoints = endpoints[:3]
	rt, ts := startRouter(t, dir, g, Config{
		Endpoints: endpoints,
		Hedge:     true,
		hedgeMin:  2 * time.Millisecond,
	})
	full := referenceServer(t, dir, g)

	// Slow down slot 0's first replica only after assignment/admission.
	faults.Arm(faults.New().Delay(faults.ClusterShard(workers[0].ID()), 80*time.Millisecond))
	defer faults.Disarm()

	deadline := time.Now().Add(10 * time.Second)
	for rt.mHedges.Value() == 0 {
		path := "/v1/search?q=" + url.QueryEscape("clashes near the border") + "&k=10"
		var got, want server.SearchResponse
		getJSON(t, ts.URL+path, http.StatusOK, &got)
		getJSON(t, full.URL+path, http.StatusOK, &want)
		if got.Degraded {
			t.Fatalf("hedged request degraded: %+v", got)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("hedged results diverge\ncluster: %+v\nsingle:  %+v", got.Results, want.Results)
		}
		if time.Now().After(deadline) {
			t.Fatal("no hedge fired within 10s against a persistently slow replica")
		}
	}
}

// TestAllShardsDown is the one legitimate failure: with every shard
// unreachable the router answers 503 shard_unavailable, never a 500.
func TestAllShardsDown(t *testing.T) {
	_, _, workers, _, ts := startCluster(t, Config{maxAttempts: 1})
	inj := faults.New()
	for _, w := range workers {
		inj.Fail(faults.ClusterShard(w.ID()), errors.New("down"))
	}
	faults.Arm(inj)
	defer faults.Disarm()

	// A query with postings in the fixture: one that provably matches
	// nothing is answered [] from the router's own directories without
	// asking any shard ("border" alone is such a query here).
	resp, err := http.Get(ts.URL + "/v1/search?q=" + url.QueryEscape(identityQueries[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var env server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "shard_unavailable" {
		t.Fatalf("error code %q, want shard_unavailable", env.Error.Code)
	}
}

// TestRestartedRouterServesNewTombstones: deletes change only a snapshot's
// manifest, never a segment ID, so the plan ID covers the tombstones. A
// router restarted over the re-saved snapshot therefore assigns the
// workers that outlived the old router a new plan; they reload their
// slices with the new tombstones, and the deleted document is gone from
// the cluster's rankings as from a single process's.
func TestRestartedRouterServesNewTombstones(t *testing.T) {
	dir, g := buildSnapshot(t)
	_, endpoints := startWorkers(t, g, 3)
	rt1, ts1 := startRouter(t, dir, g, Config{Endpoints: endpoints})
	path := "/v1/search?q=" + url.QueryEscape("minister parliament vote") + "&k=10"
	var before server.SearchResponse
	getJSON(t, ts1.URL+path, http.StatusOK, &before)
	if len(before.Results) == 0 {
		t.Fatal("no result to delete")
	}
	rt1.Close()

	victim := before.Results[0].ID
	e, err := newslink.Load(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	rt2, ts2 := startRouter(t, dir, g, Config{Endpoints: endpoints})
	if rt2.Plan().ID == rt1.Plan().ID {
		t.Fatalf("plan %s unchanged by a delete", rt2.Plan().ID)
	}
	full := referenceServer(t, dir, g)
	var got, want server.SearchResponse
	getJSON(t, ts2.URL+path, http.StatusOK, &got)
	getJSON(t, full.URL+path, http.StatusOK, &want)
	if got.Degraded || !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("restarted router diverges from the single process\ncluster: %+v\nsingle:  %+v", got, want.Results)
	}
	for _, r := range got.Results {
		if r.ID == victim {
			t.Fatalf("deleted document %d served after the router restarted", victim)
		}
	}
}

// TestWorkerRefetchesCorruptArtifact: a worker verifies each artifact of an
// assignment once, as it loads it. One damaged in its directory — a bit
// flipped while the worker was down — is fetched again from the router,
// and only that one, and the restarted worker serves rankings identical
// to a single process's.
func TestWorkerRefetchesCorruptArtifact(t *testing.T) {
	dir, g := buildSnapshot(t)
	workers, endpoints := startWorkers(t, g, 3)
	rt, _ := startRouter(t, dir, g, Config{Endpoints: endpoints})
	sl := rt.slots[1]
	name := newslink.SegmentFileNames(sl.plan.Segments[0].ID)[0]
	path := filepath.Join(workers[1].dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	// A new file, so the running worker's mapping keeps the good bytes.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The worker restarts over its directory and is assigned its slot.
	restarted := NewWorker("w1", workers[1].dir, g, testLogger())
	wts := httptest.NewServer(restarted.Handler())
	t.Cleanup(wts.Close)
	if ack := assignDirect(t, wts.URL, rt.assignRequest(sl)); ack.Plan != rt.Plan().ID || ack.Fetched != 1 {
		t.Fatalf("assignment acknowledged %+v, want plan %s with 1 artifact fetched", ack, rt.Plan().ID)
	}
	if sum := fileChecksum(t, path); sum != rt.Plan().Checksums[name] {
		t.Fatalf("re-fetched %s has checksum %s, want %s", name, sum, rt.Plan().Checksums[name])
	}

	endpoints[1] = []string{wts.URL}
	_, ts := startRouter(t, dir, g, Config{Endpoints: endpoints})
	full := referenceServer(t, dir, g)
	for _, q := range identityQueries {
		path := "/v1/search?q=" + url.QueryEscape(q) + "&k=10"
		var got, want server.SearchResponse
		getJSON(t, ts.URL+path, http.StatusOK, &got)
		getJSON(t, full.URL+path, http.StatusOK, &want)
		if got.Degraded || got.ShardsOK != 3 || !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("%s: cluster over the repaired worker diverges\ncluster: %+v\nsingle:  %+v", path, got, want.Results)
		}
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
