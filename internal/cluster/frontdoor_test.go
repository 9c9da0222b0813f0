package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"newslink/internal/faults"
	"newslink/internal/server"
)

// sameStatus fetches path from the router and from an oracle server and
// asserts both answer want, decoding the bodies into got and ref.
func sameStatus(t *testing.T, routerURL, refURL, path string, want int, got, ref any) {
	t.Helper()
	getJSON(t, routerURL+path, want, got)
	getJSON(t, refURL+path, want, ref)
}

// TestRouterRelatedMatchesSingleProcess: the router's front door is the
// single-process server over the router's own engine, so related news
// answers DeepEqual to a single process over the same snapshot, filtered,
// at k and pool edges, with tombstoned documents unknown on both
// (runParity). With one shard down, search and related equal a single
// process over the surviving slots and say so (degraded,
// shard_unavailable, 2/3). Explain needs no shard: it still answers
// exactly with one shard down and with every shard down.
func TestRouterRelatedMatchesSingleProcess(t *testing.T) {
	c := runParity(t, false, parityCell{kind: "related"}, parityCell{kind: "related", filtered: true})
	dir, g, workers, rt, ts, full := c.dir, c.g, c.workers, c.rt, c.ts, c.ref
	params := append(append([]string(nil), parityEdges...), filteredParams()...)
	live := parityLive
	search := func(q, p string) string { return "/v1/search?q=" + url.QueryEscape(q) + p }
	related := func(id int, p string) string { return fmt.Sprintf("/v1/related/%d?%s", id, strings.TrimPrefix(p, "&")) }
	explain := func(q string, id int, p string) string {
		return fmt.Sprintf("/v1/explain?q=%s&id=%d&paths=4%s", url.QueryEscape(q), id, p)
	}

	// One shard down: the ranked routes cover the survivors and say so.
	faults.Arm(faults.New().Fail(faults.ClusterShard(workers[1].ID()), errors.New("injected shard error")))
	defer faults.Disarm()
	survivors := liveSlotReference(t, dir, g, rt.Plan(), 1)
	down := rt.Plan().Shards[1]
	for _, q := range identityQueries[:4] {
		for _, p := range params {
			var got, want server.SearchResponse
			sameStatus(t, ts.URL, survivors.URL, search(q, p), http.StatusOK, &got, &want)
			if !got.Degraded || got.DegradedReason != "shard_unavailable" || got.ShardsOK != 2 || got.ShardsTotal != 3 {
				t.Fatalf("%s: one shard down, got %+v", search(q, p), got)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("%s: degraded search diverges from the survivors\ncluster: %+v\noracle:  %+v", search(q, p), got.Results, want.Results)
			}
		}
	}
	for _, id := range live {
		if id >= down.Base && id < down.Base+down.Docs {
			continue // not a document of the survivors' oracle
		}
		for _, p := range params {
			var got, want server.RelatedResponse
			sameStatus(t, ts.URL, survivors.URL, related(id, p), http.StatusOK, &got, &want)
			if !got.Degraded || got.DegradedReason != "shard_unavailable" || got.ShardsOK != 2 || got.ShardsTotal != 3 {
				t.Fatalf("%s: one shard down, got %+v", related(id, p), got)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("%s: degraded related diverges from the survivors\ncluster: %+v\noracle:  %+v", related(id, p), got.Results, want.Results)
			}
		}
	}
	// A dead shard's document still has related news among the survivors.
	var fromDown server.RelatedResponse
	getJSON(t, ts.URL+related(down.Base+1, ""), http.StatusOK, &fromDown)
	if !fromDown.Degraded {
		t.Fatalf("related of a dead shard's document: %+v, want degraded", fromDown)
	}

	explainAll := func(state string) {
		t.Helper()
		for _, id := range append(live, down.Base, down.Base+1) {
			for _, q := range identityQueries[:2] {
				var got, want server.ExplainResponse
				sameStatus(t, ts.URL, full.URL, explain(q, id, ""), http.StatusOK, &got, &want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %s: explain diverges\ncluster: %+v\nsingle:  %+v", state, explain(q, id, ""), got, want)
				}
			}
		}
	}
	explainAll("one shard down")
	inj := faults.New()
	for _, w := range workers {
		inj.Fail(faults.ClusterShard(w.ID()), errors.New("down"))
	}
	faults.Arm(inj)
	explainAll("every shard down")
}

// TestRouterRefusesWrites: the router's front door registers the write
// routes with the rest of the single-process API, and its engine refuses
// every one of them — 403 read_only in the uniform JSON envelope, on the
// versioned routes and their aliases — without changing what any later
// request answers.
func TestRouterRefusesWrites(t *testing.T) {
	_, _, _, _, ts := startCluster(t, Config{})
	reads := []string{
		"/v1/search?q=" + url.QueryEscape(identityQueries[0]) + "&k=10",
		"/v1/related/5?k=10",
		"/v1/stats",
	}
	answers := func() []string {
		var out []string
		for _, path := range reads {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			out = append(out, fmt.Sprintf("%d %s", resp.StatusCode, body))
		}
		return out
	}
	before := answers()
	doc := `{"id":5,"title":"Clashes near the border","text":"Clashes near the border resumed."}`
	for _, w := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/docs", doc},
		{http.MethodPost, "/v1/docs:stream", `{"id":9001,"title":"New","text":"Clashes near the border."}`},
		{http.MethodDelete, "/v1/docs/5", ""},
		{http.MethodPost, "/docs", doc},
		{http.MethodDelete, "/docs/0", ""},
	} {
		req, err := http.NewRequest(w.method, ts.URL+w.path, strings.NewReader(w.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env server.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden || err != nil || env.Error.Code != "read_only" {
			t.Fatalf("%s %s: status %d, envelope %+v (%v); want 403 read_only", w.method, w.path, resp.StatusCode, env, err)
		}
	}
	if after := answers(); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused write changed the router's answers\nbefore: %q\nafter:  %q", before, after)
	}
}
