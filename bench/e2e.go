package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"time"

	"newslink"
	"newslink/internal/server"
)

// phases is the time plan of one end-to-end run.
type phases struct {
	setups int           // cold starts timed for setup_s (the median is reported)
	warm   time.Duration // open loop, discarded
	open   time.Duration // open loop at the frozen offered rate, measured
	closed time.Duration // closed loop on the same sequence, measured
}

// planPhases splits the contract's --seconds into the measured phases: two
// thirds open loop, one third closed loop, after a fixed discarded warm-up.
func planPhases(seconds int) phases {
	total := time.Duration(seconds) * time.Second
	return phases{setups: 3, warm: time.Second, open: total * 2 / 3, closed: total / 3}
}

const (
	preflightOps = 50
	readyTimeout = 120 * time.Second
	drainTimeout = 15 * time.Second
)

// awaitReady polls /v1/readyz until it answers 200 and then sends warm
// queries until one is answered in full (for the cluster: by every shard).
// Returning is the end of setup_s.
func awaitReady(c *client, in *inputs) error {
	warm, _ := in.at(0)
	for i := 0; warm.kind != opSearch; i++ {
		warm, _ = in.at(i)
	}
	deadline := time.Now().Add(readyTimeout)
	var last error
	for time.Now().Before(deadline) {
		status, _, err := c.roundTrip("GET", "/v1/readyz", nil)
		if err == nil && status == http.StatusOK {
			if _, last = c.do(warm); last == nil {
				return nil
			}
		} else if err != nil {
			last = err
		} else {
			last = fmt.Errorf("readyz: status %d", status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("server not ready after %v: %w", readyTimeout, last)
}

// preflight replays the first n read ops of the schedule against the
// server and the identically built in-process engine; answers must be
// DeepEqual. It also records which requests have a non-empty answer, for
// the in-run validation. Writes are skipped: they would change the state
// the comparison depends on.
func preflight(c *client, in *inputs, e *newslink.Engine, n int) error {
	ctx := context.Background()
	for i, done := 0, 0; done < n; i++ {
		o, _ := in.at(i)
		if o.kind == opIngest || o.kind == opDelete {
			continue
		}
		done++
		status, body, err := c.roundTrip(o.method, o.path, nil)
		if err != nil {
			return err
		}
		if err := c.validate(o, status, body); err != nil {
			return err
		}
		var got, want any
		switch o.kind {
		case opSearch:
			var r server.SearchResponse
			err = json.Unmarshal(body, &r)
			resp, serr := e.SearchContextFull(ctx, o.query)
			if serr != nil {
				return serr
			}
			got, want = r.Results, resp.Results
			c.nonEmpty[o.path] = len(resp.Results) > 0
		case opRelated:
			var r server.RelatedResponse
			err = json.Unmarshal(body, &r)
			rs, rerr := e.RelatedContext(ctx, newslink.RelatedQuery{DocID: o.docID, K: searchK})
			if rerr != nil {
				return rerr
			}
			got, want = r.Results, rs
			c.nonEmpty[o.path] = len(rs) > 0
		case opExplain:
			var r server.ExplainResponse
			err = json.Unmarshal(body, &r)
			exp, eerr := e.ExplainQueryContext(ctx, o.query, o.docID, explainPaths)
			if eerr != nil {
				return eerr
			}
			got, want = r.Explanation, exp
		}
		if err != nil {
			return err
		}
		if rs, ok := want.([]newslink.Result); ok && len(rs) == 0 {
			want = []newslink.Result{} // the server encodes "no results" as []
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("oracle mismatch on %s %s:\n  server: %+v\n  engine: %+v", o.method, o.path, got, want)
		}
	}
	return nil
}

// scrape reads counters from the server's /v1/metrics JSON.
func scrape(c *client) (map[string]float64, error) {
	status, body, err := c.roundTrip("GET", "/v1/metrics", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d: %v", status, err)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runE2E is one end-to-end run: setup_s trials, oracle pre-flight, open
// loop, closed loop, drain check. launch starts the system under test;
// oracle is the identically built in-process engine its answers are checked
// against. An error means the run could not be measured (an oracle mismatch
// included); failed operations are reported in the result instead.
func runE2E(in *inputs, launch launcher, oracle *newslink.Engine, ph phases, workdir string) (run, error) {
	s := in.spec
	r := run{Workload: s.name, Mode: "e2e", Seed: in.seed, Metrics: metrics{}, Diagnostics: metrics{},
		OfferedPerSec: map[string]int{}}
	for k, n := range s.rate {
		if n > 0 {
			r.OfferedPerSec[opKind(k).String()] = n
		}
	}

	// setup_s: cold start → readyz 200 → one full warm answer, several
	// times; the last instance stays up for the measured phases.
	var tg *target
	var c *client
	var setups []float64
	for i := 0; i < ph.setups; i++ {
		dir := filepath.Join(workdir, "sut"+strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return r, err
		}
		t0 := time.Now()
		t, err := launch(dir)
		if err != nil {
			return r, err
		}
		cl := newClient(t.url, s.shards)
		if err := awaitReady(cl, in); err != nil {
			cl.close()
			t.stop()
			return r, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < ph.setups-1 {
			cl.close()
			t.stop()
			continue
		}
		tg, c = t, cl
	}
	defer tg.stop()
	defer c.close()
	r.Metrics.set("setup_s", median(setups), "s")

	if err := preflight(c, in, oracle, preflightOps); err != nil {
		return r, fmt.Errorf("pre-flight: %w", err)
	}
	// The oracle engine is no longer needed; do not let the generator's
	// collector trace its heap while the servers are being timed.
	oracle = nil
	runtime.GC()

	// Open loop: warm-up and measured window are one continuous schedule.
	start := time.Now()
	cpuAt := make(chan float64, 1)
	go func() {
		time.Sleep(time.Until(start.Add(ph.warm)))
		v, err := procCPU(tg.pids)
		if err != nil {
			v = -1
		}
		cpuAt <- v
	}()
	open := openLoop(c, in, 0, start, ph.warm+ph.open)
	cpu1, err := procCPU(tg.pids)
	cpu0 := <-cpuAt
	if err != nil || cpu0 < 0 {
		return r, fmt.Errorf("reading server CPU time: %v", err)
	}
	measured := phase{wall: ph.open, failures: open.failures}
	for _, sm := range open.samples {
		if sm.due >= ph.warm {
			measured.samples = append(measured.samples, sm)
		}
	}
	closed := closedLoop(c, in, open.next, ph.closed)

	lat := measured.latencies(opSearch)
	r.Metrics.set("search_p50_ms", percentile(lat, 0.50), "ms")
	okClosed := len(closed.samples) - closed.failed()
	r.Metrics.set("sat_ops_per_s", float64(okClosed)/closed.wall.Seconds(), "ops/s")
	r.Metrics.set("cpu_ms_per_op", ratio((cpu1-cpu0)*1000, float64(len(measured.samples))), "ms")

	r.Attempted = len(measured.samples) + len(closed.samples)
	r.Failed = measured.failed() + closed.failed()
	for _, f := range append(measured.failures, closed.failures...) {
		r.Notes = append(r.Notes, "failed op: "+f.Error())
	}

	// After the writes drain, the server must hold base + new − deleted.
	if s.stream {
		r.Attempted++
		if err := awaitDocs(c, in); err != nil {
			r.Failed++
			r.Notes = append(r.Notes, err.Error())
		}
	}
	rss, err := procPeakRSS(tg.pids)
	if err != nil {
		return r, err
	}
	r.Metrics.set("rss_peak_mb", rss, "MB")
	r.Correct = r.Failed == 0

	d := r.Diagnostics
	d.set("error_rate", ratio(float64(r.Failed), float64(r.Attempted)), "ratio")
	d.set("search_samples", float64(len(lat)), "count")
	d.set("search_p95_ms", percentile(lat, 0.95), "ms")
	// The tail is reported but carries no bound: between runs of one commit
	// on this host it spreads 20-65 % (interquartile), wider than any bound
	// the contract allows. The median of per-second p99s discounts a single
	// stall; the plain p99 charges it in full.
	d.set("search_p99_ms", percentile(lat, 0.99), "ms")
	wins := map[int][]time.Duration{}
	for _, sm := range measured.samples {
		if sm.kind == opSearch && sm.ok {
			w := int((sm.due - ph.warm) / time.Second)
			wins[w] = append(wins[w], sm.lat) // samples arrive unsorted
		}
	}
	var p99s []float64
	for _, v := range wins {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		p99s = append(p99s, percentile(v, 0.99))
	}
	d.set("search_p99_win_ms", median(p99s), "ms")
	var late []time.Duration
	for _, sm := range measured.samples {
		late = append(late, sm.late)
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	d.set("loadgen.lateness_p99_ms", percentile(late, 0.99), "ms")
	d.set("loadgen.offered_ops_per_s", float64(len(measured.samples))/ph.open.Seconds(), "ops/s")
	d.set("closed_search_p50_ms", percentile(closed.latencies(opSearch), 0.50), "ms")
	for _, k := range []opKind{opRelated, opExplain, opIngest, opDelete} {
		if s.rate[k] > 0 {
			d.set("http."+k.String()+"_p50_ms", percentile(measured.latencies(k), 0.50), "ms")
		}
	}
	if s.shards == 0 {
		if m, err := scrape(c); err == nil {
			d.set("server.shed_ratio", ratio(m["newslink_http_shed_total"], float64(r.Attempted)), "ratio")
			d.set("ingest.shed_ratio", ratio(m["newslink_ingest_shed_total"],
				m["newslink_ingest_shed_total"]+m["newslink_ingest_queued_total"]), "ratio")
		}
	}
	return r, nil
}

// awaitDocs polls /v1/stats until the async ingest queue has drained and
// the document count equals what the acknowledged writes imply.
func awaitDocs(c *client, in *inputs) error {
	want := len(in.base) - len(c.deleted)
	for id := range c.added {
		if id >= len(in.base) {
			want++
		}
	}
	var got int
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		status, body, err := c.roundTrip("GET", "/v1/stats", nil)
		var st server.StatsResponse
		if err == nil && status == http.StatusOK && json.Unmarshal(body, &st) == nil {
			if got = st.Docs; got == want {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("after drain /v1/stats has %d docs, want %d (base %d + new − %d deleted)",
		got, want, len(in.base), len(c.deleted))
}
