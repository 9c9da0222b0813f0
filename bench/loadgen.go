package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"newslink"
	"newslink/internal/server"
)

// conns is the load shape of every workload: two keep-alive connections,
// one sender goroutine each (nproc is 2 on the build host and the servers
// share those cores with the generator).
const conns = 2

// client sends schedule ops over HTTP and validates every response.
type client struct {
	hc   *http.Client
	base string
	// wantShards, when > 0, requires router responses to cover that many
	// shards (a partial scatter is a failure, not a faster answer).
	wantShards int
	// nonEmpty holds request paths whose oracle answer had results; the
	// server's must, too.
	nonEmpty map[string]bool

	mu      sync.Mutex
	added   map[int]bool // ids acknowledged by docs:stream
	deleted map[int]bool // ids acknowledged by DELETE
}

func newClient(base string, wantShards int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &client{
		hc:   &http.Client{Transport: tr, Timeout: 20 * time.Second},
		base: base, wantShards: wantShards,
		nonEmpty: map[string]bool{}, added: map[int]bool{}, deleted: map[int]bool{},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// roundTrip sends one request and reads the whole body.
func (c *client) roundTrip(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// do sends one op; done is when the last body byte arrived. The error is
// non-nil for transport failures, non-2xx statuses (a shed 429 included)
// and responses that fail validation — all of which count as failed ops.
func (c *client) do(o op) (done time.Time, err error) {
	status, body, err := c.roundTrip(o.method, o.path, o.body)
	done = time.Now()
	if err != nil {
		return done, err
	}
	return done, c.validate(o, status, body)
}

func checkResults(rs []newslink.Result, k int) error {
	if len(rs) > k {
		return fmt.Errorf("%d results for k=%d", len(rs), k)
	}
	for i, r := range rs {
		if !(r.Score > 0 && r.Score <= 1) || (i > 0 && r.Score > rs[i-1].Score) {
			return fmt.Errorf("result %d has score %v after %v", i, r.Score, rs[max(i-1, 0)].Score)
		}
	}
	return nil
}

func (c *client) validate(o op, status int, body []byte) error {
	want := http.StatusOK
	if o.kind == opIngest {
		want = http.StatusAccepted
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d: %.200s", o.method, o.path, status, body)
	}
	switch o.kind {
	case opSearch:
		var r server.SearchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("%s: %w", o.path, err)
		}
		if r.Degraded || r.ShardsOK != r.ShardsTotal || (c.wantShards > 0 && r.ShardsOK != c.wantShards) {
			return fmt.Errorf("%s: degraded=%v (%s) shards %d/%d", o.path, r.Degraded, r.DegradedReason, r.ShardsOK, r.ShardsTotal)
		}
		if len(r.Results) == 0 && c.nonEmpty[o.path] {
			return fmt.Errorf("%s: empty where the oracle had results", o.path)
		}
		return checkResults(r.Results, searchK)
	case opRelated:
		var r server.RelatedResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("%s: %w", o.path, err)
		}
		for _, x := range r.Results {
			if x.ID == o.docID {
				return fmt.Errorf("%s: returned its own source document", o.path)
			}
		}
		if len(r.Results) == 0 && c.nonEmpty[o.path] {
			return fmt.Errorf("%s: empty where the oracle had results", o.path)
		}
		return checkResults(r.Results, searchK)
	case opExplain:
		var r server.ExplainResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("%s: %w", o.path, err)
		}
		if r.DocID != o.docID || len(r.Explanation.Paths) > explainPaths {
			return fmt.Errorf("%s: doc %d with %d paths", o.path, r.DocID, len(r.Explanation.Paths))
		}
	default: // ingest, delete
		var r server.DocResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("%s: %w", o.path, err)
		}
		if r.ID != o.docID {
			return fmt.Errorf("%s: acknowledged id %d, sent %d", o.path, r.ID, o.docID)
		}
		c.mu.Lock()
		if o.kind == opIngest {
			c.added[o.docID] = true
		} else {
			c.deleted[o.docID] = true
		}
		c.mu.Unlock()
	}
	return nil
}

// sample is one completed (or failed) op of a measured phase.
type sample struct {
	kind opKind
	// lat runs from the due time (open loop) or the send (closed loop) to
	// the last body byte.
	lat time.Duration
	// late is how long after its due time the op was actually sent.
	late time.Duration
	// due is the op's offset in the open-loop schedule (warm-up samples
	// are told apart by it).
	due time.Duration
	ok  bool
}

type phase struct {
	samples  []sample
	wall     time.Duration
	next     int     // first schedule index the phase did not consume
	failures []error // first few, for the report
}

func (p *phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// latencies returns the sorted latencies of the successful ops of a kind.
func (p *phase) latencies(kind opKind) []time.Duration {
	var out []time.Duration
	for _, s := range p.samples {
		if s.kind == kind && s.ok {
			out = append(out, s.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile is the nearest-rank percentile of sorted durations, in ms.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)]) / float64(time.Millisecond)
}

const maxReportedFailures = 5

// drive runs conns sender goroutines over the schedule from index first.
// Each takes the next op, sleeps until it is due when openStart is set (the
// closed loop passes the zero time and never waits) and sends it; stop ends
// the phase.
func drive(c *client, in *inputs, first int, stop func(i int, due time.Duration) bool, openStart time.Time) phase {
	var next atomic.Int64
	next.Store(int64(first))
	parts := make([][]sample, conns)
	var fmu sync.Mutex
	var failures []error
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				o, due := in.at(i)
				if stop(i, due) {
					next.Add(-1)
					return
				}
				var s sample
				from := time.Now()
				if !openStart.IsZero() {
					dueAt := openStart.Add(due)
					if d := time.Until(dueAt); d > 0 {
						time.Sleep(d)
					}
					s.late = max(time.Since(dueAt), 0)
					from = dueAt
				}
				done, err := c.do(o)
				s.kind, s.due, s.lat, s.ok = o.kind, due, done.Sub(from), err == nil
				if err != nil {
					fmu.Lock()
					if len(failures) < maxReportedFailures {
						failures = append(failures, err)
					}
					fmu.Unlock()
				}
				parts[g] = append(parts[g], s)
			}
		}()
	}
	wg.Wait()
	p := phase{wall: time.Since(start), next: int(next.Load()), failures: failures}
	for _, part := range parts {
		p.samples = append(p.samples, part...)
	}
	return p
}

// openLoop sends every op due in [0, dur) after start on its schedule,
// whatever the server's pace: a stall is charged to the requests queued
// behind it because latency runs from the due time.
func openLoop(c *client, in *inputs, first int, start time.Time, dur time.Duration) phase {
	return drive(c, in, first, func(_ int, due time.Duration) bool { return due >= dur }, start)
}

// closedLoop sends the same sequence back-to-back for dur: each connection
// issues its next op as soon as the previous one completed.
func closedLoop(c *client, in *inputs, first int, dur time.Duration) phase {
	deadline := time.Now().Add(dur)
	return drive(c, in, first, func(int, time.Duration) bool { return !time.Now().Before(deadline) }, time.Time{})
}
