package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"newslink"
	"newslink/internal/faults"
)

// newslinkServer builds a server over a fresh sample engine and returns
// both, so tests can read the engine's metric registry directly.
func newslinkServer(t *testing.T, opts ...Option) (*newslink.Engine, *Server, *httptest.Server) {
	t.Helper()
	e := testEngine(t)
	s := New(e, opts...)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return e, s, ts
}

func TestReadyzFlipsDuringDrain(t *testing.T) {
	_, s, ts := newslinkServer(t)
	var body map[string]string
	get(t, ts, "/v1/readyz", http.StatusOK, &body)
	if body["status"] != "ready" {
		t.Fatalf("readyz body = %v", body)
	}
	s.SetReady(false)
	get(t, ts, "/v1/readyz", http.StatusServiceUnavailable, &body)
	if body["status"] != "draining" {
		t.Fatalf("draining readyz body = %v", body)
	}
	// Liveness is independent of readiness: still 200 while draining.
	get(t, ts, "/v1/healthz", http.StatusOK, nil)
	s.SetReady(true)
	get(t, ts, "/v1/readyz", http.StatusOK, nil)
}

// TestSearchDegradedEnvelope: an injected BON failure surfaces as HTTP
// 200 with degraded:true and a reason — never as a 5xx.
func TestSearchDegradedEnvelope(t *testing.T) {
	_, _, ts := newslinkServer(t)
	faults.Arm(faults.New().Fail(faults.BONStage, errors.New("injected BON failure")))
	defer faults.Disarm()

	var got SearchResponse
	get(t, ts, "/v1/search?q=Taliban+bombing+in+Lahore&k=3", http.StatusOK, &got)
	if !got.Degraded || got.DegradedReason != "bon_error" {
		t.Fatalf("degraded = %v reason = %q, want true/bon_error", got.Degraded, got.DegradedReason)
	}
	if len(got.Results) == 0 {
		t.Fatal("degraded search returned no results")
	}

	// After the fault clears, responses drop the degraded marker.
	faults.Disarm()
	var clean SearchResponse
	get(t, ts, "/v1/search?q=Taliban+bombing+in+Lahore&k=3", http.StatusOK, &clean)
	if clean.Degraded || clean.DegradedReason != "" {
		t.Fatalf("recovered response still degraded: %+v", clean)
	}
}

// TestPanicRecovery: a panicking handler yields the uniform 500 envelope
// (not a dropped connection), is counted, and the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	e, _, ts := newslinkServer(t)
	faults.Arm(faults.New().Panic(faults.Handler, "injected handler panic"))
	body := getErr(t, ts, "/v1/search?q=Taliban&k=2", http.StatusInternalServerError)
	faults.Disarm()
	if body.Code != "internal_panic" {
		t.Fatalf("panic error code = %q", body.Code)
	}
	if got := e.Metrics().Counter("newslink_http_panics_total", "").Value(); got < 1 {
		t.Fatalf("newslink_http_panics_total = %d", got)
	}
	// The server survives: the same route works once the fault is gone.
	var sr SearchResponse
	get(t, ts, "/v1/search?q=Taliban&k=2", http.StatusOK, &sr)
	if len(sr.Results) == 0 {
		t.Fatal("no results after recovery")
	}
}

// TestAdmissionControlSheds: with capacity 1 and no admission wait, a
// request arriving while another is in flight is shed with 429 and a
// Retry-After hint; capacity freed readmits immediately.
func TestAdmissionControlSheds(t *testing.T) {
	e, _, ts := newslinkServer(t, WithMaxInFlight(1))
	wait := holdSlot(t, e, ts.URL)
	resp, err := http.Get(ts.URL + "/v1/search?q=Taliban&k=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if got := e.Metrics().Counter("newslink_http_shed_total", "").Value(); got < 1 {
		t.Fatalf("newslink_http_shed_total = %d", got)
	}
	wait()

	// Capacity is back: the next request is served.
	faults.Disarm()
	var sr SearchResponse
	get(t, ts, "/v1/search?q=Taliban&k=2", http.StatusOK, &sr)
	if n := e.Metrics().Gauge("newslink_http_in_flight", "").Value(); n != 0 {
		t.Fatalf("in-flight gauge = %d after idle", n)
	}
}

// holdSlot takes the only admission slot of the server at base with a
// search that the BON stage holds for 400ms, and returns once it is in
// flight; the function it returns waits for that search to finish.
func holdSlot(t *testing.T, e *newslink.Engine, base string) (wait func()) {
	t.Helper()
	faults.Arm(faults.New().Delay(faults.BONStage, 400*time.Millisecond))
	t.Cleanup(faults.Disarm)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(base + "/v1/search?q=Taliban&k=2")
		if err == nil {
			resp.Body.Close()
		}
	}()
	inFlight := e.Metrics().Gauge("newslink_http_in_flight", "")
	deadline := time.Now().Add(2 * time.Second)
	for inFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	return func() { <-done }
}

// TestAdmissionWaitAdmits: a bounded admission wait turns a would-be
// shed into a short queue — the second request waits for the slot and
// succeeds.
func TestAdmissionWaitAdmits(t *testing.T) {
	e, _, ts := newslinkServer(t, WithMaxInFlight(1), WithAdmissionWait(5*time.Second))
	faults.Arm(faults.New().Delay(faults.BONStage, 200*time.Millisecond))
	defer faults.Disarm()

	var wg sync.WaitGroup
	statuses := make([]int, 2)
	for i := range statuses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/search?q=Taliban&k=2")
			if err != nil {
				return
			}
			statuses[i] = resp.StatusCode
			resp.Body.Close()
		}()
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 (no shed under admission wait)", i, st)
		}
	}
	if got := e.Metrics().Counter("newslink_http_shed_total", "").Value(); got != 0 {
		t.Fatalf("newslink_http_shed_total = %d, want 0", got)
	}
}

// TestProbesBypassAdmission: health, readiness and metrics answer even
// when the query routes are saturated.
func TestProbesBypassAdmission(t *testing.T) {
	e, _, ts := newslinkServer(t, WithMaxInFlight(1))
	wait := holdSlot(t, e, ts.URL)
	for _, path := range []string{"/v1/healthz", "/v1/readyz", "/v1/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d while saturated", path, resp.StatusCode)
		}
	}
	wait()
}

// TestSemaphoreFIFO exercises the weighted semaphore directly: grants
// come strictly in arrival order and a cancelled waiter leaves the queue
// intact.
func TestSemaphoreFIFO(t *testing.T) {
	s := newSemaphore(2)
	if !s.TryAcquire(2) {
		t.Fatal("TryAcquire on an idle semaphore failed")
	}
	if s.TryAcquire(1) {
		t.Fatal("TryAcquire succeeded past capacity")
	}

	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i, n := range []int64{2, 1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Acquire(context.Background(), n); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
		}()
		// Serialize arrival so FIFO order is deterministic.
		time.Sleep(20 * time.Millisecond)
	}

	// A cancelled waiter behind the queue disappears without a grant.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Acquire(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Acquire = %v", err)
	}

	s.Release(2)
	if got := <-order; got != 0 {
		t.Fatalf("first grant went to waiter %d, want 0 (FIFO)", got)
	}
	// The weight-1 waiter needs the heavy one to release.
	select {
	case got := <-order:
		t.Fatalf("waiter %d admitted past capacity", got)
	case <-time.After(50 * time.Millisecond):
	}
	s.Release(2)
	if got := <-order; got != 1 {
		t.Fatalf("second grant went to waiter %d", got)
	}
	wg.Wait()
	s.Release(1)
}
