package newslink

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"newslink/internal/faults"
	"newslink/internal/obs"
)

// degradedCount reads the engine's degradation counter for one reason.
func degradedCount(e *Engine, reason string) int64 {
	return e.Metrics().Counter("newslink_search_degraded_total", "", obs.L("reason", reason)).Value()
}

// TestDegradeBONError: an injected BON-stage failure in a fused request
// must not fail the request — the response degrades to BOW-only ranking
// that is identical (IDs, order, scores) to a pure-BOW (β = 0) query, the
// reason is reported, and the incident is counted.
func TestDegradeBONError(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	q := "Military conflicts between Pakistan and Taliban"

	inj := faults.New().Fail(faults.BONStage, errors.New("injected BON failure"))
	faults.Arm(inj)
	defer faults.Disarm()

	resp, err := e.SearchContextFull(context.Background(), Query{Text: q, K: 5})
	if err != nil {
		t.Fatalf("degradable search failed: %v", err)
	}
	if !resp.Degraded || resp.DegradedReason != DegradedBONError {
		t.Fatalf("degraded = %v reason = %q, want true/%q", resp.Degraded, resp.DegradedReason, DegradedBONError)
	}
	if len(resp.Results) == 0 {
		t.Fatal("degraded search returned no results")
	}
	if inj.Hits(faults.BONStage) == 0 {
		t.Fatal("BON injection point never fired")
	}

	// Rank- and score-equal to the same query with β = 0 (pure BOW).
	faults.Disarm()
	beta := 0.0
	pure, err := e.SearchContextFull(context.Background(), Query{Text: q, K: 5, Beta: &beta})
	if err != nil {
		t.Fatal(err)
	}
	if pure.Degraded {
		t.Fatal("pure-BOW query must not be degraded")
	}
	if !reflect.DeepEqual(resp.Results, pure.Results) {
		t.Fatalf("degraded ranking differs from pure BOW:\n%+v\nvs\n%+v", resp.Results, pure.Results)
	}

	if got := degradedCount(e, DegradedBONError); got < 1 {
		t.Fatalf("newslink_search_degraded_total{reason=bon_error} = %d", got)
	}
}

// TestDegradeBONTimeout: a BON stage slower than the configured stage
// deadline degrades with reason bon_timeout instead of blocking the
// request behind the slow graph side.
func TestDegradeBONTimeout(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	e.SetBONTimeout(10 * time.Millisecond)
	faults.Arm(faults.New().Delay(faults.BONStage, 2*time.Second))
	defer faults.Disarm()

	start := time.Now()
	resp, err := e.SearchContextFull(context.Background(), Query{Text: "Taliban attack in Pakistan", K: 3})
	if err != nil {
		t.Fatalf("search failed: %v", err)
	}
	if !resp.Degraded || resp.DegradedReason != DegradedBONTimeout {
		t.Fatalf("degraded = %v reason = %q, want true/%q", resp.Degraded, resp.DegradedReason, DegradedBONTimeout)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("stage deadline did not bound the request: %v", elapsed)
	}
	if got := degradedCount(e, DegradedBONTimeout); got < 1 {
		t.Fatalf("newslink_search_degraded_total{reason=bon_timeout} = %d", got)
	}
	// Clearing the bound restores undegraded fused search once the delay
	// rule is gone.
	faults.Disarm()
	e.SetBONTimeout(0)
	resp, err = e.SearchContextFull(context.Background(), Query{Text: "Taliban attack in Pakistan", K: 3})
	if err != nil || resp.Degraded {
		t.Fatalf("recovered search = %+v, %v", resp, err)
	}
}

// TestDegradePureBONFailsHard: with β = 1 there is no text ranking to
// fall back to, so a BON failure keeps strict error semantics.
func TestDegradePureBONFailsHard(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	errInjected := errors.New("injected BON failure")
	faults.Arm(faults.New().Fail(faults.BONStage, errInjected))
	defer faults.Disarm()

	beta := 1.0
	_, err := e.SearchContextFull(context.Background(),
		Query{Text: "Taliban attack in Pakistan", K: 3, Beta: &beta})
	if !errors.Is(err, errInjected) {
		t.Fatalf("pure-BON search = %v, want the injected error", err)
	}
}

// TestDegradeNotOnRequestCancel: when the request's own context ends
// while the BON stage is stuck, the request fails with the context error
// — degradation must not mask a dead request as a 200.
func TestDegradeNotOnRequestCancel(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	faults.Arm(faults.New().Delay(faults.BONStage, 5*time.Second))
	defer faults.Disarm()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	resp, err := e.SearchContextFull(ctx, Query{Text: "Taliban attack in Pakistan", K: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search = %+v, %v, want context.Canceled", resp, err)
	}
	if resp.Degraded {
		t.Fatal("cancelled request must not be reported degraded")
	}
}
