package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	d := tr.Start(StageAnalyze).End(Int("x", 1))
	if d < 0 {
		t.Fatalf("duration = %v", d)
	}
	if spans := tr.Spans(); spans != nil {
		t.Fatalf("nil trace recorded spans: %v", spans)
	}
}

func TestTraceRecordsSpansInStartOrder(t *testing.T) {
	tr := NewTrace()
	a := tr.Start(StageAnalyze)
	time.Sleep(time.Millisecond)
	a.End(Bool("cache_hit", false))
	b := tr.Start(StageFuse)
	b.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Stage != StageAnalyze || spans[1].Stage != StageFuse {
		t.Fatalf("span order: %q, %q", spans[0].Stage, spans[1].Stage)
	}
	if spans[0].Dur < time.Millisecond {
		t.Fatalf("analyze duration = %v, want >= 1ms", spans[0].Dur)
	}
	if spans[1].Start < spans[0].Start {
		t.Fatal("start offsets not monotone")
	}
	if v, ok := spans[0].Attr("cache_hit"); !ok || v != 0 {
		t.Fatalf("cache_hit attr = %d, %v", v, ok)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Fatal("background context must carry no trace")
	}
	ctx, tr := WithTrace(context.Background())
	if got := FromContext(ctx); got != tr {
		t.Fatal("FromContext must return the attached trace")
	}
}

// TestTraceConcurrentSpans mirrors the engine's parallel BOW/BON stage:
// goroutines record into one trace. Run under -race.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Start(StageBOW).End(Int("worker", w))
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 800 {
		t.Fatalf("got %d spans, want 800", got)
	}
}

func TestSpanJSONFlattensAttrs(t *testing.T) {
	tr := NewTrace()
	tr.Start(StageBOW).End(Int("candidates", 100), Int("scored", 812))
	out, err := json.Marshal(tr.Spans())
	if err != nil {
		t.Fatal(err)
	}
	var spans []map[string]any
	if err := json.Unmarshal(out, &spans); err != nil {
		t.Fatalf("span JSON does not parse: %v\n%s", err, out)
	}
	sp := spans[0]
	if sp["stage"] != "bow-retrieve" {
		t.Fatalf("stage = %v", sp["stage"])
	}
	if sp["candidates"].(float64) != 100 || sp["scored"].(float64) != 812 {
		t.Fatalf("attrs not flattened: %v", sp)
	}
	for _, key := range []string{"start_us", "dur_us"} {
		if _, ok := sp[key]; !ok {
			t.Fatalf("span JSON missing %s: %v", key, sp)
		}
	}
}
