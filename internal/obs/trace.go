package obs

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The six pipeline stages of a NewsLink query (Table VIII of the paper
// breaks query cost down along the same lines). Search records the first
// five; Explain records analyze and path-enumeration.
const (
	StageAnalyze = "analyze"          // NLP + NE on the query text (or cache hit)
	StageEmbed   = "embed"            // G* subgraph embedding of the entity groups
	StageBOW     = "bow-retrieve"     // BM25 top-k over the text index
	StageBON     = "bon-retrieve"     // BM25 top-k over the node index
	StageFuse    = "fuse"             // Equation 3 score fusion
	StageTopK    = "topk"             // final top-k materialization (titles, snippets)
	StagePaths   = "path-enumeration" // relationship paths between embeddings
	StageScatter = "scatter"          // cluster router: fan-out to shard workers
	StageGather  = "gather"           // cluster router: partial top-k merge
)

// StageShard names the span for one shard worker's leg of a scatter:
// "shard[0]", "shard[1]", … indexed by the shard's slot in the plan.
func StageShard(i int) string { return "shard[" + strconv.Itoa(i) + "]" }

// Attr is one integer span attribute (candidate counts, shard fan-out,
// cache hits). Attributes are integer-valued by design: it keeps spans free
// of interface boxing, and everything the pipeline reports is a count or a
// flag.
type Attr struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}

// Int builds an int attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Val: int64(v)} }

// Int64 builds an int64 attribute.
func Int64(key string, v int64) Attr { return Attr{Key: key, Val: v} }

// Bool builds a 0/1 attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key}
	if v {
		a.Val = 1
	}
	return a
}

// Span is one completed pipeline stage within a trace.
type Span struct {
	// Stage is the stage name (one of the Stage* constants).
	Stage string `json:"stage"`
	// Start is the offset from the start of the trace.
	Start time.Duration `json:"start_us"`
	// Dur is the stage duration.
	Dur time.Duration `json:"dur_us"`
	// Attrs are stage attributes (candidate counts, cache hit/miss, pruning
	// statistics).
	Attrs []Attr `json:"attrs,omitempty"`
}

// MarshalJSON renders durations in integer microseconds and flattens attrs
// into the span object, the shape the /v1/search?trace=1 response exposes:
//
//	{"stage":"bow-retrieve","start_us":12,"dur_us":340,"candidates":100,"scored":812}
func (s Span) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteString(`{"stage":`)
	b.WriteString(strconv.Quote(s.Stage))
	b.WriteString(`,"start_us":`)
	b.WriteString(strconv.FormatInt(s.Start.Microseconds(), 10))
	b.WriteString(`,"dur_us":`)
	b.WriteString(strconv.FormatInt(s.Dur.Microseconds(), 10))
	for _, a := range s.Attrs {
		b.WriteByte(',')
		b.WriteString(strconv.Quote(a.Key))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(a.Val, 10))
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// Attr returns the value of the named attribute and whether it is present.
func (s Span) Attr(key string) (int64, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// Trace collects the stage spans of one request. A nil *Trace is a valid
// no-op sink (Start and Spans work on it), so instrumented code never
// branches on "is tracing enabled". Safe for concurrent use: the parallel
// BOW/BON goroutines record into the same trace.
type Trace struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTrace starts an empty trace; span offsets are measured from now.
func NewTrace() *Trace { return &Trace{t0: time.Now()} }

// Start opens a span for one stage. The returned Timer is a value (no
// allocation); call End to close and record the span. Works on a nil trace,
// where End still returns the measured duration but records nothing.
func (t *Trace) Start(stage string) Timer {
	return Timer{tr: t, stage: stage, start: time.Now()}
}

func (t *Trace) record(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns the recorded spans ordered by start offset. Safe on a nil
// trace (returns nil).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Timer is an open span. It is passed by value and holds no resources.
type Timer struct {
	tr    *Trace
	stage string
	start time.Time
}

// End closes the span, attaches the attributes, and returns the measured
// duration (so callers can feed the same measurement into a histogram
// whether or not a trace is attached).
func (tm Timer) End(attrs ...Attr) time.Duration {
	d := time.Since(tm.start)
	if tm.tr != nil {
		tm.tr.record(Span{
			Stage: tm.stage,
			Start: tm.start.Sub(tm.tr.t0),
			Dur:   d,
			Attrs: attrs,
		})
	}
	return d
}

// traceKey is the context key type for the request trace.
type traceKey struct{}

// WithTrace derives a context carrying a fresh trace and returns both. The
// engine's read path records its stage spans into whatever trace the
// request context carries.
func WithTrace(ctx context.Context) (context.Context, *Trace) {
	tr := NewTrace()
	return context.WithValue(ctx, traceKey{}, tr), tr
}

// FromContext returns the trace carried by ctx, or nil (a valid no-op
// trace) when the request is not being traced.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}
