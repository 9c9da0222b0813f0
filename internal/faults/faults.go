// Package faults is the deterministic fault-injection layer of the
// NewsLink resilience tests. Production code calls Fire (or FireCtx) at a
// handful of named injection points; when no injector is armed — the
// steady state of every production process — a fire is one atomic pointer
// load returning nil, the same nil-cost no-op discipline as a disabled
// obs.Trace. Tests arm an Injector carrying per-point rules (an error to
// return, a latency to add, a value to panic with, an optional shot
// count) and drive the code under test through the exact failure they
// want to prove survivable:
//
//	inj := faults.New().Fail(faults.BONStage, errInjected)
//	faults.Arm(inj)
//	defer faults.Disarm()
//	// ... the fused search path now sees a failing BON retrieval ...
//	if inj.Hits(faults.BONStage) == 0 { t.Fatal("site not reached") }
//
// The armed injector is process-global, so tests that arm one must not
// run in parallel with each other (they may run in parallel with
// non-injecting tests: a point without a rule only counts the hit).
package faults

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site in the production code.
type Point string

// The injection points wired into the engine, the persistence layer and
// the HTTP server.
const (
	// BONStage fires at the start of the BON (subgraph) retrieval stage of
	// a search. An error rule simulates a failing graph-side index; a delay
	// rule simulates a slow one.
	BONStage Point = "engine.bon-retrieve"
	// SaveWrite fires before each snapshot artifact is written.
	SaveWrite Point = "persist.write"
	// SaveRename fires before the atomic rename that installs a finished
	// snapshot, after a previous snapshot at the target was parked, so an
	// error rule runs the roll-back of a failed install.
	SaveRename Point = "persist.rename"
	// Handler fires inside the HTTP middleware, before the route handler
	// runs. A panic rule simulates a crashing handler.
	Handler Point = "http.handler"
	// WALAppend fires with the framed record bytes before each WAL append.
	// A mutate rule simulates a torn write (truncate the record) or a bit
	// flip on the way to disk; an error rule simulates a failing write.
	WALAppend Point = "wal.append"
	// WALSync fires before each WAL fsync. An error rule simulates a disk
	// that stops accepting syncs; a delay rule simulates a slow one.
	WALSync Point = "wal.sync"
	// IngestApply fires before an ingest micro-batch is applied to the
	// engine, after its records are durable in the WAL. An error or panic
	// rule simulates a crash in the acknowledged-but-unapplied window.
	IngestApply Point = "engine.ingest-apply"
)

// ClusterShard returns the injection point fired by shard worker id at
// the top of every RPC handler. Worker ids are dynamic (assigned by the
// test or the deployment), so these points are constructed rather than
// enumerated; the process-global injector still targets exactly one
// worker even when several run in-process.
func ClusterShard(id string) Point { return Point("cluster.shard." + id) }

// ClusterShardWrite returns the injection point a shard worker fires on
// its marshaled response body before writing it, letting FireData rules
// truncate or corrupt the bytes — a deterministic stand-in for a worker
// crashing mid-response.
func ClusterShardWrite(id string) Point { return Point("cluster.shard-write." + id) }

// rule is the configured behaviour of one point.
type rule struct {
	delay     time.Duration
	err       error
	panicVal  any
	mutate    func([]byte) []byte
	remaining int // shots left; -1 = unlimited
}

// Injector holds the fault rules of one test. The zero state injects
// nothing; rules accumulate through the chainable Fail/FailN/Delay/Panic
// calls. Safe for concurrent use once armed.
type Injector struct {
	mu    sync.Mutex
	rules map[Point]*rule
	hits  map[Point]int
}

// New returns an empty injector.
func New() *Injector {
	return &Injector{rules: make(map[Point]*rule), hits: make(map[Point]int)}
}

func (i *Injector) rule(p Point) *rule {
	r, ok := i.rules[p]
	if !ok {
		r = &rule{remaining: -1}
		i.rules[p] = r
	}
	return r
}

// Fail makes every fire of p return err.
func (i *Injector) Fail(p Point, err error) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rule(p).err = err
	return i
}

// FailN makes the first n fires of p return err; later fires pass.
func (i *Injector) FailN(p Point, n int, err error) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	r := i.rule(p)
	r.err = err
	r.remaining = n
	return i
}

// Delay adds d of latency to every fire of p (before any error or panic).
func (i *Injector) Delay(p Point, d time.Duration) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rule(p).delay = d
	return i
}

// Mutate makes every FireData of p pass its data through fn, simulating
// payload damage (torn writes, bit flips) on the way to a sink. fn must
// not retain or modify the input slice; it returns the bytes to use
// instead.
func (i *Injector) Mutate(p Point, fn func([]byte) []byte) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rule(p).mutate = fn
	return i
}

// MutateN applies fn to the first n FireData calls of p; later calls pass
// the data through unchanged.
func (i *Injector) MutateN(p Point, n int, fn func([]byte) []byte) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	r := i.rule(p)
	r.mutate = fn
	r.remaining = n
	return i
}

// Panic makes every fire of p panic with v.
func (i *Injector) Panic(p Point, v any) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rule(p).panicVal = v
	return i
}

// Hits returns how many times p fired while this injector was armed,
// whether or not a rule was configured for it.
func (i *Injector) Hits(p Point) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.hits[p]
}

// take records a hit and consumes one shot of the rule for p, returning
// the behaviour to apply (zero rule when none is configured or the shots
// are spent).
func (i *Injector) take(p Point) rule {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.hits[p]++
	r, ok := i.rules[p]
	if !ok || r.remaining == 0 {
		return rule{}
	}
	if r.remaining > 0 {
		r.remaining--
	}
	return *r
}

// armed is the process-global injector; nil in production.
var armed atomic.Pointer[Injector]

// Arm installs i as the process-global injector.
func Arm(i *Injector) { armed.Store(i) }

// Disarm removes the global injector, returning every point to its
// nil-cost pass-through behaviour.
func Disarm() { armed.Store(nil) }

// Fire triggers the injection point p: with no injector armed it returns
// nil at the cost of one atomic load; with one armed it applies the
// point's rule — sleep the configured delay, panic with the configured
// value, or return the configured error (in that order).
func Fire(p Point) error {
	inj := armed.Load()
	if inj == nil {
		return nil
	}
	r := inj.take(p)
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	if r.panicVal != nil {
		panic(r.panicVal)
	}
	return r.err
}

// FireData is Fire for points that carry a payload toward a sink (e.g. a
// WAL record about to be written). With no injector armed it returns data
// unchanged at the cost of one atomic load. A mutate rule replaces the
// bytes — the caller writes the mutated form, simulating damage in
// flight — and error/delay/panic rules behave as in Fire (an error
// suppresses the write entirely).
func FireData(p Point, data []byte) ([]byte, error) {
	inj := armed.Load()
	if inj == nil {
		return data, nil
	}
	r := inj.take(p)
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	if r.panicVal != nil {
		panic(r.panicVal)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.mutate != nil {
		return r.mutate(data), nil
	}
	return data, nil
}

// FireCtx is Fire with a context-aware delay: a configured latency waits
// on ctx, and a context that ends mid-sleep wins — FireCtx returns
// ctx.Err() immediately, the way a real slow dependency loses to a stage
// deadline.
func FireCtx(ctx context.Context, p Point) error {
	inj := armed.Load()
	if inj == nil {
		return nil
	}
	r := inj.take(p)
	if r.delay > 0 {
		t := time.NewTimer(r.delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if r.panicVal != nil {
		panic(r.panicVal)
	}
	return r.err
}
