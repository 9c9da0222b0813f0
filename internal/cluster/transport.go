package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"newslink/internal/server"
)

// rpcStatusError is a non-2xx worker reply, carrying the uniform error
// envelope's code for classification (plan_mismatch, unassigned, ...).
type rpcStatusError struct {
	Status  int
	Code    string
	Message string
}

func (e *rpcStatusError) Error() string {
	return fmt.Sprintf("shard answered %d (%s): %s", e.Status, e.Code, e.Message)
}

// retryable reports whether an attempt failure may be retried on a
// replica: transport errors, timeouts, truncated/corrupt responses and
// 5xx replies are transient, and so is a replica that lacks the router's
// plan (unassigned), which attempt has ejected, so the retry goes to the
// slot's next live replica. Other 4xx replies are ours to fix, and any
// other 503 is the worker's refusal to serve.
func retryable(err error) bool {
	var se *rpcStatusError
	if errors.As(err, &se) {
		return unassigned(se) || se.Status >= 500 && se.Status != http.StatusServiceUnavailable
	}
	return true
}

// unassigned reports a replica that cannot serve until the probe loop
// assigns it the router's plan: it has none (503 unassigned) or another
// one (409 plan_mismatch).
func unassigned(se *rpcStatusError) bool {
	return se.Status == http.StatusServiceUnavailable && se.Code == "unassigned" ||
		se.Status == http.StatusConflict && se.Code == "plan_mismatch"
}

// encodeRequest returns v's wire form as an exact-size slice for net/http
// to read from, encoded through a pooled scratch buffer. The slice itself
// is left to the collector, not pooled: the transport may still be reading
// a request body after the exchange it belongs to has returned (a hedged
// loser certainly is), and only a bytes.Reader body is written in one
// syscall with its headers.
func encodeRequest(v any) ([]byte, error) {
	buf := getBuf(0)
	defer putBuf(buf)
	data, err := encodeRPC(*buf, v)
	if err != nil {
		return nil, err
	}
	*buf = data
	return bytes.Clone(data), nil
}

// doRequest POSTs one RPC and returns the raw 200 response body in a
// pooled buffer the caller owns (putBuf once decoded). Reading the full
// body here is what turns a worker crash mid-response (short write against
// a promised Content-Length) into an unexpected-EOF attempt failure.
func doRequest(ctx context.Context, client *http.Client, url string, payload []byte) (*[]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header["Content-Type"] = contentType(payload)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("reading shard response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		se := &rpcStatusError{Status: resp.StatusCode}
		var env server.ErrorResponse
		if json.Unmarshal(*data, &env) == nil {
			se.Code, se.Message = env.Error.Code, env.Error.Message
		}
		putBuf(data)
		return nil, se
	}
	return data, nil
}

// attempt performs one request against one endpoint, recording latency,
// the per-shard outcome counter, and the endpoint's breaker state.
func (rt *Router) attempt(ctx context.Context, sl *slot, ep *endpoint, path string, payload []byte) (*[]byte, error) {
	t0 := time.Now()
	data, err := doRequest(ctx, rt.client, ep.url+path, payload)
	sl.lat.Observe(time.Since(t0).Seconds())
	switch {
	case err == nil:
		ep.ok()
		sl.reqs["ok"].Inc()
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		sl.reqs["timeout"].Inc()
		rt.noteFailure(sl, ep, err)
	default:
		sl.reqs["error"].Inc()
		var se *rpcStatusError
		switch {
		case errors.As(err, &se) && unassigned(se):
			// It fails every request until re-assigned, and only the probe
			// loop assigns, only to an ejected endpoint: eject it now.
			if ep.healthy.CompareAndSwap(true, false) {
				rt.log.Warn("ejecting unassigned shard endpoint", "slot", sl.idx, "endpoint", ep.url, "err", err)
			}
		case !errors.Is(err, context.Canceled):
			// A cancelled attempt — a hedge's loser, a client that went away —
			// says nothing about the endpoint; counting it would let a run of
			// lost hedges eject a healthy replica.
			rt.noteFailure(sl, ep, err)
		}
	}
	return data, err
}

// noteFailure feeds the endpoint's circuit breaker; crossing the
// consecutive-failure threshold ejects the endpoint until the probe loop
// re-admits it.
func (rt *Router) noteFailure(sl *slot, ep *endpoint, err error) {
	if ep.fail() {
		rt.log.Warn("ejecting shard endpoint", "slot", sl.idx, "endpoint", ep.url, "err", err)
	}
}

// hedgeDelay is the latency past which a second replica is tried: the
// slot's observed p99, floored by hedgeMin.
func (rt *Router) hedgeDelay(sl *slot) time.Duration {
	d := time.Duration(sl.lat.Quantile(0.99) * float64(time.Second))
	if d < rt.cfg.hedgeMin {
		d = rt.cfg.hedgeMin
	}
	return d
}

// attemptHedged runs one logical attempt: a request to the chosen
// endpoint, plus — when hedging is on and the slot has a second live
// replica — a duplicate to the next replica once the primary has been
// quiet past the hedge delay. The first success wins and cancels the
// loser; requests are idempotent reads, so duplicates are harmless. A
// loser's response buffer is never received from ch and goes to the
// collector, not the pool.
func (rt *Router) attemptHedged(ctx context.Context, sl *slot, eps []*endpoint, idx int, path string, payload []byte) (*[]byte, error) {
	if !rt.cfg.Hedge || len(eps) < 2 {
		return rt.attempt(ctx, sl, eps[idx], path, payload)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		data *[]byte
		err  error
	}
	ch := make(chan result, 2)
	launch := func(ep *endpoint) {
		go func() {
			data, err := rt.attempt(ctx, sl, ep, path, payload)
			ch <- result{data, err}
		}()
	}
	launch(eps[idx])
	timer := time.NewTimer(rt.hedgeDelay(sl))
	defer timer.Stop()
	timerC := timer.C
	pending := 1
	var lastErr error
	for {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				return r.data, nil
			}
			lastErr = r.err
			if pending == 0 {
				return nil, lastErr
			}
		case <-timerC:
			timerC = nil
			rt.mHedges.Inc()
			launch(eps[(idx+1)%len(eps)])
			pending++
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// callSlot performs one idempotent RPC against a slot with the full
// robustness stack: live-replica rotation, per-attempt deadlines carved
// from the remaining request budget, bounded retries with jittered
// exponential backoff, hedging, and strict response decoding. The request
// is encoded once; every attempt — retries and hedges — reads the same
// bytes.
func (rt *Router) callSlot(ctx context.Context, sl *slot, path string, reqBody any, out Validator) error {
	payload, err := encodeRequest(reqBody)
	if err != nil {
		return err
	}
	attempts := rt.cfg.maxAttempts
	deadline, hasDeadline := ctx.Deadline()
	start := int(sl.next.Add(1) - 1)
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		eps := sl.live()
		if len(eps) == 0 {
			return errJoin(errNoLiveEndpoints, lastErr)
		}
		idx := (start + a) % len(eps)
		actx, cancel := ctx, context.CancelFunc(func() {})
		if hasDeadline {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return errJoin(context.DeadlineExceeded, lastErr)
			}
			// The +1 reserves one share of the budget beyond the remaining
			// attempts: even if every attempt times out, the request keeps
			// enough headroom to re-run over the surviving shards and
			// answer degraded instead of timing out outright.
			actx, cancel = context.WithTimeout(ctx, remaining/time.Duration(attempts-a+1))
		}
		data, err := rt.attemptHedged(actx, sl, eps, idx, path, payload)
		cancel()
		if err == nil {
			err = DecodeRPC(*data, out)
			putBuf(data)
			if err == nil {
				return nil
			}
			// A decodable-but-invalid body is as broken as a transport
			// error: count it against the endpoint and retry elsewhere.
			rt.noteFailure(sl, eps[idx], err)
		}
		lastErr = err
		if !retryable(err) {
			return err
		}
		if a < attempts-1 {
			rt.mRetries.Inc()
			if err := backoffSleep(ctx, rt.cfg.retryBase, a); err != nil {
				return errJoin(err, lastErr)
			}
		}
	}
	return lastErr
}

// errNoLiveEndpoints marks a slot with every replica ejected; the
// scatter loop degrades around it.
var errNoLiveEndpoints = errors.New("cluster: no live endpoints for shard")

// errJoin keeps the primary error first and drops a nil secondary.
func errJoin(primary, secondary error) error {
	if secondary == nil {
		return primary
	}
	return errors.Join(primary, secondary)
}

// backoffSleep waits base·2^attempt scaled by a uniform [0.5,1.5)
// jitter, returning early if the context ends. Jitter decorrelates
// retry storms: a burst of failures does not re-converge on the
// recovering worker in lockstep.
func backoffSleep(ctx context.Context, base time.Duration, attempt int) error {
	d := base << uint(attempt)
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
