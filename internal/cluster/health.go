package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"newslink"
)

// endpoint is one worker replica of a slot, with its circuit-breaker
// state: consecutive request failures past the configured threshold
// eject it (healthy=false), and only the probe loop re-admits it.
// Endpoints start ejected — admission always flows through a successful
// assignment or probe, so a replica is never scattered to before it has
// proven it serves the right plan.
type endpoint struct {
	url     string
	healthy atomic.Bool
	fails   atomic.Int32
}

// ok resets the consecutive-failure count on any success.
func (ep *endpoint) ok() { ep.fails.Store(0) }

// fail counts one failure; it reports true exactly once per ejection,
// when the consecutive count crosses the threshold on a healthy
// endpoint.
func (ep *endpoint) fail(threshold int) bool {
	if threshold < 1 {
		threshold = 1
	}
	n := ep.fails.Add(1)
	return int(n) >= threshold && ep.healthy.CompareAndSwap(true, false)
}

// admit marks the endpoint live again; true when the state flipped.
func (ep *endpoint) admit() bool {
	ep.fails.Store(0)
	return ep.healthy.CompareAndSwap(false, true)
}

// probeLoop periodically re-examines every ejected endpoint and
// re-admits those that pass readiness and serve (or accept) the
// router's plan. This is the sole re-admission path: request traffic
// can only eject.
func (rt *Router) probeLoop(ctx context.Context) {
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			rt.probeAll(ctx)
		}
	}
}

// probeAll probes every ejected endpoint once.
func (rt *Router) probeAll(ctx context.Context) {
	for _, sl := range rt.slots {
		for _, ep := range sl.eps {
			if !ep.healthy.Load() {
				rt.probeEndpoint(ctx, sl, ep)
			}
		}
	}
}

// probeEndpoint runs the admission sequence against one ejected
// endpoint: readiness probe, identity check, re-assignment when the
// worker is unassigned or on another plan, then admission. Any step
// failing leaves the endpoint ejected for the next probe round.
func (rt *Router) probeEndpoint(ctx context.Context, sl *slot, ep *endpoint) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	needAssign := false
	if err := rt.exchange(pctx, ep.url+"/v1/readyz", nil, nil); err != nil {
		var se *rpcStatusError
		if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
			return // not reachable, or broken beyond "unassigned"
		}
		needAssign = true // alive but unassigned
	}
	if !needAssign {
		var info InfoResponse
		if rt.exchange(pctx, ep.url+"/v1/shard/info", nil, &info) != nil {
			return
		}
		needAssign = info.Plan != rt.plan.ID || info.Base != sl.plan.Base
	}
	if needAssign {
		if err := rt.assignEndpoint(pctx, sl, ep); err != nil {
			rt.log.Warn("probe re-assignment failed", "slot", sl.idx, "endpoint", ep.url, "err", err)
			return
		}
	}
	if ep.admit() {
		rt.log.Info("re-admitting shard endpoint", "slot", sl.idx, "endpoint", ep.url)
	}
}

// exchange is one plain control-plane round trip, outside callSlot's
// retry/breaker stack: a nil reqBody sends GET, a nil out discards the
// reply.
func (rt *Router) exchange(ctx context.Context, url string, reqBody any, out Validator) error {
	var payload []byte
	if reqBody != nil {
		var err error
		if payload, err = encodeRequest(reqBody); err != nil {
			return err
		}
	}
	data, err := doRequest(ctx, rt.client, url, payload)
	if err != nil {
		return err
	}
	defer putBuf(data)
	if out == nil {
		return nil
	}
	return DecodeRPC(*data, out)
}

// assignEndpoint installs the slot's segment slice on one worker,
// pointing it at the router's own blob endpoint for missing artifacts.
func (rt *Router) assignEndpoint(ctx context.Context, sl *slot, ep *endpoint) error {
	var ack AssignResponse
	if err := rt.exchange(ctx, ep.url+"/v1/shard/assign", rt.assignRequest(sl), &ack); err != nil {
		return err
	}
	if ack.Plan != rt.plan.ID {
		return fmt.Errorf("worker acknowledged plan %s, want %s", ack.Plan, rt.plan.ID)
	}
	return nil
}

// assignRequest is the slot's assignment: segment IDs and tombstones plus
// the checksums of their artifacts. Postings reach the worker in the
// artifacts, never in the request.
func (rt *Router) assignRequest(sl *slot) *AssignRequest {
	return &AssignRequest{
		Plan:      rt.plan.ID,
		Base:      sl.plan.Base,
		Graph:     rt.plan.Graph,
		Segments:  sl.plan.Segments,
		Checksums: slotChecksums(rt.plan, sl.plan),
		FetchFrom: rt.cfg.SelfURL,
	}
}

// slotChecksums restricts the snapshot's checksum map to the slot's own
// artifact files, so an assignment carries exactly what the worker needs
// to verify.
func slotChecksums(p *Plan, sp ShardPlan) map[string]string {
	out := make(map[string]string, 4*len(sp.Segments))
	for _, sm := range sp.Segments {
		for _, name := range newslink.SegmentFileNames(sm.ID) {
			if sum, ok := p.Checksums[name]; ok {
				out[name] = sum
			}
		}
	}
	return out
}
