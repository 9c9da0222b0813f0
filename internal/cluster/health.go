package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"newslink"
)

// endpoint is one worker replica of a slot, with its circuit-breaker
// state: breakerThreshold consecutive request failures eject it
// (healthy=false), and only an acknowledged assignment admits it.
// Endpoints start ejected, so a replica is never scattered to before it
// has acknowledged the router's plan.
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
func (ep *endpoint) fail() bool {
	n := ep.fails.Add(1)
	return n >= breakerThreshold && ep.healthy.CompareAndSwap(true, false)
}

// admit marks the endpoint live again; true when the state flipped.
func (ep *endpoint) admit() bool {
	ep.fails.Store(0)
	return ep.healthy.CompareAndSwap(false, true)
}

// probeLoop periodically assigns every ejected endpoint its slot again,
// re-admitting those that acknowledge. This is the sole re-admission
// path: request traffic can only eject.
func (rt *Router) probeLoop(ctx context.Context) {
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			for _, sl := range rt.slots {
				for _, ep := range sl.eps {
					if !ep.healthy.Load() {
						rt.assign(ctx, sl, ep)
					}
				}
			}
		}
	}
}

// assign is the one admission exchange, at start-up and in the probe
// loop: it posts the slot's assignment to the endpoint and admits it on
// an acknowledgement of the router's plan. A worker that already serves
// that plan and base acknowledges without reloading; any other one
// installs the slice first, fetching the artifacts it lacks. It reports
// whether the endpoint is admitted; a failure leaves it ejected for the
// next probe round.
func (rt *Router) assign(ctx context.Context, sl *slot, ep *endpoint) bool {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	if err := rt.assignEndpoint(ctx, sl, ep); err != nil {
		rt.log.Warn("shard assignment failed", "slot", sl.idx, "endpoint", ep.url, "err", err)
		return false
	}
	if ep.admit() {
		rt.log.Info("admitting shard endpoint", "slot", sl.idx, "endpoint", ep.url)
	}
	return true
}

// assignEndpoint posts the slot's assignment to one worker, outside
// callSlot's retry/breaker stack, and checks the acknowledgement.
func (rt *Router) assignEndpoint(ctx context.Context, sl *slot, ep *endpoint) error {
	payload, err := encodeRequest(rt.assignRequest(sl))
	if err != nil {
		return err
	}
	data, err := doRequest(ctx, rt.client, ep.url+"/v1/shard/assign", payload)
	if err != nil {
		return err
	}
	defer putBuf(data)
	var ack AssignResponse
	if err := DecodeRPC(*data, &ack); err != nil {
		return err
	}
	if ack.Plan != rt.plan.ID {
		return fmt.Errorf("worker acknowledged plan %s, want %s", ack.Plan, rt.plan.ID)
	}
	return nil
}

// assignRequest is the slot's assignment: segment IDs and tombstones plus
// the checksums of their artifacts, and the router's URL to fetch missing
// ones from. Postings reach the worker in the artifacts, never in the
// request.
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
