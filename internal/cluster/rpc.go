// Package cluster distributes a NewsLink engine across processes: a
// Router serves the public API from an engine over a whole snapshot and
// scatters every request's postings traversals over N shard Workers
// (newslinkd -shard), each holding the postings of a contiguous run of the
// snapshot's segments, with the exact partial top-k merge semantics of
// internal/search.
//
// The RPC surface is a small HTTP protocol under the same /v1/ prefix and
// error envelope the public API uses, in two planes. The control plane —
// one exchange per assignment — is JSON; the data plane — the one RPC
// every query pays — is the checksummed binary frame of wire.go, and
// nothing else is accepted there. Workers serve the first two, the router
// the third:
//
//	POST /v1/shard/assign       json   install a segment slice (fetching blobs)
//	POST /v1/shard/search       frame  ordered-term block-max top-k (BOW + BON)
//	GET  /v1/shard/blob/{name}  bytes  one content-addressed segment artifact
//
// Every non-200 reply, on either plane, is the JSON error envelope.
//
// Every stateful request and response carries the plan ID — the version
// of the conversation. A worker serving a different plan answers 409
// (plan_mismatch) and the router re-assigns rather than merging results
// computed over the wrong corpus slice.
//
// No RPC carries statistics, documents or explanations: the router's
// engine holds the documents of the whole snapshot and
// reads N, avgdl, DF and max-TF for any target set off the same
// index.Multi a single process would score against. What a worker serves
// is bound to those bytes by the plan ID and the per-artifact checksums of
// its assignment.
//
// Robustness is the point of the layer: per-shard deadlines derived from
// the request budget, bounded retries with jittered exponential backoff
// across replicas, optional tail-latency hedging, a consecutive-failure
// circuit breaker with re-admission through the assignment, and graceful
// partial results (Degraded=true, never a 500 while one shard answers).
// See DESIGN.md §14.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"

	"newslink"
	"newslink/internal/search"
)

// Request caps: like the public API's parameter caps, these keep one
// request from sizing worker allocations. They bound honest traffic
// generously (the router never exceeds them) and malicious bodies hard.
const (
	maxRPCBody  = 8 << 20 // bytes per request/response body
	maxRPCTerms = 4096    // terms per search request leg or entity set
	maxSegments = 1 << 16 // segments per assignment
	maxRPCK     = 16384   // top-k per shard search
)

// AssignRequest installs a segment slice on a worker. Segments name the
// slice by content ID and tombstones; the postings and time columns the
// worker reads travel in the segments' artifacts, never in the request, so
// its size does not depend on the corpus. Artifacts the worker does not
// hold (by checksum) are fetched from FetchFrom's /v1/shard/blob/ endpoint
// — the router's — and verified before anything is loaded. A worker that
// already serves Plan at Base acknowledges without reloading.
type AssignRequest struct {
	Plan      string                     `json:"plan"`
	Base      int                        `json:"base"`
	Graph     newslink.GraphFingerprint  `json:"graph"`
	Segments  []newslink.ManifestSegment `json:"segments"`
	Checksums map[string]string          `json:"checksums"`
	FetchFrom string                     `json:"fetch_from,omitempty"`
}

// AssignResponse acknowledges an installed assignment.
type AssignResponse struct {
	Plan    string `json:"plan"`
	Fetched int    `json:"fetched"` // artifact files fetched from the router
}

// ScorerParams transports the global BM25 parameters the router read off
// the target corpus's merged index. Every float64 crosses the wire as its 8 raw
// bits, so worker-side scoring is bitwise identical to single-process
// scoring.
type ScorerParams struct {
	K1     float64
	B      float64
	N      int
	AvgLen float64
}

func (p ScorerParams) scorer() search.BM25 {
	return search.BM25{K1: p.K1, B: p.B, N: p.N, AvgLen: p.AvgLen}
}

// SearchRequest evaluates globally ordered terms on a worker's slice.
// Term order, DF and bounds are the router's global values; the worker
// executes them verbatim (TopKBlockMaxOrderedStats), which is what makes
// per-document scores identical to a single-process evaluation.
type SearchRequest struct {
	Plan       string
	K          int
	Text       []search.OrderedTerm
	Node       []search.OrderedTerm
	TextScorer ScorerParams
	NodeScorer ScorerParams
	// After/Before are the inclusive Document.Time bounds (0 = unbounded)
	// and Entities the router-resolved entity-facet term sets (one set per
	// requested label, conjunctive across sets; an empty set matches
	// nothing). Workers compile them into the same composed document
	// filter a single process uses, over statistics that stay unfiltered —
	// which is what keeps filtered cluster rankings DeepEqual to a single
	// process.
	After    int64
	Before   int64
	Entities [][]string
}

// SearchResponse carries the worker-local top k per index. On the wire a
// hit's position is Doc − Base: a worker encodes with Base 0 (its local
// coordinates), and the router decodes with Base set to the slot's plan
// base, so hits arrive already in global positions.
type SearchResponse struct {
	Plan string
	Base int // not on the wire
	Text []search.Hit
	Node []search.Hit
}

// errDecode marks malformed or out-of-bounds RPC input; handlers map it
// to 400 with the uniform error envelope.
var errDecode = errors.New("cluster: invalid rpc payload")

func decodeErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errDecode, fmt.Sprintf(format, args...))
}

// DecodeRPC strictly decodes one RPC message and validates its bounds:
// unknown fields, trailing data, corrupted or oversized payloads and
// out-of-range parameters all fail with a typed error instead of reaching
// a handler. The message type fixes the codec — a data-plane message is a
// binary frame, anything else JSON — so neither end negotiates. Nothing
// decoded aliases data.
func DecodeRPC(data []byte, v Validator) error {
	if len(data) > maxRPCBody {
		return decodeErrf("body of %d bytes exceeds %d", len(data), maxRPCBody)
	}
	if m, ok := v.(wireMessage); ok {
		return decodeFrame(data, m)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return decodeErrf("%v", err)
	}
	if dec.More() {
		return decodeErrf("trailing data after message")
	}
	return v.Validate()
}

// encodeRPC appends v's wire form to b, the counterpart of DecodeRPC.
func encodeRPC(b []byte, v any) ([]byte, error) {
	if m, ok := v.(wireMessage); ok {
		return appendFrame(b, m), nil
	}
	data, err := json.Marshal(v)
	return append(b, data...), err
}

// contentType names what encodeRPC produced, as a header value shared by
// every message (read-only) rather than built per RPC.
func contentType(body []byte) []string {
	if isFrame(body) {
		return contentTypeFrame
	}
	return contentTypeJSON
}

var (
	contentTypeFrame = []string{"application/octet-stream"}
	contentTypeJSON  = []string{"application/json"}
)

// readBody reads one RPC body into a pooled buffer the caller owns. The
// buffer is sized once from the announced Content-Length (negative =
// unknown) instead of grown by doubling — up to maxPooledBuf, so an
// announcement alone cannot reserve megabytes; bodies past maxRPCBody are
// refused, announced or not. A body shorter than announced surfaces as
// net/http's io.ErrUnexpectedEOF.
func readBody(r io.Reader, announced int64) (*[]byte, error) {
	if announced > maxRPCBody {
		return nil, decodeErrf("body of %d bytes exceeds %d", announced, maxRPCBody)
	}
	// One spare byte lets the read that returns io.EOF land without growth.
	buf := getBuf(int(min(max(announced, 511), maxPooledBuf)) + 1)
	b := *buf
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		*buf = b
		if len(b) > maxRPCBody {
			err = decodeErrf("body exceeds %d bytes", maxRPCBody)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			putBuf(buf)
			return nil, err
		}
	}
}

// decodeBody reads and decodes one request body.
func decodeBody(r *http.Request, v Validator) error {
	buf, err := readBody(r.Body, r.ContentLength)
	if err != nil {
		return decodeErrf("reading body: %v", err)
	}
	defer putBuf(buf)
	return DecodeRPC(*buf, v)
}

// Validator is an RPC message that can check its own bounds.
type Validator interface{ Validate() error }

// maxEntitySets caps the entity-facet sets per request; each set is
// additionally bounded like a term list. Empty sets are valid — they are
// how an unresolvable label's match-nothing semantics reach the workers.
const maxEntitySets = 64

func checkEntitySets(field string, sets [][]string) error {
	if len(sets) > maxEntitySets {
		return decodeErrf("%s: %d entity sets exceed %d", field, len(sets), maxEntitySets)
	}
	for _, set := range sets {
		if len(set) > maxRPCTerms {
			return decodeErrf("%s: %d terms exceed %d", field, len(set), maxRPCTerms)
		}
		for _, t := range set {
			if t == "" {
				return decodeErrf("%s: empty entity term", field)
			}
		}
	}
	return nil
}

func checkOrdered(field string, terms []search.OrderedTerm) error {
	if len(terms) > maxRPCTerms {
		return decodeErrf("%s: %d terms exceed %d", field, len(terms), maxRPCTerms)
	}
	for _, t := range terms {
		if t.Term == "" || t.DF < 0 {
			return decodeErrf("%s: empty term or negative df", field)
		}
	}
	return nil
}

// Validate bounds an assignment: segment count and artifact IDs (which
// name files — a malformed ID must never reach the filesystem).
func (r *AssignRequest) Validate() error {
	if r.Plan == "" {
		return decodeErrf("assign: missing plan")
	}
	if r.Base < 0 {
		return decodeErrf("assign: negative base")
	}
	if len(r.Segments) == 0 || len(r.Segments) > maxSegments {
		return decodeErrf("assign: %d segments outside [1,%d]", len(r.Segments), maxSegments)
	}
	for _, sm := range r.Segments {
		if !validArtifactID(sm.ID) {
			return decodeErrf("assign: invalid segment id %q", sm.ID)
		}
	}
	return nil
}

func (r *SearchRequest) Validate() error {
	if r.Plan == "" {
		return decodeErrf("search: missing plan")
	}
	if r.K <= 0 || r.K > maxRPCK {
		return decodeErrf("search: k %d outside [1,%d]", r.K, maxRPCK)
	}
	if err := checkOrdered("search.text", r.Text); err != nil {
		return err
	}
	if err := checkOrdered("search.node", r.Node); err != nil {
		return err
	}
	return checkEntitySets("search.entities", r.Entities)
}

// Response validators: the router decodes worker responses through the
// same strict path, so a corrupted or truncated body (a worker crashing
// mid-response) surfaces as a typed decode error — a shard failure —
// never as silently wrong results.
func (r *AssignResponse) Validate() error {
	if r.Plan == "" {
		return decodeErrf("assign response: missing plan")
	}
	return nil
}

// Validate bounds the hit lists and checks that each is ranked, which
// is how the router's merge (search.MergeTopK) reads them. Positions need
// no check here: a hit's Doc is unsigned, and the frame decoder refuses a
// negative or out-of-space position before one is formed.
func (r *SearchResponse) Validate() error {
	if len(r.Text) > maxRPCK || len(r.Node) > maxRPCK {
		return decodeErrf("search response: hit list exceeds k cap")
	}
	if !slices.IsSortedFunc(r.Text, search.RankOrder) || !slices.IsSortedFunc(r.Node, search.RankOrder) {
		return decodeErrf("search response: hit list out of rank order")
	}
	return nil
}

// validArtifactID accepts the content-derived segment IDs Save produces:
// 16 lowercase hex digits. Anything else could smuggle path separators
// into artifact file names.
func validArtifactID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// validArtifactName accepts exactly the file names SegmentFileNames
// produces for a valid artifact ID.
func validArtifactName(name string) bool {
	if len(name) < 5 || name[:4] != "seg-" {
		return false
	}
	rest := name[4:]
	dot := bytes.IndexByte([]byte(rest), '.')
	if dot < 0 || !validArtifactID(rest[:dot]) {
		return false
	}
	switch rest[dot+1:] {
	case "text.idx", "node.idx", "docs.bin":
		return true
	}
	return false
}
