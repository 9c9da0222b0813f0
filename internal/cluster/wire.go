package cluster

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"

	"newslink/internal/index"
	"newslink/internal/search"
)

// The data plane — the one per-query RPC, request and 200-reply both —
// travels as one hand-written binary frame:
//
//	'N' 'L' kind version | fields ... | CRC-32C (little-endian)
//
// The 4-byte magic names the message (kind) and the layout (version); the
// trailer is the Castagnoli checksum of every byte before it, so a flipped
// bit is a decode error — a shard failure — exactly as a truncated body
// already was. Fields follow in the fixed order of each message's
// appendFields, with three encodings:
//
//   - counts, lengths and integers are uvarints in their shortest form
//     (an integer as the two's complement of its int64, so a negative
//     value survives the wire to be rejected by Validate);
//   - a string is its byte length followed by its bytes;
//   - a float64 is its 8 raw bits (math.Float64bits, little-endian), so
//     scorer parameters, bounds and scores arrive bitwise identical by
//     construction rather than by decimal round-trip.
//
// Every value has exactly one encoding (shortest varints, nothing
// optional), so decode∘encode and encode∘decode are both identities.
// Decoding never trusts a count: it is checked against its cap and against
// the bytes that remain before it sizes an allocation, and every string is
// copied out of the buffer, which is what lets both ends recycle their
// buffers.
const wireVersion = 1

// Message kinds, the third magic byte. Kinds 1 and 2 were the statistics
// exchange, kinds 5 and 6 the document gather; they stay reserved —
// refused like any unknown kind, never reused — so the surviving kinds keep
// their numbers.
const (
	kindSearchRequest  byte = 3
	kindSearchResponse byte = 4
)

const frameOverhead = 4 + 4 // magic + CRC trailer

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// wireMessage is a data-plane message: it names its frame kind and knows
// its field layout in both directions.
type wireMessage interface {
	Validator
	wireKind() byte
	appendFields(b []byte) []byte
	readFields(fields []byte) (rest []byte, err error)
}

// isFrame reports whether data starts like a binary frame (as opposed to
// the control plane's JSON).
func isFrame(data []byte) bool {
	return len(data) >= frameOverhead && data[0] == 'N' && data[1] == 'L'
}

// appendFrame appends m's frame to b.
func appendFrame(b []byte, m wireMessage) []byte {
	start := len(b)
	b = append(b, 'N', 'L', m.wireKind(), wireVersion)
	b = m.appendFields(b)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], castagnoli))
}

// decodeFrame decodes one frame into m and validates it. m's strings and
// slices own their memory afterwards; data may be reused.
func decodeFrame(data []byte, m wireMessage) error {
	if !isFrame(data) {
		return decodeErrf("not a binary rpc frame")
	}
	if data[2] != m.wireKind() || data[3] != wireVersion {
		return decodeErrf("frame kind %d version %d, want kind %d version %d",
			data[2], data[3], m.wireKind(), wireVersion)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return decodeErrf("frame checksum mismatch")
	}
	rest, err := m.readFields(body[4:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return decodeErrf("trailing data after message")
	}
	return m.Validate()
}

func appendInt(b []byte, v int) []byte {
	return binary.AppendUvarint(b, uint64(int64(v)))
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// wireReader consumes a frame's fields. The first failure sticks and
// empties the input, so every later read returns a zero value and a zero
// count: a message's readFields needs no error handling of its own and
// cannot loop or allocate on garbage.
type wireReader struct {
	data []byte
	err  error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = decodeErrf(format, args...)
	}
	r.data = nil
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	// A final zero byte is a padded (non-shortest) encoding.
	if n <= 0 || (n > 1 && r.data[n-1] == 0) {
		r.fail("malformed varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *wireReader) int64() int64 { return int64(r.uvarint()) }

func (r *wireReader) int() int {
	v := r.int64()
	if int64(int(v)) != v {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// float reads 8 raw bits. No message has a use for NaN or ±Inf, and JSON
// could not carry them either.
func (r *wireReader) float() float64 {
	if len(r.data) < 8 {
		r.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
	r.data = r.data[8:]
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.fail("non-finite float")
		return 0
	}
	return f
}

// count reads an element count and refuses it before anything is sized
// from it: above limit, or more elements than the remaining bytes could
// hold at minSize encoded bytes each.
func (r *wireReader) count(what string, minSize, limit int) int {
	v := r.uvarint()
	if v > uint64(limit) {
		r.fail("%s: count %d exceeds %d", what, v, limit)
		return 0
	}
	if v > uint64(len(r.data)/minSize) {
		r.fail("%s: count %d exceeds the %d bytes that remain", what, v, len(r.data))
		return 0
	}
	return int(v)
}

func (r *wireReader) string() string {
	n := r.count("string", 1, maxRPCBody)
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// lastPlan is the most recently decoded plan ID. Nearly every message a
// process sees names the same plan, so plan reuses that string's storage
// when the bytes match instead of allocating a copy per message.
var lastPlan atomic.Pointer[string]

// plan reads the plan ID that leads every message.
func (r *wireReader) plan() string {
	n := r.count("plan", 1, maxRPCBody)
	b := r.data[:n]
	r.data = r.data[n:]
	if last := lastPlan.Load(); last != nil && string(b) == *last {
		return *last
	}
	s := string(b)
	lastPlan.Store(&s)
	return s
}

func (r *wireReader) strings(what string, limit int) []string {
	n := r.count(what, 1, limit)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.string()
	}
	return out
}

func appendOrdered(b []byte, terms []search.OrderedTerm) []byte {
	b = binary.AppendUvarint(b, uint64(len(terms)))
	for _, t := range terms {
		b = appendString(b, t.Term)
		b = appendFloat(b, t.Weight)
		b = appendInt(b, t.DF)
		b = appendFloat(b, t.Bound)
	}
	return b
}

func (r *wireReader) ordered(what string) []search.OrderedTerm {
	n := r.count(what, 1+8+1+8, maxRPCTerms)
	if n == 0 {
		return nil
	}
	out := make([]search.OrderedTerm, n)
	for i := range out {
		out[i] = search.OrderedTerm{Term: r.string(), Weight: r.float(), DF: r.int(), Bound: r.float()}
	}
	return out
}

func appendScorer(b []byte, p ScorerParams) []byte {
	b = appendFloat(b, p.K1)
	b = appendFloat(b, p.B)
	b = appendInt(b, p.N)
	return appendFloat(b, p.AvgLen)
}

func (r *wireReader) scorer() ScorerParams {
	return ScorerParams{K1: r.float(), B: r.float(), N: r.int(), AvgLen: r.float()}
}

func (m *SearchRequest) wireKind() byte { return kindSearchRequest }

func (m *SearchRequest) appendFields(b []byte) []byte {
	b = appendString(b, m.Plan)
	b = appendInt(b, m.K)
	b = appendOrdered(b, m.Text)
	b = appendOrdered(b, m.Node)
	b = appendScorer(b, m.TextScorer)
	b = appendScorer(b, m.NodeScorer)
	b = binary.AppendUvarint(b, uint64(m.After))
	b = binary.AppendUvarint(b, uint64(m.Before))
	b = binary.AppendUvarint(b, uint64(len(m.Entities)))
	for _, set := range m.Entities {
		b = appendStrings(b, set)
	}
	return b
}

func (m *SearchRequest) readFields(fields []byte) ([]byte, error) {
	r := wireReader{data: fields}
	m.Plan = r.plan()
	m.K = r.int()
	m.Text = r.ordered("search.text")
	m.Node = r.ordered("search.node")
	m.TextScorer = r.scorer()
	m.NodeScorer = r.scorer()
	m.After = r.int64()
	m.Before = r.int64()
	m.Entities = nil
	if n := r.count("search.entities", 1, maxEntitySets); n > 0 {
		m.Entities = make([][]string, n)
		for i := range m.Entities {
			m.Entities[i] = r.strings("search.entities", maxRPCTerms)
		}
	}
	return r.data, r.err
}

// appendHits writes hits as (position, score) pairs, positions relative to
// base.
func appendHits(b []byte, hits []search.Hit, base int) []byte {
	b = binary.AppendUvarint(b, uint64(len(hits)))
	for _, h := range hits {
		b = appendInt(b, int(h.Doc)-base)
		b = appendFloat(b, h.Score)
	}
	return b
}

// hits reads (position, score) pairs straight into search.Hit, adding base
// to every position.
func (r *wireReader) hits(what string, base int) []search.Hit {
	n := r.count(what, 1+8, maxRPCK)
	if n == 0 {
		return nil
	}
	out := make([]search.Hit, n)
	for i := range out {
		pos := r.int64()
		if pos < 0 || pos > math.MaxUint32-int64(base) {
			r.fail("%s: position %d outside the document space", what, pos)
			return nil
		}
		out[i] = search.Hit{Doc: index.DocID(int64(base) + pos), Score: r.float()}
	}
	return out
}

func (m *SearchResponse) wireKind() byte { return kindSearchResponse }

func (m *SearchResponse) appendFields(b []byte) []byte {
	b = appendString(b, m.Plan)
	b = appendHits(b, m.Text, m.Base)
	return appendHits(b, m.Node, m.Base)
}

func (m *SearchResponse) readFields(fields []byte) ([]byte, error) {
	r := wireReader{data: fields}
	m.Plan = r.plan()
	m.Text = r.hits("search response text", m.Base)
	m.Node = r.hits("search response node", m.Base)
	return r.data, r.err
}

// RPC bodies are read into, and encoded into, recycled buffers. Ownership
// is single-goroutine and explicit: whoever takes a buffer with getBuf
// either returns it with putBuf once nothing can still be reading it, or
// drops it for the collector (what a hedged request's losing attempt
// does). Decoded messages never alias a buffer.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf keeps an occasional multi-megabyte body from pinning its
// buffer in the pool; per-query messages are a few kilobytes.
const maxPooledBuf = 64 << 10

// getBuf returns an empty buffer with room for at least n bytes.
func getBuf(n int) *[]byte {
	buf := bufPool.Get().(*[]byte)
	if cap(*buf) < n {
		*buf = make([]byte, 0, n)
	}
	*buf = (*buf)[:0]
	return buf
}

func putBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledBuf {
		bufPool.Put(buf)
	}
}
