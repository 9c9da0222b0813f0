package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"newslink"
	"newslink/internal/index"
	"newslink/internal/search"
)

// wireGen draws random data-plane messages. Empty lists are nil — the one
// form the decoder produces.
type wireGen struct{ *rand.Rand }

func (g wireGen) str() string {
	const alphabet = "abcxyz019 _-é世\x00\xff"
	b := make([]byte, g.Intn(12))
	for i := range b {
		b[i] = alphabet[g.Intn(len(alphabet))]
	}
	return string(b)
}

func (g wireGen) strs(maxLen int) []string {
	n := g.Intn(maxLen + 1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = g.str()
	}
	return out
}

// float draws from the whole finite bit space, not just "nice" values.
func (g wireGen) float() float64 {
	for {
		if f := math.Float64frombits(g.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func (g wireGen) ordered() []search.OrderedTerm {
	n := g.Intn(6)
	if n == 0 {
		return nil
	}
	out := make([]search.OrderedTerm, n)
	for i := range out {
		out[i] = search.OrderedTerm{Term: "t" + g.str(), Weight: g.float(), DF: g.Intn(1 << 30), Bound: g.float()}
	}
	return out
}

func (g wireGen) scorer() ScorerParams {
	return ScorerParams{K1: g.float(), B: g.float(), N: g.Intn(1 << 40), AvgLen: g.float()}
}

func (g wireGen) hits() []search.Hit {
	n := g.Intn(40)
	if n == 0 {
		return nil
	}
	out := make([]search.Hit, n)
	for i := range out {
		out[i] = search.Hit{Doc: index.DocID(g.Uint32()), Score: g.float()}
	}
	slices.SortFunc(out, search.RankOrder) // a valid response's lists are ranked
	return out
}

// message draws one valid message of the given kind and a fresh value to
// decode it into.
func (g wireGen) message(kind int) (msg, into wireMessage) {
	plan := "p" + g.str()
	switch kind {
	case 0:
		m := &SearchRequest{Plan: plan, K: 1 + g.Intn(maxRPCK), Text: g.ordered(), Node: g.ordered(),
			TextScorer: g.scorer(), NodeScorer: g.scorer(), After: g.Int63() - g.Int63(), Before: g.Int63()}
		if n := g.Intn(4); n > 0 {
			m.Entities = make([][]string, n)
			for i := range m.Entities {
				for _, s := range g.strs(3) {
					m.Entities[i] = append(m.Entities[i], "n"+s)
				}
			}
		}
		return m, &SearchRequest{}
	default:
		return &SearchResponse{Plan: plan, Text: g.hits(), Node: g.hits()}, &SearchResponse{}
	}
}

// TestWireRoundTrip is the codec's defining property, over random messages
// of both kinds: decoding an encoding gives the message back, and encoding
// a decoding gives the bytes back — one canonical form.
func TestWireRoundTrip(t *testing.T) {
	g := wireGen{rand.New(rand.NewSource(22))}
	for i := 0; i < 3000; i++ {
		msg, into := g.message(i % 2)
		frame := appendFrame(nil, msg)
		if err := DecodeRPC(frame, into); err != nil {
			t.Fatalf("message %d (%T) does not decode: %v\n%+v", i, msg, err, msg)
		}
		if !reflect.DeepEqual(into, msg) {
			t.Fatalf("message %d changed across the wire\nsent: %+v\ngot:  %+v", i, msg, into)
		}
		if again := appendFrame(nil, into); !bytes.Equal(again, frame) {
			t.Fatalf("message %d (%T) re-encodes differently", i, msg)
		}
	}
}

// TestWireRebase: the router decodes hits with the slot's base and gets
// global positions; re-encoding under the same base gives the bytes back.
func TestWireRebase(t *testing.T) {
	local := &SearchResponse{Plan: "p", Text: []search.Hit{{Doc: 0, Score: 2}, {Doc: 41, Score: 1}}, Node: []search.Hit{{Doc: 7, Score: 3}}}
	frame := appendFrame(nil, local)
	global := &SearchResponse{Base: 1000}
	if err := DecodeRPC(frame, global); err != nil {
		t.Fatal(err)
	}
	want := &SearchResponse{Plan: "p", Base: 1000,
		Text: []search.Hit{{Doc: 1000, Score: 2}, {Doc: 1041, Score: 1}}, Node: []search.Hit{{Doc: 1007, Score: 3}}}
	if !reflect.DeepEqual(global, want) {
		t.Fatalf("rebased decode = %+v, want %+v", global, want)
	}
	if !bytes.Equal(appendFrame(nil, global), frame) {
		t.Fatal("re-encoding under the same base changed the frame")
	}
	// A position the base pushes past the document space is refused.
	far := appendFrame(nil, &SearchResponse{Plan: "p", Text: []search.Hit{{Doc: math.MaxUint32, Score: 1}}})
	if err := DecodeRPC(far, &SearchResponse{Base: 1}); !errors.Is(err, errDecode) {
		t.Fatalf("position past the document space: err = %v, want errDecode", err)
	}
}

// realQuery evaluates one query over the fixture snapshot the way the
// router and a worker do between them, returning the floats a real
// exchange carries: scorer parameters, ordered terms with their weights and
// bounds, and the scored hits.
func realQuery(t *testing.T) (ScorerParams, []search.OrderedTerm, []search.Hit) {
	t.Helper()
	dir, g := buildSnapshot(t)
	e, err := newslink.Load(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	terms, _, err := e.AnalyzeQuery(context.Background(), "clashes near the border as ceasefire talks resume")
	if err != nil {
		t.Fatal(err)
	}
	text, _, err := e.Sources()
	if err != nil {
		t.Fatal(err)
	}
	q := search.NewQuery(terms)
	scorer := search.NewBM25(text)
	ordered, _ := search.OrderTerms(text, scorer, q)
	hits, _, err := search.TopKBlockMaxOrderedStats(context.Background(), text, scorer, ordered, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(ordered) == 0 || len(hits) == 0 {
		t.Fatalf("fixture query matched nothing (%d terms, %d hits)", len(ordered), len(hits))
	}
	return scorerParams(scorer), ordered, hits
}

// TestWireFloatExactness sends awkward and real float64s through a full
// SearchRequest → SearchResponse exchange and compares bit patterns: the
// exactness argument of the cluster tier (worker-side scoring is bitwise
// the single process's) holds because bits are what travels.
func TestWireFloatExactness(t *testing.T) {
	params, ordered, hits := realQuery(t)
	awkward := []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		0.1 + 0.2, 1.0 / 3, math.Pi, 1e-320, 4503599627370497.5}
	var values []float64
	values = append(values, awkward...)
	values = append(values, params.K1, params.B, params.AvgLen)
	for _, ot := range ordered {
		values = append(values, ot.Weight, ot.Bound)
	}
	for _, h := range hits {
		values = append(values, h.Score)
	}

	req := &SearchRequest{Plan: "p", K: 10, NodeScorer: params}
	resp := &SearchResponse{Plan: "p"}
	for i, f := range values {
		req.Text = append(req.Text, search.OrderedTerm{Term: fmt.Sprint("t", i), Weight: f, DF: i, Bound: f})
		resp.Text = append(resp.Text, search.Hit{Doc: index.DocID(i), Score: f})
	}
	req.TextScorer = ScorerParams{K1: awkward[0], B: awkward[1], N: 1, AvgLen: awkward[2]}
	slices.SortFunc(resp.Text, search.RankOrder) // a response's hit lists are ranked

	var gotReq SearchRequest
	if err := DecodeRPC(appendFrame(nil, req), &gotReq); err != nil {
		t.Fatal(err)
	}
	var gotResp SearchResponse
	if err := DecodeRPC(appendFrame(nil, resp), &gotResp); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %x (%v) arrived as %x (%v)", what, math.Float64bits(want), want, math.Float64bits(got), got)
		}
	}
	for i, f := range values {
		same("weight", gotReq.Text[i].Weight, f)
		same("bound", gotReq.Text[i].Bound, f)
		same("score", gotResp.Text[i].Score, resp.Text[i].Score)
		if gotResp.Text[i].Doc != resp.Text[i].Doc {
			t.Errorf("hit %d: doc %d arrived as %d", i, resp.Text[i].Doc, gotResp.Text[i].Doc)
		}
	}
	same("text k1", gotReq.TextScorer.K1, awkward[0])
	same("text b", gotReq.TextScorer.B, awkward[1])
	same("text avg_len", gotReq.TextScorer.AvgLen, awkward[2])
	same("node k1", gotReq.NodeScorer.K1, params.K1)
	same("node b", gotReq.NodeScorer.B, params.B)
	same("node avg_len", gotReq.NodeScorer.AvgLen, params.AvgLen)

	// No message has a use for a non-finite float; a score that is one is a
	// broken shard, not a ranking.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		frame := appendFrame(nil, &SearchResponse{Plan: "p", Node: []search.Hit{{Doc: 1, Score: bad}}})
		if err := DecodeRPC(frame, &SearchResponse{}); !errors.Is(err, errDecode) {
			t.Errorf("score %v: err = %v, want errDecode", bad, err)
		}
		frame = appendFrame(nil, &SearchRequest{Plan: "p", K: 1, TextScorer: ScorerParams{AvgLen: bad}})
		if err := DecodeRPC(frame, &SearchRequest{}); !errors.Is(err, errDecode) {
			t.Errorf("avg_len %v: err = %v, want errDecode", bad, err)
		}
	}
}

// TestWireCorruptionRejected: every single-bit flip, every whole-byte flip
// and every proper prefix of an encoded message is a decode error — for a
// response the router's "shard failure" — never a different, plausible
// message.
func TestWireCorruptionRejected(t *testing.T) {
	params, ordered, hits := realQuery(t)
	messages := []struct {
		msg   wireMessage
		fresh func() wireMessage
	}{
		{&SearchResponse{Plan: "0123456789abcdef", Text: hits, Node: hits[:3]}, func() wireMessage { return &SearchResponse{} }},
		{&SearchRequest{Plan: "0123456789abcdef", K: 20, Text: ordered, TextScorer: params,
			Before: 1700000000, Entities: [][]string{{"n12", "3f"}}}, func() wireMessage { return &SearchRequest{} }},
	}
	for _, m := range messages {
		frame := appendFrame(nil, m.msg)
		if err := DecodeRPC(frame, m.fresh()); err != nil {
			t.Fatalf("%T: pristine frame refused: %v", m.msg, err)
		}
		for i := range frame {
			for _, mask := range []byte{1, 2, 4, 8, 16, 32, 64, 128, 0xff} {
				bad := bytes.Clone(frame)
				bad[i] ^= mask
				if err := DecodeRPC(bad, m.fresh()); !errors.Is(err, errDecode) {
					t.Fatalf("%T: byte %d ^ %#x: err = %v, want errDecode", m.msg, i, mask, err)
				}
			}
		}
		for n := 0; n < len(frame); n++ {
			if err := DecodeRPC(frame[:n], m.fresh()); !errors.Is(err, errDecode) {
				t.Fatalf("%T: %d-byte prefix of %d: err = %v, want errDecode", m.msg, n, len(frame), err)
			}
		}
	}
}

// TestWireLengthBomb: a 20-byte body announcing 2^40 elements is refused
// before the count sizes anything. The frames carry valid checksums, so it
// is the count check that refuses them, and refusing costs what building
// the error costs: a handful of allocations, whatever number the body
// announces.
func TestWireLengthBomb(t *testing.T) {
	bomb := func(kind byte, count uint64, beforeCount ...byte) []byte {
		b := []byte{'N', 'L', kind, wireVersion, 1, 'p'} // magic, plan "p"
		b = append(b, beforeCount...)
		b = binary.AppendUvarint(b, count)
		for len(b) < 16 {
			b = append(b, 0)
		}
		return reseal(append(b, 0, 0, 0, 0))
	}
	cases := []struct {
		name   string
		kind   byte
		before []byte // fields between the plan and the count
		fresh  func() Validator
	}{
		{"hits", kindSearchResponse, nil, func() Validator { return &SearchResponse{} }},
		{"node hits", kindSearchResponse, []byte{0}, func() Validator { return &SearchResponse{} }},
		{"ordered terms", kindSearchRequest, []byte{5}, func() Validator { return &SearchRequest{} }},
		{"node terms", kindSearchRequest, []byte{5, 0}, func() Validator { return &SearchRequest{} }},
		{"term length", kindSearchRequest, []byte{5, 1}, func() Validator { return &SearchRequest{} }},
	}
	for _, tc := range cases {
		refuse := func(count uint64) float64 {
			frame, into := bomb(tc.kind, count, tc.before...), tc.fresh()
			if len(frame) != 20 {
				t.Fatalf("%s: bomb is %d bytes, want 20", tc.name, len(frame))
			}
			if err := DecodeRPC(frame, into); !errors.Is(err, errDecode) {
				t.Fatalf("%s announcing %d: err = %v, want errDecode", tc.name, count, err)
			}
			return testing.AllocsPerRun(20, func() { _ = DecodeRPC(frame, into) })
		}
		// (Not compared for equality: fmt's pooled printers make the error's
		// own cost wobble by an allocation or two under the race detector.)
		if huge, large := refuse(1<<40), refuse(1<<20); huge > 16 || large > 16 {
			t.Errorf("%s: refusing 2^40 took %.0f allocations, 2^20 took %.0f; want a handful", tc.name, huge, large)
		}
	}
	// Within the cap but beyond the bytes present: the remaining-bytes
	// check, not the cap, is what refuses it.
	b := []byte{'N', 'L', kindSearchResponse, wireVersion, 1, 'p'}
	b = binary.AppendUvarint(b, maxRPCK)
	short := reseal(append(b, 0, 0, 0, 0, 0, 0, 0, 0))
	if err := DecodeRPC(short, &SearchResponse{}); !errors.Is(err, errDecode) {
		t.Fatalf("count beyond the remaining bytes: err = %v, want errDecode", err)
	}
}

// BenchmarkWireCodec pins the data plane's cost in counts at the default
// candidate pool (100 hits per leg): encoding into a reused buffer
// allocates nothing, and a response decodes in two allocations — the two
// hit lists (the plan ID is interned). A reflection-based codec cannot
// meet either.
func BenchmarkWireCodec(b *testing.B) {
	g := wireGen{rand.New(rand.NewSource(1))}
	resp := &SearchResponse{Plan: "0123456789abcdef", Text: make([]search.Hit, 100), Node: make([]search.Hit, 100)}
	for i := range resp.Text {
		resp.Text[i] = search.Hit{Doc: index.DocID(g.Intn(10000)), Score: 20 * g.Float64()}
		resp.Node[i] = search.Hit{Doc: index.DocID(g.Intn(10000)), Score: 20 * g.Float64()}
	}
	slices.SortFunc(resp.Text, search.RankOrder) // a valid response's lists are ranked
	slices.SortFunc(resp.Node, search.RankOrder)
	req := &SearchRequest{Plan: "0123456789abcdef", K: 100,
		TextScorer: ScorerParams{K1: 1.2, B: 0.75, N: 10000, AvgLen: 212.5}, NodeScorer: scorerParams(search.NodeBM25(10000, 31.25))}
	for i := 0; i < 6; i++ {
		req.Text = append(req.Text, search.OrderedTerm{Term: fmt.Sprint("term", i), Weight: 1, DF: 40 * (i + 1), Bound: 9.5 - float64(i)})
		req.Node = append(req.Node, search.OrderedTerm{Term: fmt.Sprint("n", 1000+i), Weight: 0.25, DF: 7 * (i + 1), Bound: 4.5 - float64(i)/2})
	}
	respFrame, reqFrame := appendFrame(nil, resp), appendFrame(nil, req)

	b.Run("EncodeSearchResponse", func(b *testing.B) {
		buf := make([]byte, 0, len(respFrame))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendFrame(buf[:0], resp)
		}
	})
	b.Run("DecodeSearchResponse", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		var out SearchResponse
		for i := 0; i < b.N; i++ {
			out = SearchResponse{Base: 5000}
			if err := DecodeRPC(respFrame, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EncodeSearchRequest", func(b *testing.B) {
		buf := make([]byte, 0, len(reqFrame))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendFrame(buf[:0], req)
		}
	})
	b.Run("DecodeSearchRequest", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		var out SearchRequest
		for i := 0; i < b.N; i++ {
			out = SearchRequest{}
			if err := DecodeRPC(reqFrame, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
