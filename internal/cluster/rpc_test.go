package cluster

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"newslink/internal/search"
)

// reseal recomputes a (tampered) frame's CRC trailer, so a test reaches
// the check behind the checksum.
func reseal(frame []byte) []byte {
	body := frame[:len(frame)-4]
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.Checksum(body, castagnoli))
}

// rpcMessages returns one fresh value of every wire type, indexed by the
// selector the fuzzer mutates.
func rpcMessages() []Validator {
	return []Validator{
		&InfoResponse{},
		&AssignRequest{},
		&AssignResponse{},
		&StatsRequest{},
		&StatsResponse{},
		&SearchRequest{},
		&SearchResponse{},
		&DocsRequest{},
		&DocsResponse{},
		&ExplainRequest{},
		&ExplainResponse{},
	}
}

func TestDecodeRPCRejects(t *testing.T) {
	stats := mustMarshal(t, &StatsRequest{Plan: "p"})
	badVersion := []byte(stats)
	badVersion[3]++
	badKind := []byte(stats)
	badKind[2] = kindDocsResponse
	// One byte between the last field and the trailer, checksum valid.
	trailing := append([]byte(stats[:len(stats)-4]), 0, 0, 0, 0, 0)
	cases := []struct {
		name string
		data string
		into Validator
	}{
		{"empty", "", &StatsRequest{}},
		{"junk", "not json", &StatsRequest{}},
		{"unknown field", `{"plan":"p","query":"x","bogus":1}`, &ExplainRequest{}},
		{"trailing data", `{"plan":"p","query":"x"}{"plan":"q","query":"x"}`, &ExplainRequest{}},
		{"zero k", mustMarshal(t, &SearchRequest{Plan: "p", K: 0}), &SearchRequest{}},
		{"huge k", mustMarshal(t, &SearchRequest{Plan: "p", K: 99999}), &SearchRequest{}},
		{"negative position", mustMarshal(t, &DocsRequest{Plan: "p", Positions: []int{-1}}), &DocsRequest{}},
		{"negative doc id", `{"plan":"p","query":"x","doc_id":-2}`, &ExplainRequest{}},
		{"bad artifact id", `{"plan":"p","segments":[{"id":"../../etc"}]}`, &AssignRequest{}},
		{"JSON body on a data-plane endpoint", `{"plan":"p"}`, &StatsRequest{}},
		{"JSON search on a data-plane endpoint", `{"plan":"p","k":5}`, &SearchRequest{}},
		{"unknown version", string(reseal(badVersion)), &StatsRequest{}},
		{"another message's magic", string(reseal(badKind)), &StatsRequest{}},
		{"trailing byte", string(reseal(trailing)), &StatsRequest{}},
		{"byte after the trailer", stats + "\x00", &StatsRequest{}},
		{"missing plan", mustMarshal(t, &StatsRequest{}), &StatsRequest{}},
		{"negative df", mustMarshal(t, &SearchRequest{Plan: "p", K: 5,
			Text: []search.OrderedTerm{{Term: "t", DF: -1}}}), &SearchRequest{}},
		{"empty term", mustMarshal(t, &SearchRequest{Plan: "p", K: 5,
			Node: []search.OrderedTerm{{Term: ""}}}), &SearchRequest{}},
		{"empty entity term", mustMarshal(t, &SearchRequest{Plan: "p", K: 5,
			Entities: [][]string{{""}}}), &SearchRequest{}},
		{"too many entity sets", mustMarshal(t, &SearchRequest{Plan: "p", K: 5,
			Entities: make([][]string, maxEntitySets+1)}), &SearchRequest{}},
		{"too many terms", mustMarshal(t, &StatsRequest{Plan: "p", Text: make([]string, maxRPCTerms+1)}), &StatsRequest{}},
		{"too many positions", mustMarshal(t, &DocsRequest{Plan: "p", Positions: make([]int, maxPositions+1)}), &DocsRequest{}},
		{"no positions", mustMarshal(t, &DocsRequest{Plan: "p"}), &DocsRequest{}},
		{"too many hits", mustMarshal(t, &SearchResponse{Plan: "p", Text: make([]search.Hit, maxRPCK+1)}), &SearchResponse{}},
		{"too many documents", mustMarshal(t, &DocsResponse{Plan: "p", Docs: make([]WireDoc, maxPositions+1)}), &DocsResponse{}},
		{"negative hit position", mustMarshal(t, &SearchResponse{Plan: "p", Base: 7,
			Text: []search.Hit{{Doc: 3, Score: 1}}}), &SearchResponse{}},
	}
	for _, tc := range cases {
		if err := DecodeRPC([]byte(tc.data), tc.into); err == nil {
			t.Errorf("%s: DecodeRPC accepted %q", tc.name, tc.data)
		}
	}
	// The tampering above is what is refused, not the frame it started from.
	if err := DecodeRPC([]byte(stats), &StatsRequest{}); err != nil {
		t.Errorf("DecodeRPC refused a well-formed frame: %v", err)
	}
	if err := DecodeRPC(bytes.Repeat([]byte(" "), maxRPCBody+1), &StatsRequest{}); err == nil {
		t.Error("DecodeRPC accepted an oversized body")
	}
	if err := DecodeRPC(bytes.Repeat([]byte(" "), maxRPCBody+1), &ExplainRequest{}); err == nil {
		t.Error("DecodeRPC accepted an oversized control-plane body")
	}
}

func TestValidArtifactNames(t *testing.T) {
	id := strings.Repeat("ab", 8)
	for _, good := range []string{"seg-" + id + ".text.idx", "seg-" + id + ".node.idx", "seg-" + id + ".emb.bin"} {
		if !validArtifactName(good) {
			t.Errorf("rejected valid artifact name %q", good)
		}
	}
	for _, bad := range []string{
		"", "seg-" + id, "seg-" + id + ".text.IDX", "seg-../x.text.idx",
		"seg-" + strings.ToUpper(id) + ".text.idx", "seg-" + id + ".wal", "manifest.json",
		"seg-" + id[:15] + ".text.idx", "/etc/passwd", "seg-" + id + ".text.idx/..",
	} {
		if validArtifactName(bad) {
			t.Errorf("accepted invalid artifact name %q", bad)
		}
	}
}

// FuzzClusterRPCDecode drives DecodeRPC — the boundary every byte from
// the network crosses — over all wire types: it must never panic, whatever
// it accepts must itself validate (the handler can rely on it), and an
// accepted frame must be the one encoding of its message.
func FuzzClusterRPCDecode(f *testing.F) {
	seeds := []any{
		&InfoResponse{ID: "w0", Plan: "abcd", Artifacts: []string{"seg-0123456789abcdef.text.idx"}},
		&AssignRequest{Plan: "abcd", Segments: nil, FetchFrom: "http://peer"},
		&AssignResponse{Plan: "abcd", Fetched: 2, ShardStats: ShardStats{NumDocs: 10, LiveDocs: 9}},
		&StatsRequest{Plan: "abcd", Text: []string{"border"}, Node: []string{"n12"}},
		&StatsResponse{Plan: "abcd", Text: map[string]search.TermSummary{"border": {DF: 3, MaxTF: 2}}},
		&SearchRequest{Plan: "abcd", K: 10, Text: []search.OrderedTerm{{Term: "border", Weight: 1, DF: 3, Bound: 2.5}},
			Entities: [][]string{{"n12"}, {}}},
		&SearchResponse{Plan: "abcd", Text: []search.Hit{{Doc: 3, Score: 1.5}}},
		&DocsRequest{Plan: "abcd", Positions: []int{0, 1}, Terms: []string{"border"}},
		&DocsResponse{Plan: "abcd", Docs: []WireDoc{{ID: 1, Title: "t"}}},
		&ExplainRequest{Plan: "abcd", Query: "q", DocID: 1, MaxPaths: 3},
		&ExplainResponse{Plan: "abcd"},
	}
	for i, s := range seeds {
		f.Add(i, []byte(mustMarshal(f, s)))
	}
	f.Add(0, []byte(`{"unknown":true}`))
	f.Add(5, []byte(`{"plan":"p","k":-1}`))
	f.Add(5, []byte(mustMarshal(f, &SearchRequest{Plan: "p", K: -1})))
	f.Fuzz(func(t *testing.T, which int, data []byte) {
		msgs := rpcMessages()
		if which < 0 {
			which = -which
		}
		v := msgs[which%len(msgs)]
		if err := DecodeRPC(data, v); err == nil {
			if verr := v.Validate(); verr != nil {
				t.Fatalf("DecodeRPC accepted a message that fails Validate: %v\ninput: %q", verr, data)
			}
			if m, ok := v.(wireMessage); ok {
				if again := appendFrame(nil, m); !bytes.Equal(again, data) {
					t.Fatalf("accepted frame is not canonical\ninput:      %q\nre-encoded: %q", data, again)
				}
			}
		}
	})
}
