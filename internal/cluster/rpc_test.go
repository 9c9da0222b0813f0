package cluster

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"newslink"
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
		&AssignRequest{},
		&AssignResponse{},
		&SearchRequest{},
		&SearchResponse{},
	}
}

func TestDecodeRPCRejects(t *testing.T) {
	search5 := mustMarshal(t, &SearchRequest{Plan: "p", K: 5})
	rekind := func(kind byte) string {
		frame := []byte(search5)
		frame[2] = kind
		return string(reseal(frame))
	}
	badVersion := []byte(search5)
	badVersion[3]++
	// One byte between the last field and the trailer, checksum valid.
	trailing := append([]byte(search5[:len(search5)-4]), 0, 0, 0, 0, 0)
	cases := []struct {
		name string
		data string
		into Validator
	}{
		{"empty", "", &SearchRequest{}},
		{"junk", "not json", &AssignRequest{}},
		{"unknown field", `{"plan":"p","bogus":1}`, &AssignRequest{}},
		{"trailing data", `{"plan":"p"}{"plan":"q"}`, &AssignResponse{}},
		{"zero k", mustMarshal(t, &SearchRequest{Plan: "p", K: 0}), &SearchRequest{}},
		{"huge k", mustMarshal(t, &SearchRequest{Plan: "p", K: 99999}), &SearchRequest{}},
		{"retired explain request", `{"plan":"p","query":"x","doc_id":1,"max_paths":3}`, &AssignRequest{}},
		{"bad artifact id", `{"plan":"p","segments":[{"id":"../../etc"}]}`, &AssignRequest{}},
		{"JSON body on a data-plane endpoint", `{"plan":"p","positions":[0]}`, &SearchResponse{}},
		{"JSON search on a data-plane endpoint", `{"plan":"p","k":5}`, &SearchRequest{}},
		{"unknown version", string(reseal(badVersion)), &SearchRequest{}},
		{"another message's magic", rekind(kindSearchResponse), &SearchRequest{}},
		// Kinds 1 and 2 carried the retired statistics exchange, kinds 5 and
		// 6 the retired document gather: reserved, and refused whatever they
		// are decoded into.
		{"reserved kind 1", rekind(1), &SearchRequest{}},
		{"reserved kind 2", rekind(2), &SearchRequest{}},
		{"reserved kind 2 as a response", rekind(2), &SearchResponse{}},
		{"reserved kind 5", rekind(5), &SearchRequest{}},
		{"reserved kind 5 as a response", rekind(5), &SearchResponse{}},
		{"reserved kind 6", rekind(6), &SearchRequest{}},
		{"reserved kind 6 as a response", rekind(6), &SearchResponse{}},
		{"trailing byte", string(reseal(trailing)), &SearchRequest{}},
		{"byte after the trailer", search5 + "\x00", &SearchRequest{}},
		{"missing plan", mustMarshal(t, &SearchRequest{K: 5}), &SearchRequest{}},
		{"negative df", mustMarshal(t, &SearchRequest{Plan: "p", K: 5,
			Text: []search.OrderedTerm{{Term: "t", DF: -1}}}), &SearchRequest{}},
		{"empty term", mustMarshal(t, &SearchRequest{Plan: "p", K: 5,
			Node: []search.OrderedTerm{{Term: ""}}}), &SearchRequest{}},
		{"empty entity term", mustMarshal(t, &SearchRequest{Plan: "p", K: 5,
			Entities: [][]string{{""}}}), &SearchRequest{}},
		{"too many entity sets", mustMarshal(t, &SearchRequest{Plan: "p", K: 5,
			Entities: make([][]string, maxEntitySets+1)}), &SearchRequest{}},
		{"too many entity terms", mustMarshal(t, &SearchRequest{Plan: "p", K: 5,
			Entities: [][]string{make([]string, maxRPCTerms+1)}}), &SearchRequest{}},
		{"too many ordered terms", mustMarshal(t, &SearchRequest{Plan: "p", K: 5,
			Text: make([]search.OrderedTerm, maxRPCTerms+1)}), &SearchRequest{}},
		{"too many hits", mustMarshal(t, &SearchResponse{Plan: "p", Text: make([]search.Hit, maxRPCK+1)}), &SearchResponse{}},
		{"negative hit position", mustMarshal(t, &SearchResponse{Plan: "p", Base: 7,
			Text: []search.Hit{{Doc: 3, Score: 1}}}), &SearchResponse{}},
		// The router merges each list as ranked (search.MergeTopK).
		{"hits out of score order", mustMarshal(t, &SearchResponse{Plan: "p",
			Node: []search.Hit{{Doc: 3, Score: 1}, {Doc: 4, Score: 2}}}), &SearchResponse{}},
		{"tied hits out of doc order", mustMarshal(t, &SearchResponse{Plan: "p",
			Text: []search.Hit{{Doc: 4, Score: 1}, {Doc: 3, Score: 1}}}), &SearchResponse{}},
	}
	for _, tc := range cases {
		if err := DecodeRPC([]byte(tc.data), tc.into); err == nil {
			t.Errorf("%s: DecodeRPC accepted %q", tc.name, tc.data)
		}
	}
	// The tampering above is what is refused, not the frame it started from.
	if err := DecodeRPC([]byte(search5), &SearchRequest{}); err != nil {
		t.Errorf("DecodeRPC refused a well-formed frame: %v", err)
	}
	if err := DecodeRPC(bytes.Repeat([]byte(" "), maxRPCBody+1), &SearchRequest{}); err == nil {
		t.Error("DecodeRPC accepted an oversized body")
	}
	if err := DecodeRPC(bytes.Repeat([]byte(" "), maxRPCBody+1), &AssignRequest{}); err == nil {
		t.Error("DecodeRPC accepted an oversized control-plane body")
	}
}

func TestValidArtifactNames(t *testing.T) {
	id := strings.Repeat("ab", 8)
	for _, good := range []string{"seg-" + id + ".text.idx", "seg-" + id + ".node.idx", "seg-" + id + ".docs.bin"} {
		if !validArtifactName(good) {
			t.Errorf("rejected valid artifact name %q", good)
		}
	}
	for _, bad := range []string{
		"", "seg-" + id, "seg-" + id + ".text.IDX", "seg-../x.text.idx",
		"seg-" + strings.ToUpper(id) + ".text.idx", "seg-" + id + ".wal", "manifest.json",
		"seg-" + id[:15] + ".text.idx", "/etc/passwd", "seg-" + id + ".text.idx/..",
		"seg-" + id + ".emb.bin", // the embeddings artifact of snapshot version 6
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
		&AssignRequest{Plan: "abcd", Segments: nil, FetchFrom: "http://peer"},
		&AssignResponse{Plan: "abcd", Fetched: 2},
		&SearchRequest{Plan: "abcd", K: 10, Text: []search.OrderedTerm{{Term: "border", Weight: 1, DF: 3, Bound: 2.5}},
			Entities: [][]string{{"n12"}, {}}},
		&SearchResponse{Plan: "abcd", Text: []search.Hit{{Doc: 3, Score: 1.5}}},
		// Index 4 selects rpcMessages()[0] again: a complete assignment.
		&AssignRequest{Plan: "abcd", Base: 7, Segments: []newslink.ManifestSegment{{ID: "0123456789abcdef"}},
			Checksums: map[string]string{"seg-0123456789abcdef.text.idx": "0badf00d"}, FetchFrom: "http://router"},
	}
	for i, s := range seeds {
		f.Add(i, []byte(mustMarshal(f, s)))
	}
	// The retired document gather and explain forwarding: well-formed
	// frames of the reserved kinds 5 and 6, and the old JSON explain
	// messages, aimed at the messages still on the wire.
	f.Add(2, reseal([]byte("NL\x05\x01\x04abcd\x02\x00\x01\x01\x06border\x00\x00\x00\x00")))
	f.Add(3, reseal([]byte("NL\x06\x01\x04abcd\x01\x01\x01t\x00\x00\x00\x00\x00")))
	f.Add(0, []byte(`{"plan":"abcd","query":"q","doc_id":1,"max_paths":3}`))
	f.Add(1, []byte(`{"plan":"abcd","explanation":{"SharedEntities":null,"Paths":null}}`))
	f.Add(0, []byte(`{"unknown":true}`))
	f.Add(2, []byte(`{"plan":"p","k":-1}`))
	f.Add(2, []byte(mustMarshal(f, &SearchRequest{Plan: "p", K: -1})))
	// The retired statistics exchange: well-formed frames of the reserved
	// kinds 1 and 2, aimed at the messages that took their place.
	f.Add(2, reseal([]byte("NL\x01\x01\x04abcd\x01\x06border\x01\x03n12\x00\x00\x00\x00")))
	f.Add(3, reseal([]byte("NL\x02\x01\x04abcd\x00\x00\x00\x00\x00\x00")))
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
