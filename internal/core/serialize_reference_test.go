package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"newslink/internal/corpus"
	"newslink/internal/kg"
	"newslink/internal/nlp"
)

// The reflection-driven NLEMB1 codec the append/byte-slice one replaced,
// kept as the executable specification of the format: the production
// encoder must reproduce its bytes, and the production decoder its
// embeddings, on real embeddings and on fuzzed input.

func writeEmbeddingsReference(w io.Writer, embs []*DocEmbedding) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(embMagic); err != nil {
		return err
	}
	le := func(data any) error { return binary.Write(bw, binary.LittleEndian, data) }
	if err := le(uint32(len(embs))); err != nil {
		return err
	}
	for _, e := range embs {
		if e == nil {
			if err := le(uint8(0)); err != nil {
				return err
			}
			continue
		}
		if err := le(uint8(1)); err != nil {
			return err
		}
		if err := le(uint32(len(e.Subgraphs))); err != nil {
			return err
		}
		for _, sg := range e.Subgraphs {
			if err := writeSubgraphReference(bw, sg); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeSubgraphReference(w io.Writer, sg *Subgraph) error {
	le := func(data any) error { return binary.Write(w, binary.LittleEndian, data) }
	if err := le(uint32(sg.Root)); err != nil {
		return err
	}
	if len(sg.Labels) != len(sg.Dists) || len(sg.Labels) != len(sg.LabelArcs) {
		return fmt.Errorf("core: inconsistent subgraph: %d labels, %d dists, %d arc sets",
			len(sg.Labels), len(sg.Dists), len(sg.LabelArcs))
	}
	if err := le(uint32(len(sg.Labels))); err != nil {
		return err
	}
	for i, l := range sg.Labels {
		if err := le(uint32(len(l))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, l); err != nil {
			return err
		}
		if err := le(sg.Dists[i]); err != nil {
			return err
		}
	}
	if err := le(uint32(len(sg.Nodes))); err != nil {
		return err
	}
	for _, n := range sg.Nodes {
		if err := le(uint32(n)); err != nil {
			return err
		}
	}
	if err := writeArcsReference(w, sg.Arcs); err != nil {
		return err
	}
	for _, arcs := range sg.LabelArcs {
		if err := writeArcsReference(w, arcs); err != nil {
			return err
		}
	}
	return nil
}

func writeArcsReference(w io.Writer, arcs []PathArc) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(arcs))); err != nil {
		return err
	}
	for _, a := range arcs {
		rev := uint8(0)
		if a.Reverse {
			rev = 1
		}
		if err := binary.Write(w, binary.LittleEndian, struct {
			From, To uint32
			Rel      uint16
			Rev      uint8
		}{uint32(a.From), uint32(a.To), uint16(a.Rel), rev}); err != nil {
			return err
		}
	}
	return nil
}

func readEmbeddingsReference(r io.Reader, g *kg.Graph) ([]*DocEmbedding, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(embMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if string(magic) != embMagic {
		return nil, fmt.Errorf("core: bad magic %q", magic)
	}
	le := func(data any) error { return binary.Read(br, binary.LittleEndian, data) }
	var nDocs uint32
	if err := le(&nDocs); err != nil {
		return nil, err
	}
	if nDocs > 1<<28 {
		return nil, fmt.Errorf("core: implausible doc count %d", nDocs)
	}
	out := make([]*DocEmbedding, nDocs)
	for i := range out {
		var present uint8
		if err := le(&present); err != nil {
			return nil, fmt.Errorf("core: doc %d: %w", i, err)
		}
		if present == 0 {
			continue
		}
		var nSubs uint32
		if err := le(&nSubs); err != nil {
			return nil, err
		}
		if nSubs > 1<<20 {
			return nil, fmt.Errorf("core: doc %d: implausible subgraph count %d", i, nSubs)
		}
		emb := &DocEmbedding{Counts: make(map[kg.NodeID]int)}
		for s := uint32(0); s < nSubs; s++ {
			sg, err := readSubgraphReference(br, g)
			if err != nil {
				return nil, fmt.Errorf("core: doc %d subgraph %d: %w", i, s, err)
			}
			emb.Subgraphs = append(emb.Subgraphs, sg)
			for _, n := range sg.Nodes {
				emb.Counts[n]++
			}
		}
		out[i] = emb
	}
	return out, nil
}

func readSubgraphReference(r io.Reader, g *kg.Graph) (*Subgraph, error) {
	le := func(data any) error { return binary.Read(r, binary.LittleEndian, data) }
	sg := &Subgraph{}
	var root uint32
	if err := le(&root); err != nil {
		return nil, err
	}
	if int(root) >= g.NumNodes() {
		return nil, fmt.Errorf("root %d out of range", root)
	}
	sg.Root = kg.NodeID(root)
	var nLabels uint32
	if err := le(&nLabels); err != nil {
		return nil, err
	}
	if nLabels > 1<<16 {
		return nil, fmt.Errorf("implausible label count %d", nLabels)
	}
	for i := uint32(0); i < nLabels; i++ {
		var n uint32
		if err := le(&n); err != nil {
			return nil, err
		}
		if n > 1<<20 {
			return nil, fmt.Errorf("string length %d too large", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		var d float64
		if err := le(&d); err != nil {
			return nil, err
		}
		sg.Labels = append(sg.Labels, string(buf))
		sg.Dists = append(sg.Dists, d)
	}
	var nNodes uint32
	if err := le(&nNodes); err != nil {
		return nil, err
	}
	if int(nNodes) > g.NumNodes() {
		return nil, fmt.Errorf("node count %d exceeds graph size", nNodes)
	}
	for i := uint32(0); i < nNodes; i++ {
		var n uint32
		if err := le(&n); err != nil {
			return nil, err
		}
		if int(n) >= g.NumNodes() {
			return nil, fmt.Errorf("node %d out of range", n)
		}
		sg.Nodes = append(sg.Nodes, kg.NodeID(n))
	}
	arcs, err := readArcsReference(r, g)
	if err != nil {
		return nil, err
	}
	sg.Arcs = arcs
	sg.LabelArcs = make([][]PathArc, nLabels)
	for i := range sg.LabelArcs {
		if sg.LabelArcs[i], err = readArcsReference(r, g); err != nil {
			return nil, err
		}
	}
	return sg, nil
}

func readArcsReference(r io.Reader, g *kg.Graph) ([]PathArc, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if uint64(n) > uint64(g.NumEdges())*2+1 {
		return nil, fmt.Errorf("arc count %d exceeds graph size", n)
	}
	out := make([]PathArc, n)
	for i := range out {
		var raw struct {
			From, To uint32
			Rel      uint16
			Rev      uint8
		}
		if err := binary.Read(r, binary.LittleEndian, &raw); err != nil {
			return nil, err
		}
		if int(raw.From) >= g.NumNodes() || int(raw.To) >= g.NumNodes() {
			return nil, fmt.Errorf("arc endpoint out of range")
		}
		if int(raw.Rel) >= g.NumRels() {
			return nil, fmt.Errorf("relation %d out of range", raw.Rel)
		}
		out[i] = PathArc{From: kg.NodeID(raw.From), To: kg.NodeID(raw.To), Rel: kg.RelID(raw.Rel), Reverse: raw.Rev != 0}
	}
	return out, nil
}

// checkCodecMatchesReference encodes embs with both encoders and decodes
// the bytes with both decoders: the bytes must be identical and the
// decoded embeddings DeepEqual.
func checkCodecMatchesReference(t *testing.T, name string, g *kg.Graph, embs []*DocEmbedding) {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteEmbeddings(&got, embs); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := writeEmbeddingsReference(&want, embs); err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: encoder output differs from the reference (%d vs %d bytes)", name, got.Len(), want.Len())
	}
	dec, err := ReadEmbeddings(got.Bytes(), g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref, err := readEmbeddingsReference(bytes.NewReader(got.Bytes()), g)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if !reflect.DeepEqual(dec, ref) {
		t.Fatalf("%s: decoded embeddings differ from the reference decoder's", name)
	}
}

// TestEmbeddingsCodecMatchesReference runs both codecs over the embeddings
// of the identity tests' synthetic worlds (random label sets across models
// and ablations, with unembeddable documents between them) and of every
// article of the sample corpus.
func TestEmbeddingsCodecMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := kg.Generate(kg.DefaultConfig(seed))
		rng := rand.New(rand.NewSource(seed * 7919))
		for _, opts := range []Options{{MaxDepth: 6}, {Model: ModelTree, MaxDepth: 6}, {MaxDepth: 4, NoEarlyStop: true}} {
			e := NewEmbedder(w.Graph, opts)
			var embs []*DocEmbedding
			for d := 0; d < 20; d++ {
				var groups [][]string
				for n := rng.Intn(4); n > 0; n-- {
					groups = append(groups, randomLabelSet(rng, w))
				}
				embs = append(embs, e.EmbedGroups(groups), nil)
			}
			checkCodecMatchesReference(t, fmt.Sprintf("world %d %+v", seed, opts), w.Graph, embs)
		}
	}
	g, arts := corpus.Sample()
	pipe := nlp.NewPipeline(g.Index())
	e := NewEmbedder(g, Options{})
	embs := make([]*DocEmbedding, len(arts))
	for i, a := range arts {
		embs[i] = e.EmbedGroups(nlp.MaximalSets(pipe.Process(a.Text).EntityGroups()))
	}
	checkCodecMatchesReference(t, "sample corpus", g, embs)
}

// FuzzReadEmbeddings: whatever the decoder accepts, the scan accepts too,
// with records that decode alone to the same embeddings, and vice versa;
// and the reference decoder accepts it too and decodes identically — the same bytes through either
// encoder (a distance may be NaN, which DeepEqual never equates) and the
// same node counts. The decoder never panics and never sizes an
// allocation from an unchecked count.
func FuzzReadEmbeddings(f *testing.F) {
	g := figure1Graph()
	e := NewEmbedder(g, Options{})
	var seed bytes.Buffer
	if err := WriteEmbeddings(&seed, []*DocEmbedding{
		e.EmbedGroups([][]string{{"upper dir", "swat valley", "pakistan", "taliban"}, {"pakistan", "taliban"}}),
		nil,
		e.EmbedGroups([][]string{{"taliban"}}),
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(embMagic + "\x01\x00\x00\x00\x01\xff\xff\xff\x7f"))
	f.Add([]byte(embMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadEmbeddings(data, g)
		checkScanMatchesDecode(t, data, g, got, err)
		if err != nil {
			// The reference is not asked: it sizes allocations from counts
			// it has not checked against the input.
			return
		}
		want, err := readEmbeddingsReference(bytes.NewReader(data), g)
		if err != nil {
			t.Fatalf("decoder accepted what the reference refuses (%v)", err)
		}
		var enc, ref, refOfRef bytes.Buffer
		if err := WriteEmbeddings(&enc, got); err != nil {
			t.Fatal(err)
		}
		if err := writeEmbeddingsReference(&ref, got); err != nil {
			t.Fatal(err)
		}
		if err := writeEmbeddingsReference(&refOfRef, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), ref.Bytes()) || !bytes.Equal(ref.Bytes(), refOfRef.Bytes()) {
			t.Fatal("decoders or encoders disagree on an accepted image")
		}
		for i := range got {
			if (got[i] == nil) != (want[i] == nil) || got[i] != nil && !reflect.DeepEqual(got[i].Counts, want[i].Counts) {
				t.Fatalf("document %d decodes differently", i)
			}
		}
	})
}
