package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"newslink/internal/kg"
)

func TestEmbeddingsRoundTrip(t *testing.T) {
	g := figure1Graph()
	e := NewEmbedder(g, Options{})
	embs := []*DocEmbedding{
		e.EmbedGroups([][]string{
			{"upper dir", "swat valley", "pakistan", "taliban"},
			{"pakistan", "taliban"},
		}),
		nil, // unembeddable document
		e.EmbedGroups([][]string{{"taliban"}}),
	}
	var buf bytes.Buffer
	if err := WriteEmbeddings(&buf, embs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEmbeddings(buf.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(embs) {
		t.Fatalf("len = %d", len(got))
	}
	if got[1] != nil {
		t.Fatal("nil embedding not preserved")
	}
	for i := range embs {
		if embs[i] == nil {
			continue
		}
		a, b := embs[i], got[i]
		if !reflect.DeepEqual(a.Counts, b.Counts) {
			t.Fatalf("doc %d counts differ: %v vs %v", i, a.Counts, b.Counts)
		}
		if len(a.Subgraphs) != len(b.Subgraphs) {
			t.Fatalf("doc %d subgraph counts differ", i)
		}
		for j := range a.Subgraphs {
			sa, sb := a.Subgraphs[j], b.Subgraphs[j]
			if sa.Root != sb.Root ||
				!reflect.DeepEqual(sa.Labels, sb.Labels) ||
				!reflect.DeepEqual(sa.Dists, sb.Dists) ||
				!reflect.DeepEqual(sa.Nodes, sb.Nodes) ||
				!eqArcs(sa.Arcs, sb.Arcs) {
				t.Fatalf("doc %d subgraph %d differs:\n%+v\nvs\n%+v", i, j, sa, sb)
			}
			if len(sa.LabelArcs) != len(sb.LabelArcs) {
				t.Fatalf("doc %d subgraph %d label arc sets differ", i, j)
			}
			for k := range sa.LabelArcs {
				if !eqArcs(sa.LabelArcs[k], sb.LabelArcs[k]) {
					t.Fatalf("doc %d subgraph %d label %d arcs differ", i, j, k)
				}
			}
		}
	}
	// Behaviour after round trip: path extraction still works.
	paths := got[0].PathsBetween("taliban", "upper dir", 5)
	if len(paths) != 2 {
		t.Fatalf("paths after round trip = %d, want 2", len(paths))
	}
}

// eqArcs compares arc slices treating nil and empty as equal.
func eqArcs(a, b []PathArc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEmbeddingsSigsRoundTrip: the retired version-2 layout — the NLEMB2
// magic, the version-1 body, then one int8 signature per document — no
// longer loads, while the same body under NLEMB1 reads back and re-encodes
// to identical bytes (snapshot determinism).
func TestEmbeddingsSigsRoundTrip(t *testing.T) {
	g := figure1Graph()
	e := NewEmbedder(g, Options{})
	embs := []*DocEmbedding{
		e.EmbedGroups([][]string{{"pakistan", "taliban"}}),
		nil,
		e.EmbedGroups([][]string{{"taliban"}}),
	}
	var v1 bytes.Buffer
	if err := WriteEmbeddings(&v1, embs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEmbeddings(v1.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteEmbeddings(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), v1.Bytes()) {
		t.Fatal("re-encoded embeddings diverged from the bytes they were read from")
	}
	v2 := append([]byte("NLEMB2\n"), v1.Bytes()[len(embMagic):]...)
	for range embs {
		v2 = append(v2, 0, 0, 0x80, 0x3f, 3, 0, 1, 2, 3) // scale 1.0, dim 3, data
	}
	if _, err := ReadEmbeddings(v2, g); err == nil {
		t.Fatal("version-2 snapshot: expected a bad-magic error")
	}
}

func TestReadEmbeddingsRejectsCorruption(t *testing.T) {
	g := figure1Graph()
	e := NewEmbedder(g, Options{})
	embs := []*DocEmbedding{e.EmbedGroups([][]string{{"pakistan", "taliban"}})}
	var buf bytes.Buffer
	if err := WriteEmbeddings(&buf, embs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadEmbeddings(data[:len(data)/2], g); err == nil {
		t.Error("truncated: expected error")
	}
	for _, magic := range []string{"XLEMB1\n", "NLEMB2\n"} {
		bad := append([]byte(magic), data[len(embMagic):]...)
		if _, err := ReadEmbeddings(bad, g); err == nil {
			t.Errorf("magic %q: expected error", magic)
		}
	}
	// A graph too small for the stored node ids must be rejected.
	tb := kg.NewBuilder(2)
	a := tb.AddNode("X", kg.KindGPE, "")
	b2 := tb.AddNode("Y", kg.KindGPE, "")
	tb.AddEdgeByName(a, b2, "r", 1)
	tiny := tb.Build()
	if _, err := ReadEmbeddings(data, tiny); err == nil {
		t.Error("wrong graph: expected error")
	}
}

// checkScanMatchesDecode asserts that ScanEmbeddings accepts data exactly
// when ReadEmbeddings did (decoded, err), through a window small enough to
// refill many times, and that each record it finds decodes alone
// (ReadEmbedding) to the same encoding as the whole-image decode.
func checkScanMatchesDecode(t *testing.T, data []byte, g *kg.Graph, decoded []*DocEmbedding, err error) {
	t.Helper()
	offs, serr := ScanEmbeddings(bytes.NewReader(data), int64(len(data)), g, make([]byte, 16))
	if (serr == nil) != (err == nil) {
		t.Fatalf("scan error %v, decode error %v", serr, err)
	}
	if err != nil {
		return
	}
	if len(offs) != len(decoded)+1 || offs[len(offs)-1] != int64(len(data)) {
		t.Fatalf("scan found %d record offsets ending at %d, want %d ending at %d", len(offs), offs[len(offs)-1], len(decoded)+1, len(data))
	}
	for i, want := range decoded {
		got, err := ReadEmbedding(data[offs[i]:offs[i+1]], g)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		var a, b bytes.Buffer
		if err := WriteEmbeddings(&a, []*DocEmbedding{got}); err != nil {
			t.Fatal(err)
		}
		if err := WriteEmbeddings(&b, []*DocEmbedding{want}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("record %d decodes differently alone", i)
		}
	}
}

// TestScanEmbeddingsAgreesWithReadEmbeddings: over an image of the sample
// corpus, every truncation and every single-byte corruption is accepted or
// refused by the scan exactly as by the decoder, and the records of an
// accepted image decode alone to what the decoder built.
func TestScanEmbeddingsAgreesWithReadEmbeddings(t *testing.T) {
	g := figure1Graph()
	e := NewEmbedder(g, Options{})
	var buf bytes.Buffer
	if err := WriteEmbeddings(&buf, []*DocEmbedding{
		e.EmbedGroups([][]string{{"upper dir", "swat valley", "pakistan", "taliban"}, {"pakistan", "taliban"}}),
		nil,
		e.EmbedGroups([][]string{{"taliban"}}),
		e.EmbedGroups(nil),
	}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	check := func(b []byte) {
		got, err := ReadEmbeddings(b, g)
		checkScanMatchesDecode(t, b, g, got, err)
	}
	check(data)
	for n := range data {
		check(data[:n])
	}
	for i := range data {
		for _, v := range []byte{0, 1, 0xff, data[i] ^ 0x80} {
			bad := bytes.Clone(data)
			bad[i] = v
			check(bad)
		}
	}
	check(append(bytes.Clone(data), 0))
}

// TestEmbeddingRecordsCanonical: a record is canonical. For embedder
// output over random groups (with unembeddable documents between them),
// decoding a record with ReadEmbedding and appending the result again
// gives back the same bytes, and an image is its header followed by the
// records. recordSize, which sizes the encoder's buffer, is exact. This is what lets a merge copy records from one image into
// another: the copy equals decoding and re-encoding them.
func TestEmbeddingRecordsCanonical(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := kg.Generate(kg.DefaultConfig(seed))
		rng := rand.New(rand.NewSource(seed * 104729))
		for _, opts := range []Options{{MaxDepth: 6}, {Model: ModelTree, MaxDepth: 6}} {
			e := NewEmbedder(w.Graph, opts)
			var embs []*DocEmbedding
			image := AppendEmbeddingsHeader(nil, 0)
			for d := 0; d < 20; d++ {
				var groups [][]string
				for n := rng.Intn(4); n > 0; n-- {
					groups = append(groups, randomLabelSet(rng, w))
				}
				for _, emb := range []*DocEmbedding{e.EmbedGroups(groups), nil} {
					rec, err := AppendEmbedding(nil, emb)
					if err != nil {
						t.Fatal(err)
					}
					if emb != nil && len(rec) != recordSize(emb) {
						t.Fatalf("world %d %+v, document %d: a %d-byte record, sized as %d", seed, opts, d, len(rec), recordSize(emb))
					}
					dec, err := ReadEmbedding(rec, w.Graph)
					if err != nil {
						t.Fatal(err)
					}
					again, err := AppendEmbedding(nil, dec)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(again, rec) {
						t.Fatalf("world %d %+v, document %d: a decoded record re-encodes to %d bytes, not its %d", seed, opts, d, len(again), len(rec))
					}
					embs, image = append(embs, emb), append(image, rec...)
				}
			}
			var want bytes.Buffer
			if err := WriteEmbeddings(&want, embs); err != nil {
				t.Fatal(err)
			}
			AppendEmbeddingsHeader(image[:0], len(embs)) // the count, in place
			if !bytes.Equal(image, want.Bytes()) {
				t.Fatalf("world %d %+v: header and records differ from WriteEmbeddings", seed, opts)
			}
		}
	}
}
