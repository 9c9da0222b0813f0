package kg

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func buildTiny(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4)
	a := b.AddNode("Alpha", KindGPE, "a place")
	c := b.AddNode("Beta", KindGPE, "another place")
	d := b.AddNode("Gamma", KindPerson, "a person")
	e := b.AddNode("Beta", KindOrg, "an org sharing the Beta label")
	b.AddEdgeByName(a, c, "located in", 1)
	b.AddEdgeByName(d, c, "citizen of", 2)
	b.AddEdgeByName(d, e, "member of", 1)
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := buildTiny(t)
	if got, want := g.NumNodes(), 4; got != want {
		t.Fatalf("NumNodes = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), 3; got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}
	if got := g.Node(0).Label; got != "Alpha" {
		t.Fatalf("Node(0).Label = %q, want Alpha", got)
	}
	if g.NumRels() != 3 {
		t.Fatalf("NumRels = %d, want 3", g.NumRels())
	}
}

func TestBidirectedArcs(t *testing.T) {
	g := buildTiny(t)
	// Node 1 (Beta GPE) should see the reversed arc from Alpha and from Gamma.
	var fwd, rev int
	for k := range g.Degree(1) {
		if g.Arc(1, k).Reverse {
			rev++
		} else {
			fwd++
		}
	}
	if fwd != 0 || rev != 2 {
		t.Fatalf("Beta arcs fwd=%d rev=%d, want 0 fwd 2 rev", fwd, rev)
	}
	// Total arc count must be exactly twice the edge count.
	total := 0
	for i := 0; i < g.NumNodes(); i++ {
		total += g.Degree(NodeID(i))
	}
	if total != 2*g.NumEdges() {
		t.Fatalf("total arcs = %d, want %d", total, 2*g.NumEdges())
	}
}

func TestLabelIndexExactAndAmbiguous(t *testing.T) {
	g := buildTiny(t)
	if got := g.Lookup("Alpha"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Lookup(Alpha) = %v", got)
	}
	if got := g.Lookup("beta"); len(got) != 2 {
		t.Fatalf("Lookup(beta) = %v, want 2 nodes (ambiguous label)", got)
	}
	if got := g.Lookup("  BETA  "); len(got) != 2 {
		t.Fatalf("Lookup with whitespace/case = %v, want 2 nodes", got)
	}
	if g.Lookup("Nope") != nil {
		t.Fatal("Lookup(Nope) should be nil")
	}
	if !g.Index().Contains("gamma") {
		t.Fatal("Contains(gamma) = false")
	}
	if g.Index().Size() != 3 {
		t.Fatalf("index Size = %d, want 3 distinct labels", g.Index().Size())
	}
}

// TestLookupAllocatesNothing: probing the index with an ASCII label folds
// it on the stack — the NER pipeline probes every candidate span — and
// Fold of an already-folded label returns it as is.
func TestLookupAllocatesNothing(t *testing.T) {
	idx := buildTiny(t).Index()
	for _, probe := range []string{"Alpha", "  BETA  ", "Nope", "gamma", ""} {
		if n := testing.AllocsPerRun(100, func() { idx.Lookup(probe); idx.Contains(probe) }); n != 0 {
			t.Errorf("Lookup+Contains(%q): %v allocs, want 0", probe, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { Fold("beta gamma") }); n != 0 {
		t.Errorf("Fold of a folded label: %v allocs, want 0", n)
	}
}

func TestFold(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Upper  Dir", "upper dir"},
		{" Swat Valley ", "swat valley"},
		{"TALIBAN", "taliban"},
		{"", ""},
	}
	for _, c := range cases {
		if got := Fold(c.in); got != c.want {
			t.Errorf("Fold(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestAddEdgePanics(t *testing.T) {
	b := NewBuilder(1)
	n := b.AddNode("X", KindGPE, "")
	mustPanic(t, "zero weight", func() { b.AddEdge(n, n, 0, 0) })
	mustPanic(t, "negative weight", func() { b.AddEdge(n, n, 0, -1) })
	mustPanic(t, "NaN weight", func() { b.AddEdge(n, n, 0, math.NaN()) })
	mustPanic(t, "+Inf weight", func() { b.AddEdge(n, n, 0, math.Inf(1)) })
	mustPanic(t, "-Inf weight", func() { b.AddEdge(n, n, 0, math.Inf(-1)) })
	mustPanic(t, "bad endpoint", func() { b.AddEdge(n, 99, 0, 1) })
}

// badWeights are edge weights that are not finite and > 0, as TSV text;
// FuzzRead seeds its corpus with them too.
var badWeights = []string{"0", "-0", "-1", "1e-400", "NaN", "nan", "Inf", "+Inf", "-Inf", "1e400"}

// TestReadRejectsBadWeights: Read answers every weight that is not finite
// and positive with an error naming the line, where it used to panic in
// AddEdge (0, negatives, underflow to 0) or accept a weight that poisons
// G*'s float-keyed bucket queue (NaN, ±Inf).
func TestReadRejectsBadWeights(t *testing.T) {
	for _, w := range badWeights {
		in := "N\t0\tgpe\tA\td\n# comment\nN\t1\tgpe\tB\td\nE\t0\tr\t1\t" + w + "\n"
		g, err := Read(strings.NewReader(in))
		if err == nil || g != nil {
			t.Errorf("weight %q: Read = %v, %v; want an error", w, g, err)
			continue
		}
		if !strings.Contains(err.Error(), "line 4:") || !strings.Contains(err.Error(), "weight") {
			t.Errorf("weight %q: error %q does not name line 4's weight", w, err)
		}
	}
	if _, err := Read(strings.NewReader("N\t0\tgpe\tA\td\nE\t0\tr\t0\t1e-300\n")); err != nil {
		t.Errorf("tiny positive weight rejected: %v", err)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestKindRoundTrip(t *testing.T) {
	for k := KindUnknown; k <= KindLanguage; k++ {
		if got := kindOf(k.String()); got != k {
			t.Errorf("kindOf(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if kindOf("bogus") != KindUnknown {
		t.Error("unknown kind name should map to KindUnknown")
	}
}

func TestTSVRoundTrip(t *testing.T) {
	g := buildTiny(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for i := 0; i < g.NumNodes(); i++ {
		if g.Node(NodeID(i)) != g2.Node(NodeID(i)) {
			t.Fatalf("node %d mismatch: %+v vs %+v", i, g.Node(NodeID(i)), g2.Node(NodeID(i)))
		}
	}
	var b1, b2 bytes.Buffer
	if err := Write(&b1, g); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, g2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("TSV round trip is not byte-stable")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"X\t0\n",
		"N\t0\tgpe\tA\n",
		"N\t5\tgpe\tA\tdesc\n",
		"N\t0\tgpe\tA\td\nE\t0\tr\t7\t1\n",
		"N\t0\tgpe\tA\td\nE\t0\tr\t0\tNaNopes\n",
	}
	for i, c := range cases {
		if _, err := Read(bytes.NewBufferString(c)); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w1 := Generate(DefaultConfig(7))
	w2 := Generate(DefaultConfig(7))
	var b1, b2 bytes.Buffer
	if err := Write(&b1, w1.Graph); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, w2.Graph); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("Generate is not deterministic for identical configs")
	}
	if len(w1.Events) != len(w2.Events) {
		t.Fatal("event catalogues differ")
	}
	w3 := Generate(DefaultConfig(8))
	var b3 bytes.Buffer
	if err := Write(&b3, w3.Graph); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatal("different seeds should produce different worlds")
	}
}

func TestGenerateStructure(t *testing.T) {
	w := Generate(DefaultConfig(42))
	s := ComputeStats(w.Graph)
	if s.Nodes < 500 {
		t.Fatalf("world too small: %d nodes", s.Nodes)
	}
	if s.Components != 1 {
		t.Fatalf("world must be connected, got %d components (largest %d of %d)",
			s.Components, s.LargestComp, s.Nodes)
	}
	if s.AmbiguousLabel == 0 {
		t.Fatal("expected some ambiguous labels")
	}
	if len(w.Events) == 0 {
		t.Fatal("no events generated")
	}
	topics := map[Topic]int{}
	for _, e := range w.Events {
		topics[e.Topic]++
		if len(e.Participants) == 0 {
			t.Fatalf("event %d has no participants", e.Node)
		}
		if e.Location == 0 || e.Country == 0 {
			t.Fatalf("event %d missing location/country", e.Node)
		}
	}
	for _, tp := range AllTopics {
		if topics[tp] == 0 {
			t.Errorf("no events for topic %s", tp)
		}
	}
	if s.KindCounts[KindPerson] == 0 || s.KindCounts[KindEvent] == 0 || s.KindCounts[KindGPE] == 0 {
		t.Fatalf("missing kinds: %v", s.KindCounts)
	}
}

func TestStatsString(t *testing.T) {
	s := ComputeStats(buildTiny(t))
	if s.Nodes != 4 || s.Edges != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Components != 1 {
		t.Fatalf("tiny graph should be connected, got %d components", s.Components)
	}
	if out := s.String(); out == "" {
		t.Fatal("empty stats string")
	}
}

// Property: for any folded label returned by the index, every node it maps
// to folds back to the same key.
func TestLabelIndexProperty(t *testing.T) {
	w := Generate(DefaultConfig(3))
	g := w.Graph
	ok := true
	g.Index().Labels(func(label string, nodes []NodeID) bool {
		for _, n := range nodes {
			if Fold(g.Label(n)) != label {
				t.Errorf("node %d label %q folds to %q, indexed under %q",
					n, g.Label(n), Fold(g.Label(n)), label)
				ok = false
			}
		}
		return ok
	})
}

// Property: Fold is idempotent.
func TestFoldIdempotent(t *testing.T) {
	f := func(s string) bool { return Fold(Fold(s)) == Fold(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestChecksum: the checksum is a function of what entity linking and G*
// read. Two builds of the same graph, and a TSV round trip of it, agree;
// changing one weight, label, kind, relation name or alias, or adding one
// edge, changes it — a description does not.
func TestChecksum(t *testing.T) {
	build := func(edit func(b *Builder, n []NodeID)) *Graph {
		b := NewBuilder(4)
		n := []NodeID{
			b.AddNode("Alpha", KindGPE, "a place"),
			b.AddNode("Beta", KindGPE, "another place"),
			b.AddNode("Gamma", KindPerson, "a person"),
		}
		b.AddEdgeByName(n[0], n[1], "located in", 1)
		b.AddEdgeByName(n[2], n[1], "citizen of", 2)
		b.AddAlias(n[2], "G.")
		if edit != nil {
			edit(b, n)
		}
		return b.Build()
	}
	base := build(nil)
	if build(nil).Checksum() != base.Checksum() {
		t.Fatal("two builds of one graph differ")
	}
	var tsv bytes.Buffer
	if err := Write(&tsv, base); err != nil {
		t.Fatal(err)
	}
	read, err := Read(&tsv)
	if err != nil {
		t.Fatal(err)
	}
	if read.Checksum() != base.Checksum() {
		t.Fatal("a TSV round trip changed the checksum")
	}
	if build(func(b *Builder, n []NodeID) { b.setDesc(n[0], "elsewhere") }).Checksum() != base.Checksum() {
		t.Fatal("a description changed the checksum")
	}
	for name, edit := range map[string]func(b *Builder, n []NodeID){
		"weight":   func(b *Builder, n []NodeID) { b.w[0] = 1.5 },
		"label":    func(b *Builder, n []NodeID) { b.setLabel(n[0], "Alpha II") },
		"kind":     func(b *Builder, n []NodeID) { b.kinds[n[0]] = KindLocation },
		"relation": func(b *Builder, n []NodeID) { b.rels[0] = "situated in" },
		"alias":    func(b *Builder, n []NodeID) { b.AddAlias(n[0], "A.") },
		"edge":     func(b *Builder, n []NodeID) { b.AddEdgeByName(n[0], n[2], "near", 1) },
	} {
		if build(edit).Checksum() == base.Checksum() {
			t.Errorf("changing the %s left the checksum as it was", name)
		}
	}
}
