package core

import (
	"math"
	"reflect"
	"testing"

	"newslink/internal/kg"
)

// figure1Graph reproduces the KG fragment of Figure 1 in the paper.
func figure1Graph() *kg.Graph {
	b := kg.NewBuilder(10)
	khyber := b.AddNode("Khyber", kg.KindGPE, "a province of Pakistan")
	waziristan := b.AddNode("Waziristan", kg.KindGPE, "a region near Khyber")
	taliban := b.AddNode("Taliban", kg.KindOrg, "a militant group")
	kunar := b.AddNode("Kunar", kg.KindGPE, "a province near Khyber")
	lahore := b.AddNode("Lahore", kg.KindGPE, "a city near Khyber")
	peshawar := b.AddNode("Peshawar", kg.KindGPE, "a city near Khyber")
	pakistan := b.AddNode("Pakistan", kg.KindGPE, "a country")
	upperDir := b.AddNode("Upper Dir", kg.KindGPE, "a district")
	swat := b.AddNode("Swat Valley", kg.KindGPE, "a valley")
	lahore2 := b.AddNode("Lahore", kg.KindGPE, "a second Lahore node")

	b.AddEdgeByName(taliban, kunar, "active in", 1)
	b.AddEdgeByName(taliban, waziristan, "active in", 1)
	b.AddEdgeByName(kunar, khyber, "located in", 1)
	b.AddEdgeByName(waziristan, khyber, "located in", 1)
	b.AddEdgeByName(upperDir, khyber, "located in", 1)
	b.AddEdgeByName(swat, khyber, "located in", 1)
	b.AddEdgeByName(pakistan, khyber, "contains", 1)
	b.AddEdgeByName(lahore, khyber, "located in", 1)
	b.AddEdgeByName(peshawar, khyber, "located in", 1)
	b.AddEdgeByName(lahore2, pakistan, "located in", 1)
	return b.Build()
}

func find(t *testing.T, g *kg.Graph, opts Options, labels ...string) *Subgraph {
	t.Helper()
	return NewSearcher(g, opts).Find(labels)
}

func TestFigure1QueryEmbedding(t *testing.T) {
	g := figure1Graph()
	sg := find(t, g, Options{}, "Upper Dir", "Swat Valley", "Pakistan", "Taliban")
	if sg == nil {
		t.Fatal("no embedding found")
	}
	if got := g.Label(sg.Root); got != "Khyber" {
		t.Fatalf("root = %s, want Khyber", got)
	}
	if got := sg.Depth(); got != 2 {
		t.Fatalf("depth = %v, want 2 (Taliban is two hops away)", got)
	}
	want := []float64{2, 1, 1, 1}
	if got := sg.DepthVector(); !reflect.DeepEqual(got, want) {
		t.Fatalf("depth vector = %v, want %v", got, want)
	}
	// Coverage: BOTH shortest paths from Taliban must be preserved —
	// Kunar and Waziristan are the paper's "induced entities" of Table I.
	for _, label := range []string{"Kunar", "Waziristan", "Khyber"} {
		id := g.Lookup(label)[0]
		if !sg.HasNode(id) {
			t.Errorf("induced entity %s missing from G*", label)
		}
	}
	induced := sg.InducedNodes(g)
	if len(induced) != 3 {
		t.Errorf("induced nodes = %d, want 3 (Khyber, Waziristan, Kunar)", len(induced))
	}
}

func TestFigure1ResultEmbeddingOverlap(t *testing.T) {
	g := figure1Graph()
	e := NewEmbedder(g, Options{})
	q := e.EmbedGroups([][]string{{"upper dir", "swat valley", "pakistan", "taliban"}})
	r := e.EmbedGroups([][]string{{"lahore", "peshawar", "pakistan", "taliban"}})
	if q == nil || r == nil {
		t.Fatal("embeddings missing")
	}
	ov := q.Overlap(r)
	// The overlap must contain Khyber (the shared root) plus the shared
	// matched/induced context.
	khyber := g.Lookup("Khyber")[0]
	found := false
	for _, n := range ov {
		if n == khyber {
			found = true
		}
	}
	if !found {
		t.Fatalf("overlap %v does not contain Khyber", ov)
	}
	if len(ov) < 4 {
		t.Fatalf("overlap too small: %v", ov)
	}
}

func TestTreeEmbSinglePath(t *testing.T) {
	g := figure1Graph()
	sg := find(t, g, Options{Model: ModelTree}, "Upper Dir", "Swat Valley", "Pakistan", "Taliban")
	if sg == nil {
		t.Fatal("no tree embedding found")
	}
	if got := g.Label(sg.Root); got != "Khyber" {
		t.Fatalf("tree root = %s, want Khyber", got)
	}
	// Single path per label: only one of Kunar/Waziristan survives.
	kunar, waziristan := g.Lookup("Kunar")[0], g.Lookup("Waziristan")[0]
	if sg.HasNode(kunar) && sg.HasNode(waziristan) {
		t.Fatal("TreeEmb kept both equal-cost paths; want exactly one")
	}
	if !sg.HasNode(kunar) && !sg.HasNode(waziristan) {
		t.Fatal("TreeEmb lost the Taliban path entirely")
	}
	// A tree over m labels with these distances has exactly depth-sum arcs.
	if got, want := len(sg.Arcs), 5; got != want {
		t.Fatalf("tree arcs = %d, want %d", got, want)
	}
}

func TestAmbiguousLabelUsesNearestSource(t *testing.T) {
	g := figure1Graph()
	// "Lahore" maps to two nodes; Entity-Node Distance (Definition 2) takes
	// the min over sources, so the Khyber-adjacent Lahore is used.
	sg := find(t, g, Options{}, "Lahore", "Upper Dir")
	if sg == nil {
		t.Fatal("no embedding")
	}
	if got := g.Label(sg.Root); got != "Khyber" {
		t.Fatalf("root = %s, want Khyber", got)
	}
	if got := sg.Depth(); got != 1 {
		t.Fatalf("depth = %v, want 1", got)
	}
}

func TestSingleLabelEmbedsAsSelf(t *testing.T) {
	g := figure1Graph()
	sg := find(t, g, Options{}, "Taliban")
	if sg == nil {
		t.Fatal("no embedding")
	}
	if g.Label(sg.Root) != "Taliban" || sg.Depth() != 0 {
		t.Fatalf("single-label root = %s depth %v", g.Label(sg.Root), sg.Depth())
	}
	if len(sg.Nodes) != 1 || len(sg.Arcs) != 0 {
		t.Fatalf("single-label subgraph = %d nodes %d arcs", len(sg.Nodes), len(sg.Arcs))
	}
}

func TestUnknownLabelsIgnored(t *testing.T) {
	g := figure1Graph()
	if sg := find(t, g, Options{}, "Atlantis", "Shangri-La"); sg != nil {
		t.Fatal("expected nil for fully unknown labels")
	}
	sg := find(t, g, Options{}, "Atlantis", "Taliban", "Pakistan")
	if sg == nil {
		t.Fatal("known labels should still embed")
	}
	if len(sg.Labels) != 2 {
		t.Fatalf("labels = %v, want the two known ones", sg.Labels)
	}
}

func TestDuplicateLabelsDeduplicated(t *testing.T) {
	g := figure1Graph()
	sg := find(t, g, Options{}, "Taliban", "taliban", "TALIBAN", "Pakistan")
	if sg == nil {
		t.Fatal("no embedding")
	}
	if len(sg.Labels) != 2 {
		t.Fatalf("labels = %v, want deduplicated pair", sg.Labels)
	}
}

func TestDisconnectedNoEmbedding(t *testing.T) {
	b := kg.NewBuilder(4)
	a := b.AddNode("IslandA", kg.KindGPE, "")
	a2 := b.AddNode("IslandA2", kg.KindGPE, "")
	c := b.AddNode("IslandB", kg.KindGPE, "")
	c2 := b.AddNode("IslandB2", kg.KindGPE, "")
	b.AddEdgeByName(a, a2, "near", 1)
	b.AddEdgeByName(c, c2, "near", 1)
	g := b.Build()
	if sg := find(t, g, Options{}, "IslandA", "IslandB"); sg != nil {
		t.Fatal("disconnected labels must not embed")
	}
}

func TestMaxDepthBound(t *testing.T) {
	g := figure1Graph()
	if sg := find(t, g, Options{MaxDepth: 1}, "Taliban", "Upper Dir"); sg != nil {
		t.Fatalf("MaxDepth=1 should preclude the depth-2 embedding, got root %s", g.Label(sg.Root))
	}
	if sg := find(t, g, Options{MaxDepth: 2}, "Taliban", "Upper Dir"); sg == nil {
		t.Fatal("MaxDepth=2 should allow the embedding")
	}
}

func TestExpansionBudget(t *testing.T) {
	g := figure1Graph()
	sg := find(t, g, Options{MaxExpansions: 1}, "Taliban", "Upper Dir")
	if sg != nil {
		t.Fatal("budget 1 cannot find a common ancestor here")
	}
	sg = find(t, g, Options{}, "Taliban", "Upper Dir")
	if sg == nil || sg.Expansions <= 0 {
		t.Fatal("expansions not recorded")
	}
}

func TestDeterminism(t *testing.T) {
	w := kg.Generate(kg.DefaultConfig(11))
	g := w.Graph
	labels := []string{g.Label(w.CountryNodes[0]), g.Label(w.CountryNodes[1]), g.Label(w.CountryNodes[2])}
	a := find(t, g, Options{}, labels...)
	b := find(t, g, Options{}, labels...)
	if a == nil || b == nil {
		t.Fatal("no embedding")
	}
	if a.Root != b.Root || !reflect.DeepEqual(a.Nodes, b.Nodes) || !reflect.DeepEqual(a.Arcs, b.Arcs) {
		t.Fatal("Find is not deterministic")
	}
}

// --- reference implementations for property tests ---

// refDistances computes exact multi-source Dijkstra distances from a label's
// sources to every node, as ground truth.
func refDistances(g *kg.Graph, label string) map[kg.NodeID]float64 {
	dist := make(map[kg.NodeID]float64)
	var pq []item
	for _, s := range g.Lookup(label) {
		dist[s] = 0
		pq = append(pq, item{0, 0, s})
	}
	for len(pq) > 0 {
		mi := 0
		for i := range pq {
			if pq[i].d < pq[mi].d {
				mi = i
			}
		}
		it := pq[mi]
		pq = append(pq[:mi], pq[mi+1:]...)
		if it.d > dist[it.v] {
			continue
		}
		for _, a := range g.Neighbors(it.v) {
			nd := it.d + a.Weight
			if cur, ok := dist[a.To]; !ok || nd < cur {
				dist[a.To] = nd
				pq = append(pq, item{nd, 0, a.To})
			}
		}
	}
	return dist
}

// refBestVector brute-forces the optimal compactness vector over all roots.
func refBestVector(g *kg.Graph, labels []string) ([]float64, bool) {
	dists := make([]map[kg.NodeID]float64, len(labels))
	for i, l := range labels {
		dists[i] = refDistances(g, l)
	}
	var best []float64
	for v := 0; v < g.NumNodes(); v++ {
		vec := make([]float64, len(labels))
		ok := true
		for i := range labels {
			d, reach := dists[i][kg.NodeID(v)]
			if !reach {
				ok = false
				break
			}
			vec[i] = d
		}
		if !ok {
			continue
		}
		sortDesc(vec)
		if best == nil || CompareCompactness(vec, best) < 0 {
			best = vec
		}
	}
	return best, best != nil
}

func sortDesc(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// TestGStarOptimality verifies Definition 5 / Lemma 1 against brute force on
// synthetic worlds: the returned G* has the minimal compactness vector.
func TestGStarOptimality(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := kg.Config{Seed: seed, Countries: 3, ProvincesPerCountry: 3,
			CitiesPerProvince: 2, PersonsPerCountry: 6, OrgsPerCountry: 5,
			EventsPerCountry: 5, AmbiguityRate: 0.05}
		w := kg.Generate(cfg)
		g := w.Graph
		// Use event participants as entity groups — realistic label sets.
		for _, ev := range w.Events[:min(8, len(w.Events))] {
			var labels []string
			for _, p := range ev.Participants {
				labels = append(labels, g.Label(p))
			}
			labels = append(labels, g.Label(ev.Location))
			sg := find(t, g, Options{}, labels...)
			want, ok := refBestVector(g, dedupeFold(labels, g))
			if !ok {
				if sg != nil {
					t.Fatalf("seed %d: search found embedding where none exists", seed)
				}
				continue
			}
			if sg == nil {
				t.Fatalf("seed %d: no embedding for %v", seed, labels)
			}
			if got := sg.DepthVector(); CompareCompactness(got, want) != 0 {
				t.Fatalf("seed %d labels %v: vector %v, brute force %v", seed, labels, got, want)
			}
			// Lemma 1: minimal depth.
			if sg.Depth() != want[0] {
				t.Fatalf("seed %d: depth %v, want %v", seed, sg.Depth(), want[0])
			}
		}
	}
}

// dedupeFold mirrors the searcher's label normalization for the reference.
func dedupeFold(labels []string, g *kg.Graph) []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range labels {
		k := kg.Fold(l)
		if seen[k] || len(g.Lookup(k)) == 0 {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	return out
}

// TestLemma2PairwiseDistance: any two nodes of G* are within 2*d(G*) in the
// full graph.
func TestLemma2PairwiseDistance(t *testing.T) {
	w := kg.Generate(kg.DefaultConfig(5))
	g := w.Graph
	for _, ev := range w.Events[:10] {
		var labels []string
		for _, p := range ev.Participants {
			labels = append(labels, g.Label(p))
		}
		labels = append(labels, g.Label(ev.Country))
		sg := find(t, g, Options{}, labels...)
		if sg == nil {
			continue
		}
		bound := 2 * sg.Depth()
		for _, n := range sg.Nodes {
			dist := refDistances(g, g.Label(n))
			for _, m := range sg.Nodes {
				if d, ok := dist[m]; !ok || d > bound+1e-9 {
					t.Fatalf("nodes %s..%s distance %v exceeds 2*d(G*)=%v",
						g.Label(n), g.Label(m), d, bound)
				}
			}
		}
	}
}

// TestSubgraphConnectivity: every node of G* reaches the root along arcs.
func TestSubgraphConnectivity(t *testing.T) {
	w := kg.Generate(kg.DefaultConfig(13))
	g := w.Graph
	for _, ev := range w.Events[:15] {
		var labels []string
		for _, p := range ev.Participants {
			labels = append(labels, g.Label(p))
		}
		labels = append(labels, g.Label(ev.Location))
		for _, model := range []Model{ModelLCAG, ModelTree} {
			sg := find(t, g, Options{Model: model}, labels...)
			if sg == nil {
				continue
			}
			next := map[kg.NodeID][]kg.NodeID{}
			for _, a := range sg.Arcs {
				next[a.From] = append(next[a.From], a.To)
			}
			for _, n := range sg.Nodes {
				if !reaches(n, sg.Root, next, map[kg.NodeID]bool{}) {
					t.Fatalf("%s: node %s cannot reach root %s", model, g.Label(n), g.Label(sg.Root))
				}
			}
			// Shortest-path arcs: every arc must shorten distance to root.
			for i, l := range sg.Labels {
				_ = l
				if sg.Dists[i] < 0 {
					t.Fatalf("negative distance")
				}
			}
		}
	}
}

func reaches(from, to kg.NodeID, next map[kg.NodeID][]kg.NodeID, seen map[kg.NodeID]bool) bool {
	if from == to {
		return true
	}
	seen[from] = true
	for _, n := range next[from] {
		if !seen[n] && reaches(n, to, next, seen) {
			return true
		}
	}
	return false
}

// TestTreeSumOptimality: TreeEmb's root minimizes the total label distance.
func TestTreeSumOptimality(t *testing.T) {
	w := kg.Generate(kg.DefaultConfig(21))
	g := w.Graph
	for _, ev := range w.Events[:8] {
		var labels []string
		for _, p := range ev.Participants {
			labels = append(labels, g.Label(p))
		}
		sg := find(t, g, Options{Model: ModelTree}, labels...)
		if sg == nil {
			continue
		}
		keys := dedupeFold(labels, g)
		dists := make([]map[kg.NodeID]float64, len(keys))
		for i, l := range keys {
			dists[i] = refDistances(g, l)
		}
		bestSum := math.Inf(1)
		for v := 0; v < g.NumNodes(); v++ {
			sum, ok := 0.0, true
			for i := range keys {
				d, r := dists[i][kg.NodeID(v)]
				if !r {
					ok = false
					break
				}
				sum += d
			}
			if ok && sum < bestSum {
				bestSum = sum
			}
		}
		if got := sumVec(sg.Dists); got != bestSum {
			t.Fatalf("tree sum = %v, brute force %v (labels %v)", got, bestSum, keys)
		}
	}
}

func TestCompareCompactness(t *testing.T) {
	cases := []struct {
		a, b []float64
		want int
	}{
		{[]float64{2, 1, 1, 1}, []float64{2, 2, 1, 1}, -1}, // the paper's example
		{[]float64{2, 2, 1, 1}, []float64{2, 1, 1, 1}, 1},
		{[]float64{1, 1}, []float64{1, 1}, 0},
		{[]float64{3}, []float64{2, 9}, 1},
		{[]float64{1}, []float64{1, 0}, -1},
	}
	for _, c := range cases {
		if got := CompareCompactness(c.a, c.b); got != c.want {
			t.Errorf("CompareCompactness(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
