package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"newslink/internal/corpus"
	"newslink/internal/kg"
	"newslink/internal/nlp"
)

// These tests gate the G* search: Find (node-major epoch-stamped
// state, bucket queue, parents derived at reconstruction, pooled) must
// produce embeddings identical to the reference (reference_test.go, the
// original map-based implementation kept as an executable specification) —
// same root, labels, distance vectors, node sets, arcs and expansion
// counts — across models, ablations, budgets, synthetic
// worlds, hand-built adversarial graphs, fuzzed graphs and pooled state
// reuse. Run them with -race: the pool and the parallel embedder must also
// be data-race-free.

// checkIdentical fails the test unless got and want are the same
// embedding, expansion counts included.
func checkIdentical(t *testing.T, labels []string, got, want *Subgraph) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("labels %q: found=%v reference=%v", labels, got != nil, want != nil)
	}
	if got != nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("labels %q: subgraph differs from reference\n got: %+v\nwant: %+v", labels, got, want)
	}
}

// sameEmbedding reports whether two document embeddings are equal in
// everything but the Expansions statistic, which counts the work a search
// did and not what it found: the same subgraphs — roots, labels, distance
// vectors, nodes and arcs — in the same order, and the same node counts.
func sameEmbedding(a, b *DocEmbedding) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Subgraphs) != len(b.Subgraphs) || !reflect.DeepEqual(a.Counts, b.Counts) {
		return false
	}
	for i, sa := range a.Subgraphs {
		x, y := *sa, *b.Subgraphs[i]
		x.Expansions, y.Expansions = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// checkSearcher compares Find with the reference.
func checkSearcher(t *testing.T, s *Searcher, labels []string) {
	t.Helper()
	checkIdentical(t, labels, s.Find(labels), s.FindReference(labels))
}

// randomLabelSet draws an entity group the way real queries look: labels
// of one or two synthetic events (participants, location, country — often
// cross-country so frontiers must meet far from home), plus occasional
// random nodes, junk labels, duplicates and case/whitespace variants.
func randomLabelSet(rng *rand.Rand, w *kg.World) []string {
	g := w.Graph
	ev := w.Events[rng.Intn(len(w.Events))]
	labels := []string{
		g.Label(ev.Participants[rng.Intn(len(ev.Participants))]),
		g.Label(ev.Location),
		g.Label(ev.Country),
	}
	if rng.Intn(2) == 0 {
		ev2 := w.Events[rng.Intn(len(w.Events))]
		labels = append(labels, g.Label(ev2.Participants[0]))
	}
	if rng.Intn(3) == 0 {
		labels = append(labels, g.Label(kg.NodeID(rng.Intn(g.NumNodes()))))
	}
	if rng.Intn(4) == 0 {
		labels = append(labels, "no such entity anywhere")
	}
	if rng.Intn(3) == 0 {
		// Duplicate with folding noise: must dedup identically.
		labels = append(labels, "  "+strings.ToUpper(labels[rng.Intn(len(labels))])+" ")
	}
	rng.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	return labels
}

func TestFlatStateMatchesReference(t *testing.T) {
	optsList := []Options{
		{MaxDepth: 6},
		{},
		{Model: ModelTree, MaxDepth: 6},
		{Model: ModelTree, MaxDepth: 6, NoEarlyStop: true},
		{MaxDepth: 6, DepthOnly: true},
		{MaxDepth: 4, NoEarlyStop: true},
		{MaxDepth: 6, MaxExpansions: 200},
	}
	for seed := int64(1); seed <= 3; seed++ {
		w := kg.Generate(kg.DefaultConfig(seed))
		rng := rand.New(rand.NewSource(seed * 7919))
		for _, opts := range optsList {
			s := NewSearcher(w.Graph, opts)
			// One pooled searcher across all queries: state reuse must not
			// leak anything from query to query.
			for q := 0; q < 25; q++ {
				labels := randomLabelSet(rng, w)
				checkSearcher(t, s, labels)
			}
		}
	}
}

// TestPooledSearcherConcurrentIdentity hammers one Searcher from many
// goroutines; under -race this proves the sync.Pool state recycling is
// race-free and every concurrent result is still byte-identical to the
// sequential reference.
func TestPooledSearcherConcurrentIdentity(t *testing.T) {
	w := kg.Generate(kg.DefaultConfig(5))
	rng := rand.New(rand.NewSource(42))
	s := NewSearcher(w.Graph, Options{MaxDepth: 6})
	sets := make([][]string, 30)
	refs := make([]*Subgraph, len(sets))
	for i := range sets {
		sets[i] = randomLabelSet(rng, w)
		refs[i] = s.FindReference(sets[i])
	}
	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for n := 0; n < len(sets); n++ {
				i := (n + off) % len(sets)
				got := s.Find(sets[i])
				if (got == nil) != (refs[i] == nil) {
					t.Errorf("labels %q: concurrent Find nil-ness diverged", sets[i])
					return
				}
				if got != nil && !reflect.DeepEqual(got, refs[i]) {
					t.Errorf("labels %q: concurrent Find differs from reference", sets[i])
					return
				}
			}
		}(worker)
	}
	wg.Wait()
}

// TestParallelEmbedderMatchesSequential proves the EmbedGroups fan-out is
// a pure throughput optimization: sequential, parallel, and parallel with
// the group cache (cold and warm) all produce the same document embedding.
func TestParallelEmbedderMatchesSequential(t *testing.T) {
	w := kg.Generate(kg.DefaultConfig(3))
	rng := rand.New(rand.NewSource(17))
	var groups [][]string
	for i := 0; i < 8; i++ {
		groups = append(groups, randomLabelSet(rng, w))
	}
	groups = append(groups, []string{"nothing resolvable here"})

	seq := NewEmbedder(w.Graph, Options{MaxDepth: 6, EmbedWorkers: 1})
	par := NewEmbedder(w.Graph, Options{MaxDepth: 6, EmbedWorkers: 8})
	cached := NewEmbedder(w.Graph, Options{MaxDepth: 6, EmbedWorkers: 8, GroupCacheSize: 64})

	wantEmb, wantStats, err := seq.EmbedGroupsContext(context.Background(), groups)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, e *Embedder, wantGroupHits int) {
		emb, stats, err := e.EmbedGroupsContext(context.Background(), groups)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameEmbedding(emb, wantEmb) {
			t.Fatalf("%s: embedding differs from sequential run", name)
		}
		if stats.Groups != wantStats.Groups || stats.Embedded != wantStats.Embedded ||
			stats.ResolvedLabels != wantStats.ResolvedLabels || stats.Expansions != wantStats.Expansions {
			t.Fatalf("%s: stats %+v, want %+v", name, stats, wantStats)
		}
		if stats.GroupCacheHits != wantGroupHits {
			t.Fatalf("%s: group cache hits = %d, want %d", name, stats.GroupCacheHits, wantGroupHits)
		}
	}
	check("parallel", par, 0)
	check("cached-cold", cached, 0)
	// Warm pass: every embeddable group must now come from the cache and the
	// result must still be the same.
	check("cached-warm", cached, wantStats.Embedded)
}

// TestReembeddingIsDeterministic: a document's embedding is a function of
// its entity groups and the graph alone, which is what lets Explain,
// ExplainDOT and Related re-derive it instead of storing it. Over the
// synthetic worlds (random label sets across models and ablations, with
// unembeddable documents between them) and every article of the sample
// corpus, embedding the corpus again gives the same embeddings: on a
// fresh sequential embedder, and on a parallel one whose group cache and
// pooled states the corpus already warmed, in reverse order.
func TestReembeddingIsDeterministic(t *testing.T) {
	check := func(name string, g *kg.Graph, opts Options, docs [][][]string) {
		t.Helper()
		indexer := NewEmbedder(g, opts)
		want := make([]*DocEmbedding, len(docs))
		for i, groups := range docs {
			want[i] = indexer.EmbedGroups(groups)
		}
		fresh := opts
		fresh.EmbedWorkers, fresh.GroupCacheSize = 1, 0
		cold := NewEmbedder(g, fresh)
		for i := len(docs) - 1; i >= 0; i-- {
			for _, e := range []*Embedder{cold, indexer} {
				if got := e.EmbedGroups(docs[i]); !sameEmbedding(got, want[i]) {
					t.Fatalf("%s: document %d embeds differently the second time", name, i)
				}
			}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		w := kg.Generate(kg.DefaultConfig(seed))
		rng := rand.New(rand.NewSource(seed * 7919))
		for _, opts := range []Options{{MaxDepth: 6}, {Model: ModelTree, MaxDepth: 6}, {MaxDepth: 4, NoEarlyStop: true}} {
			var docs [][][]string
			for d := 0; d < 20; d++ {
				var groups [][]string
				for n := rng.Intn(4); n > 0; n-- {
					groups = append(groups, randomLabelSet(rng, w))
				}
				docs = append(docs, groups, [][]string{{"nothing resolvable here"}})
			}
			opts.EmbedWorkers, opts.GroupCacheSize = 4, 64
			check(fmt.Sprintf("world %d %+v", seed, opts), w.Graph, opts, docs)
		}
	}
	g, arts := corpus.Sample()
	pipe := nlp.NewPipeline(g.Index())
	docs := make([][][]string, len(arts))
	for i, a := range arts {
		docs[i] = nlp.MaximalSets(pipe.Process(a.Text).EntityGroups())
	}
	check("sample corpus", g, Options{EmbedWorkers: 4, GroupCacheSize: 256}, docs)
}

// TestFindContextCancellation proves the enumeration loop honors context
// cancellation instead of running to termination.
func TestFindContextCancellation(t *testing.T) {
	w := kg.Generate(kg.DefaultConfig(2))
	s := NewSearcher(w.Graph, Options{}) // unbounded depth: a long traversal
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev := w.Events[0]
	labels := []string{w.Graph.Label(ev.Participants[0]), w.Graph.Label(ev.Location), w.Graph.Label(ev.Country)}
	if _, err := s.FindContext(ctx, labels); err != context.Canceled {
		t.Fatalf("FindContext on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// identityVariants are the option sets every adversarial graph is searched
// under: both models, both ablation switches, bounded and unbounded depth.
var identityVariants = []Options{
	{},
	{MaxDepth: 2.5},
	{DepthOnly: true},
	{NoEarlyStop: true},
	{NoEarlyStop: true, MaxDepth: 3},
	{Model: ModelTree},
	{Model: ModelTree, MaxDepth: 2.5},
	{Model: ModelTree, NoEarlyStop: true},
}

type testEdge struct {
	from, to int
	rel      string
	w        float64
}

// buildGraph makes node i carry labels[i]; nodes sharing a label make it
// ambiguous (several sources).
func buildGraph(labels []string, edges []testEdge) *kg.Graph {
	b := kg.NewBuilder(len(labels))
	for _, l := range labels {
		b.AddNode(l, kg.KindUnknown, "")
	}
	for _, e := range edges {
		b.AddEdgeByName(kg.NodeID(e.from), kg.NodeID(e.to), e.rel, e.w)
	}
	return b.Build()
}

// adversarialCases are small graphs built to hit what the node-major search
// derives rather than stores: equal-cost parents, multi-source seeds, levels
// that receive entries while they drain, parallel and antiparallel edges,
// tentative distances that fall after a candidate was collected.
func adversarialCases() []struct {
	name    string
	g       *kg.Graph
	queries [][]string
} {
	type c = struct {
		name    string
		g       *kg.Graph
		queries [][]string
	}
	// 4x4 unit grid: every interior node has two equal-cost parents per label.
	var grid []string
	var gridEdges []testEdge
	for i := 0; i < 16; i++ {
		grid = append(grid, fmt.Sprintf("g%d", i))
		if i%4 != 3 {
			gridEdges = append(gridEdges, testEdge{i, i + 1, "east", 1})
		}
		if i < 12 {
			gridEdges = append(gridEdges, testEdge{i, i + 4, "south", 1})
		}
	}
	// Four 5-hop arms off one hub (the search-cold shape: labels far apart),
	// plus a separate component.
	arms := []string{"hub"}
	var armEdges []testEdge
	for a := 0; a < 4; a++ {
		prev := 0
		for h := 0; h < 5; h++ {
			arms = append(arms, fmt.Sprintf("arm%d-%d", a, h))
			armEdges = append(armEdges, testEdge{len(arms) - 1, prev, "toward", 1})
			prev = len(arms) - 1
		}
	}
	arms = append(arms, "island", "islet")
	armEdges = append(armEdges, testEdge{len(arms) - 2, len(arms) - 1, "near", 1})
	// 70 leaves on two hubs: more labels than a machine word has bits.
	wide := []string{"hubA", "hubB"}
	wideEdges := []testEdge{{0, 1, "link", 1}}
	var wideLabels []string
	for i := 0; i < 70; i++ {
		wide = append(wide, fmt.Sprintf("leaf%d", i))
		wideLabels = append(wideLabels, wide[len(wide)-1])
		wideEdges = append(wideEdges, testEdge{len(wide) - 1, i % 2, "on", 1})
	}
	const tiny = 1e-17 // 1 + tiny == 1 in float64
	// The last level before the rim (state.lastLevel) at MaxDepth 3, unit
	// weights: level 2 is drained label by label, the rim at 3 is counted.
	// Node names say which label's source they hang off.
	//
	// survivor-root: r is the only root, 1 from a0 and 3 from b0 and c0. At
	// level 2 b0 has one entry, a0 two and c0 four (the y leaves), so c0
	// is the later label and r reaches it only through the survivor test
	// (its neighbour c2 sits at 2 from c0): finding r forces the completion.
	// z2 is a rim node the second label (a0) reaches without a slot, which
	// the completion must still count.
	survivor := []string{"a0", "b0", "c0", "r", "b1", "b2", "c1", "c2", "y1", "y2", "y3", "z2"}
	survivorEdges := []testEdge{{0, 3, "r", 1}, {1, 4, "r", 1}, {4, 5, "r", 1}, {5, 3, "r", 1}, {2, 6, "r", 1},
		{6, 7, "r", 1}, {7, 3, "r", 1}, {6, 8, "r", 1}, {6, 9, "r", 1}, {6, 10, "r", 1}, {7, 11, "r", 1}}
	// survivors-empty: a0 and b0 share m1 (with d0), so the first two balls
	// overlap; c0 is a separate component with three level-2 entries, d0
	// has five (the f leaves), so c0 is tested third, empties the survivor
	// set and d0 is never tested.
	empty := []string{"a0", "b0", "c0", "d0", "m1", "e1", "f1", "f2", "f3", "c1", "g1", "g2", "g3"}
	emptyEdges := []testEdge{{0, 4, "r", 1}, {1, 4, "r", 1}, {3, 4, "r", 1}, {3, 5, "r", 1}, {5, 6, "r", 1},
		{5, 7, "r", 1}, {5, 8, "r", 1}, {2, 9, "r", 1}, {9, 10, "r", 1}, {9, 11, "r", 1}, {9, 12, "r", 1}}
	// fan-over-budget: a0's fan puts three entries in level 2 and the root
	// r at 3 behind the last of them, so every budget that ends inside
	// level 2 must keep the level sorted (TestAdversarialGraphsMatchReference
	// sweeps every budget at MaxDepth 3).
	fan := []string{"a0", "b0", "a1", "a2", "a3", "p1", "p2", "p3", "b1", "b2", "r"}
	fanEdges := []testEdge{{0, 2, "r", 1}, {0, 3, "r", 1}, {0, 4, "r", 1}, {2, 5, "r", 1}, {3, 6, "r", 1},
		{4, 7, "r", 1}, {7, 10, "r", 1}, {1, 8, "r", 1}, {8, 9, "r", 1}, {9, 10, "r", 1}}
	return []c{
		{"grid-ties", buildGraph(grid, gridEdges), [][]string{
			{"g0", "g15"}, {"g0", "g3", "g12", "g15"}, {"g5", "g6", "g9"}, {"g0"}, {"g0", "g0", "nope", "g10"},
		}},
		{"ambiguous-labels", buildGraph(
			[]string{"a", "x", "b", "y", "a", "z", "b", "c", "a", "c"},
			[]testEdge{{0, 1, "r", 1}, {1, 2, "r", 1}, {2, 3, "r", 1}, {3, 4, "r", 1}, {4, 5, "r", 1},
				{5, 6, "r", 1}, {6, 7, "r", 1}, {7, 8, "r", 1}, {8, 9, "r", 1}, {1, 5, "s", 1}, {3, 7, "s", 1}}),
			[][]string{{"a", "b"}, {"a", "b", "c"}, {"a", "c", "z"}, {"A ", " b"}}},
		{"far-apart-and-disconnected", buildGraph(arms, armEdges), [][]string{
			{"arm0-4", "arm1-4", "arm2-4", "arm3-4"}, // root only beyond any MaxDepth variant
			{"arm0-4", "island"}, {"island", "islet"}, {"arm0-2", "arm1-1", "hub"},
		}},
		{"skewed-weights", buildGraph(
			[]string{"a", "b", "c", "p", "q", "r", "s", "t"},
			[]testEdge{{0, 3, "r", 0.1}, {3, 4, "r", 0.3}, {4, 5, "r", 0.7}, {0, 5, "r", 7}, {1, 5, "r", 0.25},
				{1, 6, "r", 2.5}, {6, 3, "r", 0.1}, {2, 7, "r", 0.35}, {7, 4, "r", 0.15}, {2, 5, "r", 3},
				{5, 6, "s", 0.05}, {7, 3, "s", 1.1}, {0, 1, "s", 6}}),
			[][]string{{"a", "b"}, {"a", "b", "c"}, {"a", "c"}, {"b", "c", "s"}}},
		// A heavy edge reaches the root early; the light path arrives in the
		// very level in which the other label makes it a candidate, so the
		// candidate's depth depends on the order inside that level.
		{"lowered-after-candidate", buildGraph(
			[]string{"a", "b", "x", "u1", "u2", "w"},
			[]testEdge{{0, 2, "heavy", 7}, {0, 3, "r", 1}, {3, 2, "r", 1}, {1, 4, "r", 1}, {4, 2, "r", 1},
				{2, 5, "r", 1}, {0, 5, "r", 2.5}, {1, 5, "r", 2.5}}),
			[][]string{{"a", "b"}, {"b", "a"}}},
		// x sits at distance 1; y, z, v hang off it by weights that vanish in
		// float64, so they are queued into the level while it drains — with
		// smaller ids than entries already popped.
		{"vanishing-weights", buildGraph(
			[]string{"z", "y", "v", "a", "b", "x", "far"},
			[]testEdge{{3, 5, "r", 1}, {4, 5, "r", 1}, {5, 1, "r", tiny}, {1, 0, "r", tiny}, {0, 2, "r", tiny},
				{2, 5, "back", tiny}, {4, 2, "r", 1}, {0, 6, "r", 1}, {1, 1, "self", tiny}}),
			[][]string{{"a", "b"}, {"a", "far"}, {"a", "b", "z"}, {"y", "v"}}},
		{"multi-edges", buildGraph(
			[]string{"a", "u", "v", "b", "c"},
			[]testEdge{{0, 1, "r", 1}, {1, 2, "r", 1}, {2, 1, "r", 1}, {1, 2, "r", 1}, {1, 2, "q", 1}, {1, 2, "r", 2},
				{2, 1, "q", 1}, {2, 3, "r", 1}, {3, 2, "r", 1}, {2, 4, "r", 1}, {0, 2, "r", 2}, {2, 0, "r", 2}, {2, 2, "self", 1}}),
			[][]string{{"a", "b"}, {"a", "b", "c"}, {"a", "v"}, {"u", "c"}}},
		{"seventy-labels", buildGraph(wide, wideEdges), [][]string{wideLabels, wideLabels[:65], {"leaf0", "leaf1"}}},
		{"survivor-root", buildGraph(survivor, survivorEdges), [][]string{
			{"a0", "b0", "c0"}, {"c0", "b0", "a0"}, {"a0", "b0", "c0", "z2"}, {"a0", "c0"},
		}},
		{"survivors-empty", buildGraph(empty, emptyEdges), [][]string{
			{"a0", "b0", "c0", "d0"}, {"d0", "c0", "b0", "a0"}, {"a0", "b0", "d0"},
		}},
		{"fan-over-budget", buildGraph(fan, fanEdges), [][]string{{"a0", "b0"}, {"b0", "a0"}, {"a1", "b0"}}},
	}
}

// TestAdversarialGraphsMatchReference searches every adversarial graph under
// every option variant, and under every expansion budget from 1 up to the
// point where the budget no longer binds (which pins where a cut lands
// inside a level), unbounded and at MaxDepth 3 (where a cut can land in
// the last level before the rim).
func TestAdversarialGraphsMatchReference(t *testing.T) {
	for _, c := range adversarialCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, opts := range identityVariants {
				s := NewSearcher(c.g, opts)
				for _, q := range c.queries {
					checkSearcher(t, s, q)
				}
			}
			for _, model := range []Model{ModelLCAG, ModelTree} {
				for _, depth := range []float64{0, 3} {
					for _, q := range c.queries {
						if len(q) > 8 {
							continue // ranking 70-label candidates under hundreds of budgets is slow and adds nothing
						}
						full := NewSearcher(c.g, Options{Model: model, MaxDepth: depth, NoEarlyStop: true}).FindReference(q)
						n := 2
						if full != nil {
							n = full.Expansions + 1
						}
						for budget := 1; budget <= n; budget++ {
							for _, noStop := range []bool{false, true} {
								opts := Options{Model: model, MaxDepth: depth, MaxExpansions: budget, NoEarlyStop: noStop}
								checkSearcher(t, NewSearcher(c.g, opts), q)
							}
						}
					}
				}
			}
		})
	}
}

// TestSearchColdShapeFindsNoRoot pins the case that dominates the
// search-cold benchmark workload: four labels from events a quarter of the
// catalogue apart have no common root within MaxDepth, so the search
// exhausts every ball and both implementations return nil. It runs at
// MaxDepth 2 on the 20-country KG, then at the benchmark's own shape:
// MaxDepth 6 on the 1,250-country KG, over search-cold's first 48 label
// sets at seed 11, where the last level before the rim is drained label
// by label and two of the sets do have a root.
func TestSearchColdShapeFindsNoRoot(t *testing.T) {
	w := kg.Generate(kg.DefaultConfig(9))
	g, evs := w.Graph, w.Events
	s := NewSearcher(g, Options{MaxDepth: 2})
	none := 0
	for n := 0; n < 20; n++ {
		var labels []string
		for j := 0; j < 4; j++ {
			ev := evs[(n*7+j*len(evs)/4)%len(evs)]
			labels = append(labels, g.Label(ev.Participants[0]))
		}
		if s.FindReference(labels) == nil {
			none++
		}
		checkSearcher(t, s, labels)
	}
	if none == 0 {
		t.Fatal("no root-less query among the cold-shaped label sets; the test no longer covers that path")
	}
	w, sets := coldLabelSets(11, 48)
	s = NewSearcher(w.Graph, Options{MaxDepth: 6})
	rooted := 0
	for _, labels := range sets {
		if s.FindReference(labels) != nil {
			rooted++
		}
		checkSearcher(t, s, labels)
	}
	if rooted == 0 || rooted == len(sets) {
		t.Fatalf("%d of %d benchmark-shaped label sets have a root; the test no longer covers both outcomes", rooted, len(sets))
	}
}

// runState searches labels on st directly, bypassing the Searcher's pool
// (which, under -race, drops states at random).
func runState(st *state, labels []string) *Subgraph {
	st.begin(nil)
	if !st.init(labels) {
		return nil
	}
	st.run()
	return st.best()
}

// TestStateReuseAcrossLabelCounts recycles one state through queries whose
// label count — the stride of every per-slot record — keeps changing.
func TestStateReuseAcrossLabelCounts(t *testing.T) {
	for _, c := range adversarialCases() {
		for _, opts := range []Options{{}, {Model: ModelTree}} {
			s := NewSearcher(c.g, opts)
			st := newState(s)
			for round := 0; round < 2; round++ {
				for _, q := range c.queries {
					checkIdentical(t, q, runState(st, q), s.FindReference(q))
				}
			}
		}
	}
}

// TestStateEpochWrapAround drives a state's epoch through the uint32 wrap:
// slot-index entries stamped before the wrap must not read as live after it.
func TestStateEpochWrapAround(t *testing.T) {
	w := kg.Generate(kg.DefaultConfig(4))
	rng := rand.New(rand.NewSource(8))
	s := NewSearcher(w.Graph, Options{MaxDepth: 6})
	st := newState(s)
	// Leave entries stamped with the epochs the wrap will skip to.
	for e := uint32(0); e < 3; e++ {
		st.epoch = e
		runState(st, randomLabelSet(rng, w))
	}
	st.epoch = math.MaxUint32 - 3
	for q := 0; q < 8; q++ {
		labels := randomLabelSet(rng, w)
		checkIdentical(t, labels, runState(st, labels), s.FindReference(labels))
	}
	if st.epoch < 1 || st.epoch > 8 {
		t.Fatalf("epoch = %d after wrapping, want a small positive value", st.epoch)
	}
}

// fuzzCase decodes a small weighted graph, a label set and search options
// from arbitrary bytes. Node i carries label i%nl, so labels are ambiguous
// whenever nl < n.
func fuzzCase(data []byte) (*kg.Graph, []string, Options) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	weights := []float64{1, 2, 0.5, 0.1, 0.3, 2.5, 1e-17, 3, 7, 0.25}
	n := 2 + next()%14
	nl := 1 + next()%n
	ob := next()
	opts := Options{NoEarlyStop: ob&4 != 0, DepthOnly: ob&2 != 0}
	if ob&1 != 0 {
		opts.Model = ModelTree
	}
	switch ob >> 4 & 3 {
	case 1:
		opts.MaxDepth = 2
	case 2:
		opts.MaxDepth = 3.5
	}
	if ob&64 != 0 {
		opts.MaxExpansions = 1 + next()%40
	}
	uniform := -1 // index of the one weight every edge gets, or -1
	if ob&8 != 0 {
		uniform = next() % len(weights)
	}
	var labels []string
	for i, q := 0, 1+next()%5; i < q; i++ {
		labels = append(labels, fmt.Sprintf("e%d", next()%(nl+1))) // e<nl> resolves to nothing
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("e%d", i%nl)
	}
	var edges []testEdge
	for len(data) >= 3 {
		from, to, rw := next()%n, next()%n, next()
		wi := rw >> 2 % len(weights)
		if uniform >= 0 {
			wi = uniform
		}
		edges = append(edges, testEdge{from, to, fmt.Sprintf("r%d", rw&3), weights[wi]})
	}
	return buildGraph(names, edges), labels, opts
}

// FuzzFindMatchesReference: on any small weighted graph, label set and
// option set, Find equals the reference.
func FuzzFindMatchesReference(f *testing.F) {
	f.Add([]byte{6, 3, 0, 2, 0, 1, 0, 1, 0, 1, 2, 4, 2, 3, 8, 3, 4, 12, 4, 5, 16})
	f.Add([]byte{9, 4, 1, 3, 0, 1, 2, 0, 1, 24, 1, 2, 24, 2, 3, 24, 3, 0, 0, 4, 5, 1, 5, 6, 2})
	f.Add([]byte{12, 12, 8 | 64, 5, 0, 4, 0, 3, 6, 9, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0})
	f.Add([]byte{5, 5, 4 | 16, 2, 0, 4, 0, 1, 24, 1, 2, 24, 2, 3, 0, 3, 4, 24, 1, 1, 25})
	// adversarialCases' survivor-root and survivors-empty at MaxDepth 3.5
	// (unit weights: level 2 is the last before the rim).
	f.Add([]byte{10, 11, 8 | 32, 0, 2, 0, 1, 2, 0, 3, 0, 1, 4, 0, 4, 5, 0, 5, 3, 0, 2, 6, 0,
		6, 7, 0, 7, 3, 0, 6, 8, 0, 6, 9, 0, 6, 10, 0, 7, 11, 0})
	f.Add([]byte{11, 12, 8 | 32, 0, 3, 0, 1, 2, 3, 0, 4, 0, 1, 4, 0, 3, 4, 0, 3, 5, 0, 5, 6, 0,
		5, 7, 0, 5, 8, 0, 2, 9, 0, 9, 10, 0, 9, 11, 0, 9, 12, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, labels, opts := fuzzCase(data)
		checkSearcher(t, NewSearcher(g, opts), labels)
	})
}

// TestRandomGraphsMatchReference runs the fuzz decoder over seeded random
// bytes, so plain `go test` covers ten thousand graph/option shapes.
func TestRandomGraphsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20211))
	for i := 0; i < 10000; i++ {
		data := make([]byte, 12+rng.Intn(90))
		rng.Read(data)
		g, labels, opts := fuzzCase(data)
		checkSearcher(t, NewSearcher(g, opts), labels)
		if t.Failed() {
			t.Fatalf("case %d: data %v", i, data)
		}
	}
}
