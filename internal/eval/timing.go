package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"newslink/internal/core"
	"newslink/internal/index"
	"newslink/internal/nlp"
	"newslink/internal/search"
)

// Figure7Result holds the average per-document embedding cost of each
// component (Figure 7 of the paper: the NE component dominates, and the
// proposed G* algorithm is faster than the tree-based baseline).
type Figure7Result struct {
	Docs int
	NLP  time.Duration // tokenization, NER, maximal sets
	// NEGStar is the subgraph embedding cost with G* (early termination via
	// C1 and C2).
	NEGStar time.Duration
	// NETree is the cost of the tree-based baseline as published: the
	// bidirectional-expansion heuristic has no early-termination test, so
	// the bounded frontier is explored exhaustively (Section VII-G).
	NETree time.Duration
	// NETreeBound is the same tree model with this library's sound Steiner
	// termination bound added — an improvement over the published baseline,
	// reported for completeness.
	NETreeBound time.Duration
	NSIndex     time.Duration // inverted-index building (text + nodes)
	Segments    float64       // average news segments per document
}

// Render formats the result.
func (r Figure7Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7: average embedding time per news document (%d docs, %.1f segments/doc)\n",
		r.Docs, r.Segments)
	max := float64(r.NETree)
	for _, row := range []struct {
		name string
		d    time.Duration
	}{
		{"NLP", r.NLP},
		{"NE (G*)", r.NEGStar},
		{"NE (TreeEmb)", r.NETree},
		{"NE (TreeEmb+bound)", r.NETreeBound},
		{"NS indexing", r.NSIndex},
	} {
		fmt.Fprintf(&sb, "  %-22s %12v %s\n", row.name, row.d, bar(float64(row.d), max, 40))
	}
	return sb.String()
}

// RunFigure7 measures the average per-document cost of each NewsLink
// component while embedding a corpus.
func RunFigure7(scale Scale) Figure7Result {
	d := BuildDataset(CNNSpec(scale))
	g := d.World.Graph
	gstar := core.NewEmbedder(g, core.Options{Model: core.ModelLCAG, MaxDepth: 6})
	tree := core.NewEmbedder(g, core.Options{Model: core.ModelTree, MaxDepth: 6, NoEarlyStop: true})
	treeBound := core.NewEmbedder(g, core.Options{Model: core.ModelTree, MaxDepth: 6})

	var r Figure7Result
	r.Docs = len(d.Articles)
	textB, nodeB := index.NewBuilder(), index.NewBuilder()
	segments := 0
	for _, a := range d.Articles {
		t0 := time.Now()
		doc := d.Pipeline.Process(a.Text)
		groups := nlp.MaximalSets(doc.EntityGroups())
		var terms []string
		for _, s := range doc.Sentences {
			terms = append(terms, s.Terms...)
		}
		r.NLP += time.Since(t0)
		segments += len(groups)

		t0 = time.Now()
		emb := gstar.EmbedGroups(groups)
		r.NEGStar += time.Since(t0)

		t0 = time.Now()
		tree.EmbedGroups(groups)
		r.NETree += time.Since(t0)

		t0 = time.Now()
		treeBound.EmbedGroups(groups)
		r.NETreeBound += time.Since(t0)

		t0 = time.Now()
		sort.Strings(terms)
		textB.Add(terms)
		nodeB.Add(emb.NodeTerms())
		r.NSIndex += time.Since(t0)
	}
	t0 := time.Now()
	textB.Build()
	nodeB.Build()
	r.NSIndex += time.Since(t0)

	n := time.Duration(r.Docs)
	r.NLP /= n
	r.NEGStar /= n
	r.NETree /= n
	r.NETreeBound /= n
	r.NSIndex /= n
	r.Segments = float64(segments) / float64(r.Docs)
	return r
}

// Table8Result is the per-query processing time breakdown (Table VIII).
type Table8Result struct {
	Queries int
	NLP     time.Duration
	NE      time.Duration
	NS      time.Duration
}

// Render formats the result like Table VIII.
func (r Table8Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table VIII: query processing time breakdown per test query (%d queries)\n", r.Queries)
	fmt.Fprintf(&sb, "  %-12s %12v\n", "NLP", r.NLP)
	fmt.Fprintf(&sb, "  %-12s %12v\n", "NE", r.NE)
	fmt.Fprintf(&sb, "  %-12s %12v\n", "NS", r.NS)
	return sb.String()
}

// RunTable8 measures the per-component latency of query processing with
// NewsLink(0.2): NLP (query analysis), NE (query subgraph embedding) and
// NS (both index retrievals plus fusion).
func RunTable8(scale Scale) Table8Result {
	d := BuildDataset(CNNSpec(scale))
	g := d.World.Graph
	embedder := core.NewEmbedder(g, core.Options{Model: core.ModelLCAG, MaxDepth: 6})
	// Build the two indexes once, as the engine does.
	textB, nodeB := index.NewBuilder(), index.NewBuilder()
	for _, a := range d.Articles {
		doc := d.Pipeline.Process(a.Text)
		var terms []string
		for _, s := range doc.Sentences {
			terms = append(terms, s.Terms...)
		}
		sort.Strings(terms)
		textB.Add(terms)
		nodeB.Add(embedder.EmbedGroups(nlp.MaximalSets(doc.EntityGroups())).NodeTerms())
	}
	textIdx, nodeIdx := textB.Build(), nodeB.Build()

	var r Table8Result
	queries := d.Queries(Densest, d.Spec.Seed+41)
	for _, q := range queries {
		t0 := time.Now()
		doc := d.Pipeline.Process(q.Text)
		groups := nlp.MaximalSets(doc.EntityGroups())
		var terms []string
		for _, s := range doc.Sentences {
			terms = append(terms, s.Terms...)
		}
		r.NLP += time.Since(t0)

		t0 = time.Now()
		emb := embedder.EmbedGroups(groups)
		r.NE += time.Since(t0)

		t0 = time.Now()
		bow := topK(textIdx, search.NewQuery(terms), 100)
		var bon []search.Hit
		if emb != nil {
			nq := make(search.Query, len(emb.Counts))
			for n, c := range emb.Counts {
				nq[core.NodeTerm(n)] = float64(c)
			}
			bon = topK(nodeIdx, nq, 100)
		}
		search.Fuse(bow, bon, 0.2, 20)
		r.NS += time.Since(t0)
	}
	r.Queries = len(queries)
	if r.Queries > 0 {
		n := time.Duration(r.Queries)
		r.NLP /= n
		r.NE /= n
		r.NS /= n
	}
	return r
}
