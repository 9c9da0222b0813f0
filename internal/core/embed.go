package core

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"newslink/internal/kg"
	"newslink/internal/lru"
)

// DocEmbedding is the subgraph embedding of a whole news document: the
// union of the G* of every entity group in its maximal entity co-occurrence
// set (Section VI). Counts records, per node, the number of per-segment
// subgraphs containing it — the term frequency of the Bag-Of-Node model.
type DocEmbedding struct {
	Subgraphs []*Subgraph
	Counts    map[kg.NodeID]int
}

// NodeTerm names a KG node in the Bag-Of-Node vocabulary: its ID in base
// 36. The BON index, BON queries and entity facets all spell a node this
// way.
func NodeTerm(n kg.NodeID) string { return strconv.FormatUint(uint64(n), 36) }

// NodeTerms returns the embedding as a BON document, in the form
// index.Builder.Add takes: the sorted multiset of its node terms, node n
// repeated Counts[n] times. A nil embedding has no terms.
func (d *DocEmbedding) NodeTerms() []string {
	if d == nil {
		return nil
	}
	total := 0
	for _, c := range d.Counts {
		total += c
	}
	terms := make([]string, 0, total)
	for n, c := range d.Counts {
		t := NodeTerm(n)
		for range c {
			terms = append(terms, t)
		}
	}
	sort.Strings(terms)
	return terms
}

// EmbedStats reports what one EmbedGroups call did, replacing the old
// pattern of reaching into the embedder's searcher internals.
type EmbedStats struct {
	// Groups is the number of entity groups submitted.
	Groups int
	// Embedded is the number of groups that produced a subgraph.
	Embedded int
	// ResolvedLabels is the total number of labels (deduplicated per group)
	// that resolved to at least one KG node across embedded groups.
	ResolvedLabels int
	// Expansions is the total number of path enumerations of the groups
	// that found a root, cached ones included (for a group served from the
	// cache, the expansions its original search paid). A search that finds
	// no root reports nothing: its count is not even computed.
	Expansions int
	// GroupCacheHits counts groups served from the embedder's per-group
	// subgraph cache.
	GroupCacheHits int
	// CacheHit is set by engine-level callers when the whole document
	// embedding was served from a higher-tier cache (e.g. the entity-set
	// cache); the core embedder itself never sets it.
	CacheHit bool
}

// Embedder turns entity groups into document embeddings. It owns its
// Searcher (and therefore the pooled traversal states), an optional
// per-entity-group subgraph cache, and the fan-out policy for embedding a
// document's groups in parallel. It is safe for concurrent use.
type Embedder struct {
	s       *Searcher
	workers int
	// cache memoizes entity-group → *Subgraph under groupKey; nil when
	// Options.GroupCacheSize == 0. Values are shared pointers and must be
	// treated as immutable.
	cache *lru.Cache[*Subgraph]
}

// NewEmbedder returns an Embedder over g. It builds and owns its searcher;
// Options.EmbedWorkers and Options.GroupCacheSize configure the parallel
// fan-out and the per-group cache.
func NewEmbedder(g *kg.Graph, opts Options) *Embedder {
	return newEmbedder(NewSearcher(g, opts))
}

func newEmbedder(s *Searcher) *Embedder {
	e := &Embedder{s: s, workers: s.opts.EmbedWorkers}
	if n := s.opts.GroupCacheSize; n > 0 {
		e.cache = lru.New[*Subgraph](n)
	}
	return e
}

// Searcher returns the embedder's searcher.
func (e *Embedder) Searcher() *Searcher { return e.s }

// Graph returns the knowledge graph the embedder operates on.
func (e *Embedder) Graph() *kg.Graph { return e.s.g }

// EmbedGroups embeds one document given the entity groups of its maximal
// entity co-occurrence set. Groups with no embeddable entities are skipped;
// the result is nil when no group could be embedded (the paper filters such
// documents out of the corpus, Section VII-A2).
func (e *Embedder) EmbedGroups(groups [][]string) *DocEmbedding {
	d, _, _ := e.EmbedGroupsContext(nil, groups)
	return d
}

// EmbedGroupsContext is EmbedGroups with cancellation and statistics.
// Groups are embedded concurrently (up to Options.EmbedWorkers workers,
// GOMAXPROCS when 0) but the result is deterministic: subgraphs appear in
// group order and node counts are merged sequentially, so the embedding is
// byte-identical to a sequential run. A nil ctx disables cancellation.
func (e *Embedder) EmbedGroupsContext(ctx context.Context, groups [][]string) (*DocEmbedding, EmbedStats, error) {
	stats := EmbedStats{Groups: len(groups)}
	switch len(groups) {
	case 0:
		return nil, stats, nil
	case 1: // nearly every query: no fan-out to set up
		sg, hit, err := e.embedGroup(ctx, groups[0])
		if err != nil {
			return nil, stats, err
		}
		d := stats.merge(nil, sg, hit)
		return d, stats, nil
	}
	sgs := make([]*Subgraph, len(groups))
	hits := make([]bool, len(groups))
	var firstErr atomic.Value

	embedOne := func(i int) {
		sg, hit, err := e.embedGroup(ctx, groups[i])
		if err != nil {
			firstErr.CompareAndSwap(nil, err)
			return
		}
		sgs[i], hits[i] = sg, hit
	}

	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		for i := range groups {
			embedOne(i)
			if firstErr.Load() != nil {
				break
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(groups) || firstErr.Load() != nil {
						return
					}
					embedOne(i)
				}
			}()
		}
		wg.Wait()
	}
	if err, ok := firstErr.Load().(error); ok {
		return nil, stats, err
	}

	// Merge in group order — identical to the sequential seed path.
	var d *DocEmbedding
	for i, sg := range sgs {
		d = stats.merge(d, sg, hits[i])
	}
	return d, stats, nil
}

// merge folds one group's result into the statistics and into d (created
// on the first embedded group), and returns d.
func (stats *EmbedStats) merge(d *DocEmbedding, sg *Subgraph, hit bool) *DocEmbedding {
	if hit {
		stats.GroupCacheHits++
	}
	if sg == nil {
		return d
	}
	stats.Embedded++
	stats.ResolvedLabels += len(sg.Labels)
	stats.Expansions += sg.Expansions
	if d == nil {
		d = &DocEmbedding{Counts: make(map[kg.NodeID]int)}
	}
	d.Subgraphs = append(d.Subgraphs, sg)
	for _, n := range sg.Nodes {
		d.Counts[n]++
	}
	return d
}

// embedGroup embeds one entity group, consulting the per-group cache when
// enabled. Cached subgraphs are shared pointers: treat them as immutable
// (every in-tree consumer only reads them).
func (e *Embedder) embedGroup(ctx context.Context, labels []string) (*Subgraph, bool, error) {
	var key string
	if e.cache != nil {
		key = e.groupKey(labels)
		if key != "" {
			if sg, ok := e.cache.Get(key); ok {
				return sg, true, nil
			}
		}
	}
	sg, err := e.s.FindContext(ctx, labels)
	if err != nil {
		return nil, false, err
	}
	if e.cache != nil && key != "" && sg != nil {
		e.cache.Put(key, sg)
	}
	return sg, false, nil
}

// groupKey canonicalizes an entity group into its cache key: labels are
// folded, deduplicated in first-seen order, and dropped unless they resolve
// to at least one KG node — mirroring Find's own label registration, so
// equal keys provably enumerate the same frontier and a hit returns a
// subgraph byte-identical to a fresh search, while groups that differ only
// in unresolvable labels, duplicate labels, case or whitespace share an
// entry. Returns "" when nothing resolves (Find would return nil; not
// worth caching).
func (e *Embedder) groupKey(labels []string) string {
	resolved := make([]string, 0, len(labels))
outer:
	for _, l := range labels {
		key := kg.Fold(l)
		for _, r := range resolved {
			if r == key {
				continue outer
			}
		}
		if len(e.s.g.Lookup(key)) == 0 {
			continue
		}
		resolved = append(resolved, key)
	}
	if len(resolved) == 0 {
		return ""
	}
	return strings.Join(resolved, "\x1f")
}

// Nodes returns the distinct nodes of the document embedding in ascending
// order.
func (d *DocEmbedding) Nodes() []kg.NodeID {
	out := make([]kg.NodeID, 0, len(d.Counts))
	for n := range d.Counts {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Overlap returns the nodes present in both embeddings, the concrete
// evidence of relatedness the paper visualizes (Figure 1: "the blue part in
// the dotted box").
func (d *DocEmbedding) Overlap(other *DocEmbedding) []kg.NodeID {
	if d == nil || other == nil {
		return nil
	}
	var out []kg.NodeID
	for n := range d.Counts {
		if other.Counts[n] > 0 {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PathsBetween searches every per-segment subgraph for relationship paths
// between two labels and returns up to limit of them, shortest first.
func (d *DocEmbedding) PathsBetween(a, b string, limit int) []RelPath {
	if d == nil {
		return nil
	}
	var out []RelPath
	for _, sg := range d.Subgraphs {
		out = append(out, sg.PathsBetween(a, b, limit)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].Hops) < len(out[j].Hops) })
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}
