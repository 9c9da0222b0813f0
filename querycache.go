package newslink

import (
	"context"
	"sort"
	"strings"

	"newslink/internal/core"
	"newslink/internal/kg"
	"newslink/internal/lru"
	"newslink/internal/nlp"
	"newslink/internal/obs"
)

// queryCacheSize bounds the text-keyed query-analysis tier. A search UI
// calls Search and then Explain/ExplainDOT for several results of the same
// query; the tier only has to span that burst.
const queryCacheSize = 64

// groupCacheSize bounds the embedder's per-entity-group subgraph LRU — the
// memoized label-set → subgraph (and thereby label → distance vector)
// store for the hottest entity combinations, shared by indexing and
// queries.
const groupCacheSize = 256

// graphState bundles the knowledge graph with everything derived from it:
// the NLP pipeline (entity recognition against the graph's label index),
// the subgraph embedder (with its pooled traversal states and per-group
// cache) and the two query-analysis cache tiers, whose entries are
// embeddings of this graph. An engine has one, for its whole life.
type graphState struct {
	g        *kg.Graph
	pipe     *nlp.Pipeline
	embedder *core.Embedder

	// queries is tier one: the analysis (NLP + subgraph embedding, the cost
	// that dominates query latency — Table VIII) of one query text, keyed
	// by kg.Fold of the text. Cached analyses are safely shared across
	// requests with different After/Before/Entities clauses: filters apply
	// at retrieval, after analysis and embedding.
	queries *lru.Cache[analyzedDoc]
	// embeds is tier two, consulted on a text miss: embeddings keyed by the
	// canonicalized resolved entity set (entitySetKey), so differently
	// phrased queries naming the same entities — "Trump  Putin summit",
	// "putin, trump" — share one G* computation. A nil embedding is a valid
	// entry (the entity set resolved but nothing was embeddable).
	embeds *lru.Cache[*core.DocEmbedding]
}

// analyzedDoc is the NLP/NE output for one query text, the value type of
// the query cache: its terms, in text order, and its subgraph embedding.
type analyzedDoc struct {
	emb   *core.DocEmbedding
	terms []string
}

// newGraphState derives the graph-side components from g under the
// engine's configuration, with cold caches.
func (e *Engine) newGraphState(g *kg.Graph) *graphState {
	return &graphState{
		g:    g,
		pipe: nlp.NewPipeline(g.Index()),
		embedder: core.NewEmbedder(g, core.Options{
			Model:          e.cfg.Model,
			MaxDepth:       e.cfg.MaxDepth,
			MaxExpansions:  e.cfg.MaxExpansions,
			EmbedWorkers:   e.opts.embedWorkers,
			GroupCacheSize: groupCacheSize,
		}),
		queries: lru.New[analyzedDoc](queryCacheSize),
		embeds:  lru.New[*core.DocEmbedding](e.opts.embedCacheSize),
	}
}

// embedDoc embeds an analyzed document: the G* of each of its maximal
// entity groups (Section VI), with no query cache and no query-stage
// metric. Indexing and the re-derivation behind Explain, ExplainDOT and
// Related both embed through it, so they agree.
func (gs *graphState) embedDoc(doc *nlp.Document) *core.DocEmbedding {
	return gs.embedder.EmbedGroups(nlp.MaximalSets(doc.EntityGroups()))
}

// Graph returns the underlying knowledge graph.
func (e *Engine) Graph() *kg.Graph { return e.gs.g }

// analyzeQuery is query analysis with two-tier LRU memoization; Search,
// Explain and ExplainDOT on the same query text share one NLP + NE pass.
// Tier one keys on the folded query text (lowercased, whitespace collapsed
// — "Trump  Putin" and "trump putin" are one entry); tier two, consulted
// on a text miss, keys on the canonicalized resolved entity set. It records the "analyze" stage span into the request trace
// (cache hits included: a hit still shows up in the breakdown, just with a
// near-zero duration). A non-nil error is ctx's: nothing is cached then.
func (e *Engine) analyzeQuery(ctx context.Context, text string) (*core.DocEmbedding, []string, error) {
	sp := obs.FromContext(ctx).Start(obs.StageAnalyze)
	key := kg.Fold(text)
	an, hit := e.gs.queries.Get(key)
	var err error
	if hit {
		e.met.cacheHits.Inc()
	} else {
		e.met.cacheMisses.Inc()
		an, err = e.analyzeQueryMiss(ctx, text)
		if err == nil {
			e.gs.queries.Put(key, an)
		}
	}
	d := sp.End(obs.Bool("cache_hit", hit), obs.Int("terms", len(an.terms)))
	e.met.stageObserve(obs.StageAnalyze, d)
	return an.emb, an.terms, err
}

// analyzeQueryMiss runs the NLP component, then resolves the embedding
// through the entity-set cache, embedding the groups only on a full miss.
// The embed stage span and the newslink_embed_* counters record what
// happened either way.
func (e *Engine) analyzeQueryMiss(ctx context.Context, text string) (analyzedDoc, error) {
	gs := e.gs
	doc := gs.pipe.Process(text)
	var terms []string
	for _, s := range doc.Sentences {
		terms = append(terms, s.Terms...)
	}
	groups := nlp.MaximalSets(doc.EntityGroups())
	sp := obs.FromContext(ctx).Start(obs.StageEmbed)
	var stats core.EmbedStats
	var emb *core.DocEmbedding
	key := entitySetKey(gs.g, groups)
	hit := false
	if key != "" {
		if emb, hit = gs.embeds.Get(key); hit {
			e.met.embedCacheHits.Inc()
		} else {
			e.met.embedCacheMisses.Inc()
		}
	}
	if hit {
		stats.Groups = len(groups)
		stats.CacheHit = true
	} else {
		var err error
		emb, stats, err = gs.embedder.EmbedGroupsContext(ctx, groups)
		if err != nil {
			sp.End(obs.Int("groups", len(groups)))
			return analyzedDoc{}, err
		}
		if key != "" {
			gs.embeds.Put(key, emb)
		}
	}
	d := sp.End(
		obs.Int("groups", stats.Groups),
		obs.Int("embedded", stats.Embedded),
		obs.Int("expansions", stats.Expansions),
		obs.Bool("cache_hit", stats.CacheHit),
		obs.Int("group_cache_hits", stats.GroupCacheHits),
	)
	e.met.stageObserve(obs.StageEmbed, d)
	e.met.embedObserve(stats)
	return analyzedDoc{emb: emb, terms: terms}, nil
}

// entitySetKey canonicalizes a document's entity groups into the tier-two
// cache key: within each group the labels are folded, deduplicated and
// kept only when they resolve to a KG node, then sorted; group keys are
// themselves sorted (duplicates kept — two equal groups contribute twice
// to node counts). Queries that differ only in phrasing, label order, case
// or unresolvable mentions therefore share one key. Returns "" when no
// group has a resolvable label, which callers treat as "don't cache".
func entitySetKey(g *kg.Graph, groups [][]string) string {
	gkeys := make([]string, 0, len(groups))
	for _, grp := range groups {
		resolved := make([]string, 0, len(grp))
	labels:
		for _, l := range grp {
			key := kg.Fold(l)
			for _, r := range resolved {
				if r == key {
					continue labels
				}
			}
			if len(g.Lookup(key)) == 0 {
				continue
			}
			resolved = append(resolved, key)
		}
		if len(resolved) == 0 {
			continue // the group cannot embed; it contributes nothing
		}
		sort.Strings(resolved)
		gkeys = append(gkeys, strings.Join(resolved, "\x1f"))
	}
	if len(gkeys) == 0 {
		return ""
	}
	sort.Strings(gkeys)
	return strings.Join(gkeys, "\x1e")
}
