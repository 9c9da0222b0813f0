package core

import (
	"context"
	"sync"

	"newslink/internal/kg"
)

// Searcher finds subgraph embeddings in a knowledge graph. It is safe for
// concurrent use: traversal states are recycled through an internal
// sync.Pool, so concurrent Find calls each borrow an independent state and
// a steady-state query allocates nothing in the enumeration loop.
//
// The traversal reads g's adjacency in place and keeps no copy of it: a
// node's neighbours are g.Targets(v), a slice of the graph's 4-byte target
// column, so a cold query that touches thousands of adjacency lists once
// each pays 4 bytes an arc in cache misses. Weights are read from
// g.Weights(v) only when g.WeightRange says the arcs do not all weigh the
// same.
type Searcher struct {
	g    *kg.Graph
	opts Options
	pool sync.Pool // of *state
}

// NewSearcher returns a Searcher over g with the given options.
func NewSearcher(g *kg.Graph, opts Options) *Searcher {
	if opts.MaxExpansions <= 0 {
		opts.MaxExpansions = DefaultMaxExpansions
	}
	s := &Searcher{g: g, opts: opts}
	s.pool.New = func() any { return newState(s) }
	return s
}

// Graph returns the knowledge graph the searcher operates on.
func (s *Searcher) Graph() *kg.Graph { return s.g }

// Options returns the search options the searcher was built with.
func (s *Searcher) Options() Options { return s.opts }

// Find implements Algorithm 1: it returns the optimal subgraph embedding for
// the entity labels of one news segment, or nil if no common ancestor exists
// within the traversal budget. Labels that do not resolve to any KG node are
// ignored; if none resolve, Find returns nil.
func (s *Searcher) Find(labels []string) *Subgraph {
	sg, _ := s.FindContext(nil, labels)
	return sg
}

// FindContext is Find with cooperative cancellation: the enumeration loop
// polls ctx periodically and returns (nil, ctx.Err()) once it is done. A
// nil ctx disables polling entirely.
func (s *Searcher) FindContext(ctx context.Context, labels []string) (*Subgraph, error) {
	st := s.pool.Get().(*state)
	defer func() {
		st.release()
		s.pool.Put(st)
	}()
	st.begin(ctx)
	if !st.init(labels) {
		return nil, nil
	}
	st.run()
	if st.err != nil {
		return nil, st.err
	}
	return st.best(), nil
}

// item is one frontier entry: node v at tentative distance d from label li.
type item struct {
	d  float64
	li int32
	v  kg.NodeID
}

// less is the reference frontier's strict total order implementing
// Equation 2: the next path enumerated is the globally smallest distance
// across all labels' queues F_i, ties broken on label then node.
func (a item) less(b item) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	if a.li != b.li {
		return a.li < b.li
	}
	return a.v < b.v
}

// frontier is a container/heap min-priority queue of items: the exact GST
// baseline's Dijkstra relaxation and the reference G* (reference_test.go)
// use it. The G* search itself runs on the bucket queue in state.go.
type frontier []item

func (f frontier) Len() int           { return len(f) }
func (f frontier) Less(i, j int) bool { return f[i].less(f[j]) }
func (f frontier) Swap(i, j int)      { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x any)        { *f = append(*f, x.(item)) }
func (f *frontier) Pop() any {
	old := *f
	n := len(old)
	it := old[n-1]
	*f = old[:n-1]
	return it
}
