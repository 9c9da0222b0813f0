package core

import (
	"sort"

	"newslink/internal/kg"
)

// FindK returns up to k subgraph embeddings ordered by the compactness
// order (Definition 4), the full output of Algorithm 1's compactness
// sorting rather than just its optimum. Rank 0 equals Find's result.
// Additional ranks expose the runner-up common ancestor graphs, useful for
// diagnostics and for presenting alternative relationship contexts.
//
// The candidate set is collected under the same termination conditions as
// Find, so ranks beyond 0 are best-effort: a root whose depth exceeds the
// first candidate's depth may not have been discovered. Callers needing an
// exhaustive ranking can pass Options.NoEarlyStop with a MaxDepth bound.
func (s *Searcher) FindK(labels []string, k int) []*Subgraph {
	if k <= 0 {
		return nil
	}
	st := s.pool.Get().(*state)
	defer func() {
		st.release()
		s.pool.Put(st)
	}()
	st.begin(nil)
	if !st.init(labels) {
		return nil
	}
	st.run()
	if len(st.cands) == 0 {
		return nil
	}
	type ranked struct {
		s   uint32
		v   kg.NodeID
		vec []float64
	}
	all := make([]ranked, 0, len(st.cands))
	for _, s := range st.cands {
		vec := make([]float64, st.m)
		st.fillVec(vec, s)
		all = append(all, ranked{s, st.slots[s].node, vec})
	}
	sort.Slice(all, func(i, j int) bool {
		switch {
		case st.opts.Model == ModelTree:
			si, sj := sumVec(all[i].vec), sumVec(all[j].vec)
			if si != sj {
				return si < sj
			}
		case st.opts.DepthOnly:
			if all[i].vec[0] != all[j].vec[0] {
				return all[i].vec[0] < all[j].vec[0]
			}
		}
		if c := CompareCompactness(all[i].vec, all[j].vec); c != 0 {
			return c < 0
		}
		return all[i].v < all[j].v
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]*Subgraph, k)
	for i := 0; i < k; i++ {
		out[i] = st.reconstruct(all[i].s)
	}
	return out
}
