package core

import (
	"container/heap"
	"math/rand"
	"strconv"
	"testing"

	"newslink/internal/kg"
)

// BenchmarkColdLabelRecurrence measures what a per-label cache of G*
// search balls could hit on the benchmark's search-cold traffic, and what
// one entry costs (DESIGN.md §12):
//
//	go test -run '^$' -bench ColdLabelRecurrence -benchtime 1x ./internal/core
//
// It replays the labels of search-cold's query sequence at seed 61 — the
// 1,250-country KG, four entities per query from events a quarter of the
// catalogue apart, as bench/workloads.go's coldQuery and coprimeStride
// build them — over the open loop of a 15 s run (11 s at 200 queries/s).
// recurW_pct is the share of label uses whose label was used within the
// last W label uses; distinct4096 is the number of distinct labels among
// the last 4,096 uses, the entries a cache over that window holds; and
// ball_pairs is the mean number of (node, distance) pairs within distance
// 6 (Config.MaxDepth) of a label's nodes, over the first 256 distinct
// labels.
//
// The label sets come from coldLabelSets, a hand copy of bench/workloads.go
// (coldQuery, coprimeStride) that nothing keeps in step: if either
// changes, re-check the copy. Against the bench as it stands it reports nodes
// 101407, events 15000, recur256_pct 0.0, recur1024_pct 3.9,
// recur4096_pct 24.8, distinct4096 3619 and ball_pairs 1583; a different
// figure means the copy has drifted or the KG generator changed.
func BenchmarkColdLabelRecurrence(b *testing.B) {
	w, sets := coldLabelSets(61, 11*200)
	evs, g := w.Events, w.Graph
	var labels []string
	for _, set := range sets {
		labels = append(labels, set...)
	}
	b.ReportMetric(float64(g.NumNodes()), "nodes")
	b.ReportMetric(float64(len(evs)), "events")
	for _, window := range []int{256, 1024, 4096} {
		last, recur := map[string]int{}, 0
		for i, l := range labels {
			if p, ok := last[l]; ok && i-p <= window {
				recur++
			}
			last[l] = i
		}
		b.ReportMetric(100*float64(recur)/float64(len(labels)), "recur"+strconv.Itoa(window)+"_pct")
	}
	window := map[string]bool{}
	for _, l := range labels[len(labels)-4096:] {
		window[l] = true
	}
	b.ReportMetric(float64(len(window)), "distinct4096")
	seen, pairs := map[string]bool{}, 0
	for _, l := range labels {
		if len(seen) == 256 {
			break
		}
		if !seen[l] {
			seen[l] = true
			pairs += ballSize(g, g.Lookup(l), 6)
		}
	}
	b.ReportMetric(float64(pairs)/float64(len(seen)), "ball_pairs")
}

// coldLabelSets generates search-cold's world at seed (the 1,250-country
// KG) and the label sets of its first n queries: four entities from events
// a quarter of the catalogue apart, as bench/workloads.go's coldQuery
// builds them. It and coldStride are hand copies of that file, kept in
// step by hand.
func coldLabelSets(seed int64, n int) (*kg.World, [][]string) {
	cfg := kg.DefaultConfig(seed)
	cfg.Countries = 1250
	w := kg.Generate(cfg)
	evs, g := w.Events, w.Graph
	stride := coldStride(len(evs), seed)
	sets := make([][]string, n)
	for q := range sets {
		for j := range 4 {
			ev := evs[(q*stride+j*len(evs)/4)%len(evs)]
			node := ev.Location
			if j%2 == 0 && len(ev.Participants) > 0 {
				node = ev.Participants[(q/len(evs))%len(ev.Participants)]
			}
			sets[q] = append(sets[q], g.Label(node))
		}
	}
	return w, sets
}

// coldStride is bench/workloads.go's coprimeStride.
func coldStride(n int, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	for {
		s := n/3 + rng.Intn(n/3+1)
		a, c := s, n
		for c != 0 {
			a, c = c, a%c
		}
		if a == 1 {
			return s
		}
	}
}

// ballSize counts the nodes within weighted distance depth of srcs: the
// (node, distance) pairs one label's radius-bounded search settles.
func ballSize(g *kg.Graph, srcs []kg.NodeID, depth float64) int {
	dist := map[kg.NodeID]float64{}
	h := &distHeap{}
	for _, s := range srcs {
		dist[s] = 0
		heap.Push(h, distItem{s, 0})
	}
	settled := 0
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > dist[it.n] {
			continue
		}
		settled++
		for k := range g.Degree(it.n) {
			a := g.Arc(it.n, k)
			d := it.d + a.Weight
			if old, ok := dist[a.To]; d <= depth && (!ok || d < old) {
				dist[a.To] = d
				heap.Push(h, distItem{a.To, d})
			}
		}
	}
	return settled
}

type distItem struct {
	n kg.NodeID
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
