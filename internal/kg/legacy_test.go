package kg

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file keeps a test-only port of the graph as it was stored before the
// column layout — one []Arc per node sorted with sort.Slice, a
// map[string][]NodeID label index, strings.Fields folding — as the oracle
// the column-wise Graph must agree with arc for arc and key for key.

func legacyFold(label string) string {
	return strings.Join(strings.Fields(strings.ToLower(label)), " ")
}

type legacyGraph struct {
	nodes   []Node
	rels    []string
	arcs    [][]Arc
	exact   map[string][]NodeID
	aliases map[string][]NodeID
}

type legacyBuilder struct {
	nodes   []Node
	rels    []string
	relByID map[string]RelID
	arcs    [][]Arc
	aliases map[string][]NodeID
}

func (b *legacyBuilder) AddNode(label string, kind Kind, desc string) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{Label: label, Kind: kind, Desc: desc})
	b.arcs = append(b.arcs, nil)
	return id
}

func (b *legacyBuilder) AddAlias(node NodeID, alias string) {
	if b.aliases == nil {
		b.aliases = make(map[string][]NodeID)
	}
	key := legacyFold(alias)
	if key == "" {
		return
	}
	b.aliases[key] = append(b.aliases[key], node)
}

func (b *legacyBuilder) Rel(name string) RelID {
	if b.relByID == nil {
		b.relByID = make(map[string]RelID)
	}
	if id, ok := b.relByID[name]; ok {
		return id
	}
	id := RelID(len(b.rels))
	b.rels = append(b.rels, name)
	b.relByID[name] = id
	return id
}

func (b *legacyBuilder) AddEdge(from, to NodeID, rel RelID, weight float64) {
	b.arcs[from] = append(b.arcs[from], Arc{To: to, Rel: rel, Weight: weight})
	b.arcs[to] = append(b.arcs[to], Arc{To: from, Rel: rel, Weight: weight, Reverse: true})
}

func (b *legacyBuilder) Build() *legacyGraph {
	for _, arcs := range b.arcs {
		sort.Slice(arcs, func(i, j int) bool {
			if arcs[i].To != arcs[j].To {
				return arcs[i].To < arcs[j].To
			}
			return arcs[i].Rel < arcs[j].Rel
		})
	}
	g := &legacyGraph{nodes: b.nodes, rels: b.rels, arcs: b.arcs, aliases: b.aliases,
		exact: make(map[string][]NodeID)}
	for i, n := range b.nodes {
		if key := legacyFold(n.Label); key != "" {
			g.exact[key] = append(g.exact[key], NodeID(i))
		}
	}
	for alias, ids := range b.aliases {
		key := legacyFold(alias)
		for _, id := range ids {
			if !containsID(g.exact[key], id) {
				g.exact[key] = append(g.exact[key], id)
			}
		}
	}
	return g
}

func containsID(ids []NodeID, id NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// legacyRead is the TSV reader of the legacy graph, minus error handling:
// it only reads dumps Write produced.
func legacyRead(t *testing.T, r io.Reader) *legacyGraph {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var b legacyBuilder
	atoi := func(s string) int {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		switch f[0] {
		case "N":
			b.AddNode(f[3], KindFromString(f[2]), f[4])
		case "A":
			b.AddAlias(NodeID(atoi(f[1])), f[2])
		case "E":
			w, err := strconv.ParseFloat(f[4], 64)
			if err != nil {
				t.Fatal(err)
			}
			b.AddEdge(NodeID(atoi(f[1])), NodeID(atoi(f[3])), b.Rel(f[2]), w)
		}
	}
	return b.Build()
}

// legacyWrite is the TSV writer of the legacy graph.
func legacyWrite(w io.Writer, g *legacyGraph) {
	for i, n := range g.nodes {
		fmt.Fprintf(w, "N\t%d\t%s\t%s\t%s\n", i, n.Kind, sanitize(n.Label), sanitize(n.Desc))
	}
	for i, arcs := range g.arcs {
		for _, a := range arcs {
			if !a.Reverse {
				fmt.Fprintf(w, "E\t%d\t%s\t%d\t%g\n", i, g.rels[a.Rel], a.To, a.Weight)
			}
		}
	}
	var names []string
	for alias := range g.aliases {
		names = append(names, alias)
	}
	sort.Strings(names)
	for _, alias := range names {
		nodes := append([]NodeID(nil), g.aliases[alias]...)
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, n := range nodes {
			fmt.Fprintf(w, "A\t%d\t%s\n", n, sanitize(alias))
		}
	}
}

// sameAsLegacy checks g against the oracle: every node, every arc of every
// node in order, the weight columns, every index key's node set in order,
// and the TSV dump.
func sameAsLegacy(t *testing.T, g *Graph, want *legacyGraph) {
	t.Helper()
	if g.NumNodes() != len(want.nodes) || g.NumRels() != len(want.rels) {
		t.Fatalf("size: %d nodes %d rels, want %d, %d", g.NumNodes(), g.NumRels(), len(want.nodes), len(want.rels))
	}
	lo, hi := g.WeightRange()
	for v, n := range want.nodes {
		id := NodeID(v)
		if got := g.Node(id); got != n || g.Label(id) != n.Label {
			t.Fatalf("node %d = %+v, want %+v", v, got, n)
		}
		arcs := want.arcs[v]
		if g.Degree(id) != len(arcs) {
			t.Fatalf("node %d: degree %d, want %d", v, g.Degree(id), len(arcs))
		}
		ws := g.Weights(id)
		for k, a := range arcs {
			if got := g.Arc(id, k); got != a {
				t.Fatalf("node %d arc %d = %+v, want %+v", v, k, got, a)
			}
			if g.Targets(id)[k] != a.To {
				t.Fatalf("node %d target %d = %d, want %d", v, k, g.Targets(id)[k], a.To)
			}
			if ws != nil && ws[k] != a.Weight || ws == nil && a.Weight != lo {
				t.Fatalf("node %d weight %d: column %v, range %v, want %v", v, k, ws, lo, a.Weight)
			}
			if a.Weight < lo || a.Weight > hi {
				t.Fatalf("node %d arc %d weight %v outside WeightRange [%v, %v]", v, k, a.Weight, lo, hi)
			}
		}
		if got, want := g.Lookup(n.Label), want.exact[legacyFold(n.Label)]; !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%q) = %v, want %v", n.Label, got, want)
		}
	}
	if (ws(g) == nil) != (lo == hi) {
		t.Fatalf("weight column present = %v with range [%v, %v]", ws(g) != nil, lo, hi)
	}
	if g.Index().Size() != len(want.exact) {
		t.Fatalf("index Size = %d, want %d", g.Index().Size(), len(want.exact))
	}
	seen := 0
	g.Index().Labels(func(key string, nodes []NodeID) bool {
		seen++
		if !reflect.DeepEqual(nodes, want.exact[key]) {
			t.Fatalf("Labels: %q -> %v, want %v", key, nodes, want.exact[key])
		}
		if got := g.Lookup(key); !reflect.DeepEqual(got, nodes) {
			t.Fatalf("Lookup(%q) = %v, want %v", key, got, nodes)
		}
		return true
	})
	if seen != len(want.exact) {
		t.Fatalf("Labels visited %d keys, want %d", seen, len(want.exact))
	}
	var got, exp bytes.Buffer
	if err := Write(&got, g); err != nil {
		t.Fatal(err)
	}
	legacyWrite(&exp, want)
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Fatalf("Write differs from the legacy dump:\n%s\nwant\n%s", got.Bytes(), exp.Bytes())
	}
}

// ws returns g's whole weight column (nil when uniform).
func ws(g *Graph) []float64 { return g.arcW }

// TestColumnGraphMatchesLegacy builds random graphs — repeated and
// case-variant labels, shared descriptions, self-loops, parallel edges of
// one relation that differ only in weight, duplicate and empty aliases —
// through both builders with the same calls, and reads generated worlds'
// TSV dumps with both readers.
func TestColumnGraphMatchesLegacy(t *testing.T) {
	labels := []string{"Alpha", "alpha", " ALPHA ", "Beta  Gamma", "beta gamma", "Ünïcode", "Straße",
		"x\ty", "", "  ", "Delta", "Epsilon River", "epsilon river"}
	descs := []string{"", "a place", "a person", "a place", "another"}
	rels := []string{"located in", "member of", "near"}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var nb Builder
		var lb legacyBuilder
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			l, k, d := labels[rng.Intn(len(labels))], Kind(rng.Intn(12)), descs[rng.Intn(len(descs))]
			if nb.AddNode(l, k, d) != lb.AddNode(l, k, d) {
				t.Fatal("node IDs differ")
			}
		}
		weights := []float64{1, 1, 2, 0.5, 3.25}
		if rng.Intn(3) == 0 {
			weights = []float64{2}
		}
		for e := rng.Intn(4 * n); e > 0; e-- {
			from, to := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if rng.Intn(8) == 0 {
				to = from
			}
			rel, w := rels[rng.Intn(len(rels))], weights[rng.Intn(len(weights))]
			nb.AddEdgeByName(from, to, rel, w)
			lb.AddEdge(from, to, lb.Rel(rel), w)
			if rng.Intn(6) == 0 { // a parallel edge of the same relation
				w = weights[rng.Intn(len(weights))]
				nb.AddEdgeByName(to, from, rel, w)
				lb.AddEdge(to, from, lb.Rel(rel), w)
			}
		}
		for a := rng.Intn(n); a > 0; a-- {
			v, alias := NodeID(rng.Intn(n)), labels[rng.Intn(len(labels))]
			nb.AddAlias(v, alias)
			lb.AddAlias(v, alias)
		}
		g, want := nb.Build(), lb.Build()
		sameAsLegacy(t, g, want)

		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: Read of Write: %v", seed, err)
		}
		sameAsLegacy(t, g2, legacyRead(t, bytes.NewReader(buf.Bytes())))
	}

	for _, c := range []struct {
		countries int
		seed      int64
	}{{20, 7}, {20, 11}, {1250, 7}} {
		cfg := DefaultConfig(c.seed)
		cfg.Countries = c.countries
		var buf bytes.Buffer
		if err := Write(&buf, Generate(cfg).Graph); err != nil {
			t.Fatal(err)
		}
		g, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		sameAsLegacy(t, g, legacyRead(t, bytes.NewReader(buf.Bytes())))
	}
}
