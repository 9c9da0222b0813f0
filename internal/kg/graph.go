// Package kg implements the knowledge-graph substrate used by NewsLink.
//
// The paper embeds news documents into Wikidata; here the graph is an
// in-memory, labeled, weighted property graph. Following Section V-A of the
// paper the graph is treated as bidirected: for every relationship edge a
// reversed arc is materialized so that shortest-path distances are symmetric.
// Arcs remember whether they are the original or the reversed direction so
// relationship paths can be rendered faithfully (e.g. "Lahore -located in->
// Pakistan" rather than the reverse).
package kg

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// NodeID identifies an entity node. IDs are dense, starting at 0, so they
// index directly into the graph's internal slices.
type NodeID uint32

// RelID identifies a relationship type in the graph's relation vocabulary.
type RelID uint16

// Kind is the coarse entity type attached to a node. It mirrors the entity
// types the paper's NLP component keeps after NER (Section IV): everything
// except numbers and quantities.
type Kind uint8

// Entity kinds considered during entity recognition (Section IV).
const (
	KindUnknown Kind = iota
	KindPerson
	KindNORP // nationality, religious or political group
	KindFacility
	KindOrg
	KindGPE // geo-political entity
	KindLocation
	KindProduct
	KindEvent
	KindWorkOfArt
	KindLaw
	KindLanguage
)

var kindNames = [...]string{
	"unknown", "person", "norp", "facility", "org", "gpe",
	"location", "product", "event", "work_of_art", "law", "language",
}

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString parses the name produced by Kind.String. It returns
// KindUnknown for unrecognized names.
func KindFromString(s string) Kind { return kindOf(s) }

// kindOf is KindFromString for either text type, so Read parses a kind
// straight from its line buffer.
func kindOf[S string | []byte](s S) Kind {
	for i, n := range kindNames {
		if string(s) == n {
			return Kind(i)
		}
	}
	return KindUnknown
}

// Node is an entity node of the knowledge graph.
type Node struct {
	Label string // surface label used for exact-match entity linking
	Kind  Kind
	Desc  string // short description, used by the QEPRF baseline
}

// Arc is one direction of a (bidirected) relationship edge.
type Arc struct {
	To      NodeID
	Rel     RelID
	Weight  float64
	Reverse bool // true if this arc is the materialized reverse direction
}

// Graph is an immutable, bidirected, labeled, weighted knowledge graph.
// Build one with a Builder. The zero value is an empty graph.
//
// It is stored column-wise (DESIGN.md, "Knowledge-graph memory layout"):
// node labels and the interned descriptions live in two string arenas
// addressed by uint32 offsets, kinds in a byte column, and the adjacency in
// one CSR — per-node uint32 offsets into a 4-byte target column, a 2-byte
// relation column and a reverse bit, plus a weight column only when the
// arcs do not all weigh the same. The G* traversal reads the target column
// in place; there is no second copy of the adjacency.
type Graph struct {
	labels   string   // label of v is labels[labelOff[v]:labelOff[v+1]]
	labelOff []uint32 // len NumNodes+1
	kinds    []Kind
	descs    string   // distinct descriptions; d is descs[descOff[d]:descOff[d+1]]
	descOff  []uint32 // len distinct+1
	descOf   []uint32 // description of v is number descOf[v]
	rels     []string

	arcOff []uint32  // len NumNodes+1; v's arcs are positions arcOff[v]..arcOff[v+1]
	arcTo  []NodeID  //
	arcRel []RelID   //
	arcRev []uint64  // bit i is set if arc i is the materialized reverse
	arcW   []float64 // nil when every arc weighs minW (== maxW)
	minW   float64   // smallest and largest arc weight (0, 0 without arcs)
	maxW   float64

	index   LabelIndex
	aliases aliasList // every AddAlias, sorted for serialization
	edges   int       // number of original (pre-reversal) edges
}

// NumNodes returns the number of entity nodes.
func (g *Graph) NumNodes() int { return len(g.kinds) }

// NumEdges returns the number of original relationship edges (each is stored
// as two arcs internally).
func (g *Graph) NumEdges() int { return g.edges }

// Node returns the node with the given ID. It panics if id is out of range.
func (g *Graph) Node(id NodeID) Node {
	d := g.descOf[id]
	return Node{Label: g.Label(id), Kind: g.kinds[id], Desc: g.descs[g.descOff[d]:g.descOff[d+1]]}
}

// Label returns the label of the node with the given ID.
func (g *Graph) Label(id NodeID) string { return g.labels[g.labelOff[id]:g.labelOff[id+1]] }

// RelName returns the name of a relationship type.
func (g *Graph) RelName(r RelID) string { return g.rels[r] }

// NumRels returns the size of the relation vocabulary.
func (g *Graph) NumRels() int { return len(g.rels) }

// Degree returns the bidirected degree of id: the number of arcs leaving
// it, original and reversed.
func (g *Graph) Degree(id NodeID) int {
	return int(g.arcOff[id+1] - g.arcOff[id])
}

// Arc returns the k-th arc leaving id, 0 <= k < Degree(id). Arcs are
// ordered by (To, Rel).
func (g *Graph) Arc(id NodeID, k int) Arc {
	i := int(g.arcOff[id]) + k
	return Arc{To: g.arcTo[i], Rel: g.arcRel[i], Weight: g.weight(i), Reverse: g.arcRev[i>>6]>>(i&63)&1 != 0}
}

// Targets returns the heads of the arcs leaving id, in Arc order. The
// slice is the graph's own target column and must not be modified.
func (g *Graph) Targets(id NodeID) []NodeID {
	return g.arcTo[g.arcOff[id]:g.arcOff[id+1]]
}

// Weights returns the weights of the arcs leaving id, in Arc order, or nil
// when every arc of the graph weighs the same (WeightRange's lo == hi). The
// slice is shared and must not be modified.
func (g *Graph) Weights(id NodeID) []float64 {
	if g.arcW == nil {
		return nil
	}
	return g.arcW[g.arcOff[id]:g.arcOff[id+1]]
}

// WeightRange returns the smallest and largest arc weight, (0, 0) for a
// graph without arcs.
func (g *Graph) WeightRange() (lo, hi float64) { return g.minW, g.maxW }

func (g *Graph) weight(i int) float64 {
	if g.arcW == nil {
		return g.minW
	}
	return g.arcW[i]
}

// Index returns the label index for exact-match entity linking.
func (g *Graph) Index() *LabelIndex { return &g.index }

// Lookup returns S(l): the set of nodes whose label exactly matches l after
// case folding (Section V-A, Example 3).
func (g *Graph) Lookup(label string) []NodeID { return g.index.Lookup(label) }

// aliasList holds (folded alias, node) pairs, sorted by alias then node,
// duplicates kept: what Write serializes.
type aliasList struct {
	keys  string   // pair i's alias is keys[off[i]:off[i+1]]
	off   []uint32 //
	nodes []NodeID //
}

func (l *aliasList) len() int { return len(l.nodes) }

func (l *aliasList) key(i int) string { return l.keys[l.off[i]:l.off[i+1]] }

// span is a byte range [start, end) of a Builder arena.
type span struct{ start, end uint32 }

// Builder accumulates nodes and edges and produces an immutable Graph.
// The zero value is ready to use.
type Builder struct {
	text    []byte // labels and folded aliases
	labelAt []span // per node, into text
	kinds   []Kind
	descs   []byte    // distinct descriptions
	descOff []uint32  // description d is descs[descOff[d]:descOff[d+1]]
	descTab hashTable // over descs
	descOf  []uint32  // per node
	rels    []string
	relByID map[string]RelID

	// The edge list, in AddEdge order. w stays nil while every edge weighs
	// w0.
	from, to []NodeID
	rel      []RelID
	w        []float64
	w0       float64

	aliasNode []NodeID // in AddAlias order
	aliasAt   []span   // folded alias, into text
}

// NewBuilder returns a Builder with capacity hints for n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{
		labelAt: make([]span, 0, n),
		kinds:   make([]Kind, 0, n),
		descOf:  make([]uint32, 0, n),
	}
}

// AddNode appends a node and returns its ID.
func (b *Builder) AddNode(label string, kind Kind, desc string) NodeID {
	return addNode(b, label, kind, desc)
}

// addNode is AddNode for either text type, so Read adds a node straight
// from its line buffer.
func addNode[S string | []byte](b *Builder, label S, kind Kind, desc S) NodeID {
	id := NodeID(len(b.kinds))
	if int(id) != len(b.kinds) {
		panic("kg: more than 2^32 nodes")
	}
	b.labelAt = append(b.labelAt, appendText(b, label))
	b.kinds = append(b.kinds, kind)
	b.descOf = append(b.descOf, internDesc(b, desc))
	return id
}

// appendText copies s to the text arena and returns where it went.
func appendText[S string | []byte](b *Builder, s S) span {
	start := len(b.text)
	b.text = append(b.text, s...)
	if len(b.text) > math.MaxUint32 {
		panic("kg: more than 4 GiB of label text")
	}
	return span{uint32(start), uint32(len(b.text))}
}

// internDesc returns the number of desc in the description arena, adding
// it if it is new. Descriptions repeat ("a city in X"), so each distinct
// one is stored once.
func internDesc[S string | []byte](b *Builder, desc S) uint32 {
	if b.descOff == nil {
		b.descOff, b.descTab = []uint32{0}, newHashTable(64)
	}
	d, seen := intern(&b.descTab, desc, b.descs, b.descOff, uint32(len(b.descOff)-1))
	if seen {
		return d
	}
	b.descs = append(b.descs, desc...)
	if len(b.descs) > math.MaxUint32 {
		panic("kg: more than 4 GiB of descriptions")
	}
	b.descOff = append(b.descOff, uint32(len(b.descs)))
	if n := len(b.descOff) - 1; n == b.descTab.limit { // full: rehash into twice the room
		b.descTab = newHashTable(2 * n)
		for k := 0; k < n; k++ {
			intern(&b.descTab, b.descs[b.descOff[k]:b.descOff[k+1]], b.descs, b.descOff, uint32(k))
		}
	}
	return d
}

// label returns the label of a node added so far.
func (b *Builder) label(id NodeID) string {
	s := b.labelAt[id]
	return string(b.text[s.start:s.end])
}

// setLabel replaces a node's label; the old bytes stay in the arena until
// Build compacts it.
func (b *Builder) setLabel(id NodeID, label string) { b.labelAt[id] = appendText(b, label) }

// setDesc replaces a node's description.
func (b *Builder) setDesc(id NodeID, desc string) { b.descOf[id] = internDesc(b, desc) }

// AddAlias registers an additional surface form for a node; entity linking
// resolves the alias to the node exactly like its canonical label (real KGs
// such as Wikidata carry many aliases per entity). Adding the same alias
// for several nodes makes it ambiguous, like any shared label.
func (b *Builder) AddAlias(node NodeID, alias string) { addAlias(b, node, alias) }

func addAlias[S string | []byte](b *Builder, node NodeID, alias S) {
	if int(node) >= len(b.kinds) {
		panic("kg: alias node out of range")
	}
	var buf [64]byte
	key := appendFold(buf[:0], alias)
	if len(key) == 0 {
		return
	}
	b.aliasNode = append(b.aliasNode, node)
	b.aliasAt = append(b.aliasAt, appendText(b, key))
}

// Rel interns a relation name and returns its ID.
func (b *Builder) Rel(name string) RelID { return internRel(b, name) }

func internRel[S string | []byte](b *Builder, name S) RelID {
	if id, ok := b.relByID[string(name)]; ok {
		return id
	}
	if b.relByID == nil {
		b.relByID = make(map[string]RelID)
	}
	id := RelID(len(b.rels))
	b.rels = append(b.rels, string(name))
	b.relByID[string(name)] = id
	return id
}

// AddEdge adds a weighted relationship edge from→to and its reversed arc.
// Weights must be finite and positive. It panics on out-of-range node IDs
// and on any other weight.
func (b *Builder) AddEdge(from, to NodeID, rel RelID, weight float64) {
	if !validWeight(weight) {
		panic(fmt.Sprintf("kg: edge weight %v is not finite and positive", weight))
	}
	if int(from) >= len(b.kinds) || int(to) >= len(b.kinds) {
		panic("kg: edge endpoint out of range")
	}
	if 2*(len(b.from)+1) > math.MaxUint32 {
		panic("kg: more than 2^32 arcs")
	}
	switch {
	case len(b.from) == 0:
		b.w0 = weight
	case b.w == nil && weight != b.w0:
		b.w = make([]float64, len(b.from), cap(b.from))
		for i := range b.w {
			b.w[i] = b.w0
		}
	}
	if b.w != nil {
		b.w = append(b.w, weight)
	}
	b.from = append(b.from, from)
	b.to = append(b.to, to)
	b.rel = append(b.rel, rel)
}

// validWeight reports whether w can weigh an edge: finite and > 0.
func validWeight(w float64) bool { return w > 0 && !math.IsInf(w, 1) }

// AddEdgeByName is AddEdge with a relation name instead of a RelID.
func (b *Builder) AddEdgeByName(from, to NodeID, rel string, weight float64) {
	b.AddEdge(from, to, b.Rel(rel), weight)
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.kinds) }

// Build finalizes the graph: the edge list is laid out as the CSR, each
// node's arcs sorted by (To, Rel) for determinism, node text is packed into
// the arenas, and the label index is constructed. The Builder must not be
// used afterwards.
func (b *Builder) Build() *Graph {
	n := len(b.kinds)
	g := &Graph{kinds: b.kinds, rels: b.rels, edges: len(b.from)}

	var labels strings.Builder
	total := 0
	for _, s := range b.labelAt {
		total += int(s.end - s.start)
	}
	labels.Grow(total)
	g.labelOff = make([]uint32, n+1)
	for v, s := range b.labelAt {
		labels.Write(b.text[s.start:s.end])
		g.labelOff[v+1] = uint32(labels.Len())
	}
	g.labels = labels.String()
	g.descs, g.descOff, g.descOf = string(b.descs), b.descOff, b.descOf

	b.buildArcs(g)
	g.index = newLabelIndex(g, b)
	g.aliases = b.sortedAliases()
	*b = Builder{}
	return g
}

// buildArcs lays the edge list out as g's CSR. Each edge puts its forward
// arc on from's list and then its reverse arc on to's, in AddEdge order;
// each list is then sorted by (To, Rel) with the very algorithm sort.Slice
// runs, so arcs that tie land where they always have.
func (b *Builder) buildArcs(g *Graph) {
	n, m := len(b.kinds), 2*len(b.from)
	g.arcOff = make([]uint32, n+1)
	for e := range b.from {
		g.arcOff[b.from[e]+1]++
		g.arcOff[b.to[e]+1]++
	}
	for v := 0; v < n; v++ {
		g.arcOff[v+1] += g.arcOff[v]
	}
	g.arcTo = make([]NodeID, m)
	g.arcRel = make([]RelID, m)
	g.arcRev = make([]uint64, (m+63)/64)
	if b.w != nil {
		g.arcW = make([]float64, m)
	}
	next := slices.Clone(g.arcOff[:n])
	put := func(v, to NodeID, e int, rev bool) {
		i := next[v]
		next[v]++
		g.arcTo[i], g.arcRel[i] = to, b.rel[e]
		if rev {
			g.arcRev[i>>6] |= 1 << (i & 63)
		}
		if g.arcW != nil {
			g.arcW[i] = b.w[e]
		}
	}
	for e := range b.from {
		put(b.from[e], b.to[e], e, false)
		put(b.to[e], b.from[e], e, true)
	}
	switch {
	case m == 0:
	case b.w == nil:
		g.minW, g.maxW = b.w0, b.w0
	default:
		g.minW, g.maxW = slices.Min(b.w), slices.Max(b.w)
	}
	s := &arcSorter{g: g}
	for v := 0; v < n; v++ {
		s.lo, s.hi = int(g.arcOff[v]), int(g.arcOff[v+1])
		sort.Sort(s)
	}
}

// arcSorter orders the arcs lo..hi of g's columns by (To, Rel).
type arcSorter struct {
	g      *Graph
	lo, hi int
}

func (s *arcSorter) Len() int { return s.hi - s.lo }

func (s *arcSorter) Less(i, j int) bool {
	to, rel := s.g.arcTo, s.g.arcRel
	i, j = s.lo+i, s.lo+j
	if to[i] != to[j] {
		return to[i] < to[j]
	}
	return rel[i] < rel[j]
}

func (s *arcSorter) Swap(i, j int) {
	g := s.g
	i, j = s.lo+i, s.lo+j
	g.arcTo[i], g.arcTo[j] = g.arcTo[j], g.arcTo[i]
	g.arcRel[i], g.arcRel[j] = g.arcRel[j], g.arcRel[i]
	if g.arcW != nil {
		g.arcW[i], g.arcW[j] = g.arcW[j], g.arcW[i]
	}
	bi, bj := g.arcRev[i>>6]>>(i&63)&1, g.arcRev[j>>6]>>(j&63)&1
	if bi != bj {
		g.arcRev[i>>6] ^= 1 << (i & 63)
		g.arcRev[j>>6] ^= 1 << (j & 63)
	}
}

// sortedAliases returns every AddAlias pair sorted by (alias, node).
func (b *Builder) sortedAliases() aliasList {
	order := make([]int, len(b.aliasNode))
	for i := range order {
		order[i] = i
	}
	key := func(i int) []byte { s := b.aliasAt[i]; return b.text[s.start:s.end] }
	sort.Slice(order, func(x, y int) bool {
		if c := bytes.Compare(key(order[x]), key(order[y])); c != 0 {
			return c < 0
		}
		return b.aliasNode[order[x]] < b.aliasNode[order[y]]
	})
	var keys strings.Builder
	l := aliasList{off: make([]uint32, 1, len(order)+1), nodes: make([]NodeID, 0, len(order))}
	for _, i := range order {
		s := b.aliasAt[i]
		keys.Write(b.text[s.start:s.end])
		l.off = append(l.off, uint32(keys.Len()))
		l.nodes = append(l.nodes, b.aliasNode[i])
	}
	l.keys = keys.String()
	return l
}
