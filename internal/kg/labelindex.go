package kg

import (
	"math"
	"math/bits"
	"slices"
	"strings"
	"unicode/utf8"
)

// LabelIndex maps entity labels to node sets for exact-match entity linking
// (Section V-A: "an entity l ... is mapped to a set of nodes S(l) from K
// whose labels contain l through exact string matching"). Matching is
// performed on the case-folded label; the paper's experiments report a >96%
// match ratio per news segment with this scheme (Table V).
//
// The index holds no heap object per label: the distinct folded keys are
// one string arena, their node sets one column, and a hashTable over the
// arena finds a key.
type LabelIndex struct {
	keys    string   // key k is keys[keyOff[k]:keyOff[k+1]], in first-seen order
	keyOff  []uint32 //
	nodeOff []uint32 // S(key k) is nodes[nodeOff[k]:nodeOff[k+1]]
	nodes   []NodeID //
	table   hashTable
}

// hashTable is a linear-probing hash table over the strings of an arena —
// string k is keys[off[k]:off[k+1]] — that holds no heap object per
// string. A slot holds k+1 in its low bits bits (0 is an empty slot) and
// bits of the string's hash above them, so a probe passes over most other
// strings without reading them. It is at most two thirds full.
type hashTable struct {
	slots []uint32
	bits  uint // width of the string-number field
	limit int  // strings it has room for
}

func newHashTable(limit int) hashTable {
	return hashTable{slots: make([]uint32, limit+limit/2+1), bits: uint(bits.Len32(uint32(limit))), limit: limit}
}

// fnv1a is the 64-bit FNV-1a hash of s.
func fnv1a[S string | []byte](s S) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// probe looks key up among the arena's strings. It returns the key's
// number, or false with the empty slot where the key would go and the
// slot's hash bits.
func probe[K, S string | []byte](t *hashTable, key K, keys S, off []uint32) (k uint32, pos int, tag uint32, ok bool) {
	h := fnv1a(key)
	pos, tag = int(uint64(uint32(h))*uint64(len(t.slots))>>32), uint32(h>>32)<<t.bits
	mask := uint32(1)<<t.bits - 1
	for s := t.slots[pos]; s != 0; s = t.slots[pos] {
		if k := s&mask - 1; s&^mask == tag && string(keys[off[k]:off[k+1]]) == string(key) {
			return k, pos, tag, true
		}
		if pos++; pos == len(t.slots) {
			pos = 0
		}
	}
	return 0, pos, tag, false
}

// find returns the number of key among the arena's strings.
func find[K, S string | []byte](t *hashTable, key K, keys S, off []uint32) (uint32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	k, _, _, ok := probe(t, key, keys, off)
	return k, ok
}

// intern returns the number of key among the arena's strings and true, or
// records k as key's number and returns k and false; the caller then
// appends key to the arena as string k.
func intern[K, S string | []byte](t *hashTable, key K, keys S, off []uint32, k uint32) (uint32, bool) {
	j, pos, tag, ok := probe(t, key, keys, off)
	if ok {
		return j, true
	}
	t.slots[pos] = tag | (k + 1)
	return k, false
}

// Fold normalizes a label for index lookup: lowercase with collapsed
// interior whitespace.
func Fold(label string) string {
	var buf [64]byte
	key, ok := appendFoldASCII(buf[:0], label)
	switch {
	case !ok:
		return strings.Join(strings.Fields(strings.ToLower(label)), " ")
	case string(key) == label:
		return label
	}
	return string(key)
}

// appendFoldASCII appends Fold(s) to dst if s is ASCII; otherwise it
// returns dst unchanged and false. For ASCII text Fold lowercases A–Z and
// splits on the six ASCII spaces strings.Fields splits on.
func appendFoldASCII[S string | []byte](dst []byte, s S) ([]byte, bool) {
	n := len(dst)
	sep := false // a space run lies between the last word and the next
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf:
			return dst[:n], false
		case c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r':
			sep = len(dst) > n
			continue
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		}
		if sep {
			dst = append(dst, ' ')
			sep = false
		}
		dst = append(dst, c)
	}
	return dst, true
}

// appendFold appends Fold(s) to dst, allocating only for non-ASCII s.
func appendFold[S string | []byte](dst []byte, s S) []byte {
	if key, ok := appendFoldASCII(dst, s); ok {
		return key
	}
	return append(dst, Fold(string(s))...)
}

// newLabelIndex indexes the labels of g's nodes and b's aliases. A key's
// node set lists the nodes whose label folds to it in ID order, then the
// nodes given it as an alias in AddAlias order, each node once.
func newLabelIndex(g *Graph, b *Builder) LabelIndex {
	n := g.NumNodes()
	entries := n + len(b.aliasNode)
	idx := LabelIndex{keyOff: []uint32{0}}

	// Number the distinct keys in a table with room for every entry.
	const none = math.MaxUint32
	keyOf := make([]uint32, 0, entries) // per entry: its key number, or none
	var keys, buf []byte
	t := newHashTable(entries)
	add := func(key []byte) {
		if len(key) == 0 {
			keyOf = append(keyOf, none)
			return
		}
		k, seen := intern(&t, key, keys, idx.keyOff, uint32(len(idx.keyOff)-1))
		if !seen {
			keys = append(keys, key...)
			idx.keyOff = append(idx.keyOff, uint32(len(keys)))
		}
		keyOf = append(keyOf, k)
	}
	for v := 0; v < n; v++ {
		buf = appendFold(buf[:0], g.Label(NodeID(v)))
		add(buf)
	}
	for _, s := range b.aliasAt {
		add(b.text[s.start:s.end])
	}
	idx.keys = string(keys)

	// The index's own table, with room for just its keys.
	nk := len(idx.keyOff) - 1
	idx.table = newHashTable(nk)
	for k := 0; k < nk; k++ {
		intern(&idx.table, keys[idx.keyOff[k]:idx.keyOff[k+1]], idx.keys, idx.keyOff, uint32(k))
	}

	// Bucket the entries by key, in entry order.
	idx.nodeOff = make([]uint32, nk+1)
	for _, k := range keyOf {
		if k != none {
			idx.nodeOff[k+1]++
		}
	}
	for k := 0; k < nk; k++ {
		idx.nodeOff[k+1] += idx.nodeOff[k]
	}
	idx.nodes = make([]NodeID, idx.nodeOff[nk])
	next := slices.Clone(idx.nodeOff[:nk])
	dups := false
	for e, k := range keyOf {
		if k == none {
			continue
		}
		v := NodeID(e)
		if e >= n {
			v = b.aliasNode[e-n]
			if slices.Contains(idx.nodes[idx.nodeOff[k]:next[k]], v) {
				dups = true
				continue
			}
		}
		idx.nodes[next[k]] = v
		next[k]++
	}
	if dups { // close the gaps the skipped aliases left
		w := uint32(0)
		for k := 0; k < nk; k++ {
			start := idx.nodeOff[k]
			idx.nodeOff[k] = w
			w += uint32(copy(idx.nodes[w:], idx.nodes[start:next[k]]))
		}
		idx.nodeOff[nk] = w
		idx.nodes = slices.Clip(idx.nodes[:w])
	}
	return idx
}

// find returns the number of the folded key, or false if it is not indexed.
func (idx *LabelIndex) find(key []byte) (uint32, bool) {
	return find(&idx.table, key, idx.keys, idx.keyOff)
}

// Lookup returns S(l): all nodes whose folded label equals the folded query.
// The returned slice is shared and must not be modified. A nil result means
// the label is not in the knowledge graph. An ASCII label of up to 64 bytes
// is folded on the stack: the lookup allocates nothing.
func (idx *LabelIndex) Lookup(label string) []NodeID {
	var buf [64]byte
	k, ok := idx.find(appendFold(buf[:0], label))
	if !ok {
		return nil
	}
	lo, hi := idx.nodeOff[k], idx.nodeOff[k+1]
	return idx.nodes[lo:hi:hi]
}

// Contains reports whether the label resolves to at least one node.
func (idx *LabelIndex) Contains(label string) bool {
	var buf [64]byte
	_, ok := idx.find(appendFold(buf[:0], label))
	return ok
}

// Size returns the number of distinct folded labels in the index.
func (idx *LabelIndex) Size() int { return max(len(idx.keyOff)-1, 0) }

// Labels calls fn for every folded label in the index, in the order the
// labels were first seen, until fn returns false.
func (idx *LabelIndex) Labels(fn func(label string, nodes []NodeID) bool) {
	for k := 0; k < idx.Size(); k++ {
		lo, hi := idx.nodeOff[k], idx.nodeOff[k+1]
		if !fn(idx.keys[idx.keyOff[k]:idx.keyOff[k+1]], idx.nodes[lo:hi:hi]) {
			return
		}
	}
}
