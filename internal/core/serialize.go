package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"newslink/internal/kg"
)

// Binary embedding snapshot format (little endian):
//
//	magic "NLEMB1\n"
//	uint32 numDocs
//	per doc: uint8 present; if present:
//	  uint32 numSubgraphs
//	  per subgraph:
//	    uint32 root
//	    uint32 numLabels; per label: string, float64 dist
//	    uint32 numNodes;  per node: uint32
//	    uint32 numArcs;   per arc: from u32, to u32, rel u16, reverse u8
//	    per label: uint32 count; arcs in the same encoding
//
// A string is its uint32 byte length and its bytes. Counts maps are rebuilt
// from the subgraph node sets on load.
//
// Both directions work on whole byte slices, the way the cluster wire codec
// does: the writer appends every field to one buffer and writes it once; the
// reader checks every count against its cap and against the bytes that
// remain before the count sizes an allocation.

const embMagic = "NLEMB1\n"

// Smallest encodings, for checking a count against the remaining bytes:
// a subgraph is at least its root and three counts (labels, nodes, arcs), a
// label at least its string length, distance and arc count, an arc 11 bytes.
const (
	minSubgraphBytes = 4 * 4
	minLabelBytes    = 4 + 8 + 4
	arcBytes         = 4 + 4 + 2 + 1
)

// WriteEmbeddings serializes per-document embeddings (nil entries are
// preserved as absent) with a single Write: the header, then each
// document's record (AppendEmbedding).
func WriteEmbeddings(w io.Writer, embs []*DocEmbedding) error {
	b := AppendEmbeddingsHeader(nil, len(embs))
	for _, e := range embs {
		var err error
		if b, err = AppendEmbedding(b, e); err != nil {
			return err
		}
	}
	_, err := w.Write(b)
	return err
}

// AppendEmbeddingsHeader appends the header of an image of n documents:
// the magic and the count. It has the same length for every n, so a
// caller that builds an image record by record can start from the header
// of 0 and later rewrite the count in place with
// AppendEmbeddingsHeader(image[:0], n).
func AppendEmbeddingsHeader(b []byte, n int) []byte {
	b = append(slices.Grow(b, len(embMagic)+4), embMagic...)
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

// AppendEmbedding appends one document's record to b (e nil: absent). A
// record it wrote decodes (ReadEmbedding) to an embedding that re-encodes
// to the same bytes, so a record can be copied from one image to another
// instead of decoded and re-encoded.
func AppendEmbedding(b []byte, e *DocEmbedding) ([]byte, error) {
	if e == nil {
		return append(b, 0), nil
	}
	b = slices.Grow(b, recordSize(e))
	b = append(b, 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Subgraphs)))
	for _, sg := range e.Subgraphs {
		var err error
		if b, err = appendSubgraph(b, sg); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// recordSize is the length of e's record, so that encoding it grows the
// buffer once.
func recordSize(e *DocEmbedding) int {
	n := 1 + 4
	for _, sg := range e.Subgraphs {
		n += minSubgraphBytes + 4*len(sg.Nodes) + arcBytes*len(sg.Arcs)
		for i, l := range sg.Labels {
			n += minLabelBytes + len(l)
			if i < len(sg.LabelArcs) {
				n += arcBytes * len(sg.LabelArcs[i])
			}
		}
	}
	return n
}

// appendSubgraph appends one subgraph's encoding to b.
func appendSubgraph(b []byte, sg *Subgraph) ([]byte, error) {
	if len(sg.Labels) != len(sg.Dists) || len(sg.Labels) != len(sg.LabelArcs) {
		return nil, fmt.Errorf("core: inconsistent subgraph: %d labels, %d dists, %d arc sets",
			len(sg.Labels), len(sg.Dists), len(sg.LabelArcs))
	}
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(sg.Root))
	b = le.AppendUint32(b, uint32(len(sg.Labels)))
	for i, l := range sg.Labels {
		b = le.AppendUint32(b, uint32(len(l)))
		b = append(b, l...)
		b = le.AppendUint64(b, math.Float64bits(sg.Dists[i]))
	}
	b = le.AppendUint32(b, uint32(len(sg.Nodes)))
	for _, n := range sg.Nodes {
		b = le.AppendUint32(b, uint32(n))
	}
	b = appendArcs(b, sg.Arcs)
	for _, arcs := range sg.LabelArcs {
		b = appendArcs(b, arcs)
	}
	return b, nil
}

func appendArcs(b []byte, arcs []PathArc) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(len(arcs)))
	for _, a := range arcs {
		b = le.AppendUint32(b, uint32(a.From))
		b = le.AppendUint32(b, uint32(a.To))
		b = le.AppendUint16(b, uint16(a.Rel))
		rev := byte(0)
		if a.Reverse {
			rev = 1
		}
		b = append(b, rev)
	}
	return b
}

// ReadEmbeddings parses an image written by WriteEmbeddings, validating
// node and relation ids against g. Trailing bytes are an error. Nothing
// decoded aliases data. It is the whole-image reference decoder that the
// scan and the per-record decode are tested against.
func ReadEmbeddings(data []byte, g *kg.Graph) ([]*DocEmbedding, error) {
	if len(data) < len(embMagic) {
		return nil, fmt.Errorf("core: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(embMagic)]) != embMagic {
		return nil, fmt.Errorf("core: bad magic %q", data[:len(embMagic)])
	}
	r := embReader{data: data[len(embMagic):], g: g}
	out := make([]*DocEmbedding, r.count("doc count", 1, 1<<28))
	for i := range out {
		if out[i] = r.doc(); r.err != nil {
			return nil, fmt.Errorf("core: doc %d: %w", i, r.err)
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("core: %w", r.err)
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after %d documents", len(r.data), len(out))
	}
	return out, nil
}

// ScanEmbeddings validates the image in src (size bytes) exactly as
// ReadEmbeddings would — magic, every count against its cap and against
// the bytes that remain, every node and relation id against g, trailing
// bytes — without decoding it, reading src sequentially through buf (at
// least 16 bytes). It returns where each document's record starts, and
// size last: document i is the record [offs[i], offs[i+1]), which
// ReadEmbedding decodes. Apart from the offsets it allocates nothing.
func ScanEmbeddings(src io.ReaderAt, size int64, g *kg.Graph, buf []byte) (offs []int64, err error) {
	r := embReader{src: src, end: size, buf: buf, g: g}
	if magic := r.take(len(embMagic)); r.err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", r.err)
	} else if string(magic) != embMagic {
		return nil, fmt.Errorf("core: bad magic %q", magic)
	}
	offs = make([]int64, r.count("doc count", 1, 1<<28)+1)
	for i := range offs[1:] {
		offs[i] = r.offset()
		if r.skipDoc(); r.err != nil {
			return nil, fmt.Errorf("core: doc %d: %w", i, r.err)
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("core: %w", r.err)
	}
	if rest := r.remaining(); rest != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after %d documents", rest, len(offs)-1)
	}
	offs[len(offs)-1] = size
	return offs, nil
}

// ReadEmbedding decodes one document's record — a range ScanEmbeddings
// returned — as ReadEmbeddings decodes it, with the same checks; bytes
// left over after the record are an error. Nothing decoded aliases rec.
func ReadEmbedding(rec []byte, g *kg.Graph) (*DocEmbedding, error) {
	r := embReader{data: rec, g: g}
	emb := r.doc()
	if r.err != nil {
		return nil, fmt.Errorf("core: %w", r.err)
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after the record", len(r.data))
	}
	return emb, nil
}

// embReader consumes an embeddings image: all of it in data (a decode), or
// — for ScanEmbeddings — a window of src that take refills through buf.
// The first failure sticks and empties the input, so every later read
// returns zero and every later count is zero: the decoders below need no
// error handling of their own, and their callers check r.err after each
// document.
type embReader struct {
	data []byte
	g    *kg.Graph
	err  error

	src       io.ReaderAt // nil: data is the whole input
	next, end int64       // src offset just past data, and src's size
	buf       []byte      // the window data is refilled into
}

func (r *embReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.data, r.next = nil, r.end
}

// remaining is how many input bytes are left.
func (r *embReader) remaining() int64 { return int64(len(r.data)) + r.end - r.next }

// offset is the position in src of the next unread byte.
func (r *embReader) offset() int64 { return r.next - int64(len(r.data)) }

func (r *embReader) take(n int) []byte {
	if len(r.data) < n && r.next < r.end {
		r.refill()
	}
	if len(r.data) < n {
		r.fail("%w", io.ErrUnexpectedEOF)
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

// refill moves the unread bytes to the front of the window and fills the
// rest of it from src.
func (r *embReader) refill() {
	have := copy(r.buf, r.data)
	n := int(min(int64(len(r.buf)-have), r.end-r.next))
	if got, err := r.src.ReadAt(r.buf[have:have+n], r.next); got < n {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.fail("reading at %d: %w", r.next, err)
		return
	}
	r.data, r.next = r.buf[:have+n], r.next+int64(n)
}

// skip consumes n bytes that count has already checked against the input.
func (r *embReader) skip(n int) {
	if n <= len(r.data) {
		r.data = r.data[n:]
		return
	}
	r.next += int64(n - len(r.data))
	r.data = r.data[:0]
}

func (r *embReader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *embReader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *embReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *embReader) f64() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// count reads a uint32 element count and refuses it before anything is
// sized from it: above limit, or more elements than the remaining bytes
// could hold at minSize bytes each.
func (r *embReader) count(what string, minSize int, limit uint64) int {
	n := r.u32()
	if uint64(n) > limit {
		r.fail("implausible %s %d", what, n)
		return 0
	}
	if rest := r.remaining(); uint64(n) > uint64(rest/int64(minSize)) {
		r.fail("%s %d exceeds the %d bytes that remain", what, n, rest)
		return 0
	}
	return int(n)
}

func (r *embReader) str() string {
	return string(r.take(r.count("string length", 1, 1<<20)))
}

// node reads one node ID and checks it against the graph.
func (r *embReader) node(what string) kg.NodeID {
	n := r.u32()
	if int(n) >= r.g.NumNodes() {
		r.fail("%s %d out of range", what, n)
		return 0
	}
	return kg.NodeID(n)
}

func (r *embReader) doc() *DocEmbedding {
	if r.u8() == 0 {
		return nil
	}
	nSubs := r.count("subgraph count", minSubgraphBytes, 1<<20)
	emb := &DocEmbedding{Counts: make(map[kg.NodeID]int)}
	if nSubs > 0 {
		emb.Subgraphs = make([]*Subgraph, 0, nSubs)
	}
	for s := 0; s < nSubs && r.err == nil; s++ {
		sg := r.subgraph()
		emb.Subgraphs = append(emb.Subgraphs, sg)
		for _, n := range sg.Nodes {
			emb.Counts[n]++
		}
	}
	return emb
}

// subgraph decodes one subgraph. Empty label and node lists stay nil and
// arc lists are never nil, as the reference decoder builds them, so the
// two decode to DeepEqual embeddings.
func (r *embReader) subgraph() *Subgraph {
	sg := &Subgraph{Root: r.node("root")}
	nLabels := r.count("label count", minLabelBytes, 1<<16)
	if nLabels > 0 {
		sg.Labels, sg.Dists = make([]string, nLabels), make([]float64, nLabels)
	}
	for i := 0; i < nLabels; i++ {
		sg.Labels[i], sg.Dists[i] = r.str(), r.f64()
	}
	if nNodes := r.count("node count", 4, uint64(r.g.NumNodes())); nNodes > 0 {
		sg.Nodes = make([]kg.NodeID, nNodes)
		for i := range sg.Nodes {
			sg.Nodes[i] = r.node("node")
		}
	}
	sg.Arcs = r.arcs()
	sg.LabelArcs = make([][]PathArc, nLabels)
	for i := range sg.LabelArcs {
		sg.LabelArcs[i] = r.arcs()
	}
	return sg
}

func (r *embReader) arcs() []PathArc {
	out := make([]PathArc, r.count("arc count", arcBytes, uint64(r.g.NumEdges())*2+1))
	for i := range out {
		from, to := r.node("arc endpoint"), r.node("arc endpoint")
		rel := r.u16()
		if int(rel) >= r.g.NumRels() {
			r.fail("relation %d out of range", rel)
		}
		out[i] = PathArc{From: from, To: to, Rel: kg.RelID(rel), Reverse: r.u8() != 0}
	}
	return out
}

// skipDoc walks one document's record as doc decodes it — the same
// counts, caps and id checks in the same order — and builds nothing.
func (r *embReader) skipDoc() {
	if r.u8() == 0 {
		return
	}
	nSubs := r.count("subgraph count", minSubgraphBytes, 1<<20)
	for s := 0; s < nSubs && r.err == nil; s++ {
		r.node("root")
		nLabels := r.count("label count", minLabelBytes, 1<<16)
		for i := 0; i < nLabels; i++ {
			r.skip(r.count("string length", 1, 1<<20))
			r.f64()
		}
		for i := r.count("node count", 4, uint64(r.g.NumNodes())); i > 0; i-- {
			r.node("node")
		}
		for i := 0; i <= nLabels; i++ { // the subgraph's arcs, then each label's
			for j := r.count("arc count", arcBytes, uint64(r.g.NumEdges())*2+1); j > 0; j-- {
				r.node("arc endpoint")
				r.node("arc endpoint")
				if rel := r.u16(); int(rel) >= r.g.NumRels() {
					r.fail("relation %d out of range", rel)
				}
				r.u8()
			}
		}
	}
}
