package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

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
// Counts maps are rebuilt from the subgraph node sets on load.

const embMagic = "NLEMB1\n"

// WriteEmbeddings serializes per-document embeddings (nil entries are
// preserved as absent).
func WriteEmbeddings(w io.Writer, embs []*DocEmbedding) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(embMagic); err != nil {
		return err
	}
	le := func(data any) error { return binary.Write(bw, binary.LittleEndian, data) }
	if err := le(uint32(len(embs))); err != nil {
		return err
	}
	for _, e := range embs {
		if e == nil {
			if err := le(uint8(0)); err != nil {
				return err
			}
			continue
		}
		if err := le(uint8(1)); err != nil {
			return err
		}
		if err := le(uint32(len(e.Subgraphs))); err != nil {
			return err
		}
		for _, sg := range e.Subgraphs {
			if err := writeSubgraph(bw, sg); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeSubgraph(w io.Writer, sg *Subgraph) error {
	le := func(data any) error { return binary.Write(w, binary.LittleEndian, data) }
	if err := le(uint32(sg.Root)); err != nil {
		return err
	}
	if len(sg.Labels) != len(sg.Dists) || len(sg.Labels) != len(sg.LabelArcs) {
		return fmt.Errorf("core: inconsistent subgraph: %d labels, %d dists, %d arc sets",
			len(sg.Labels), len(sg.Dists), len(sg.LabelArcs))
	}
	if err := le(uint32(len(sg.Labels))); err != nil {
		return err
	}
	for i, l := range sg.Labels {
		if err := writeString(w, l); err != nil {
			return err
		}
		if err := le(sg.Dists[i]); err != nil {
			return err
		}
	}
	if err := le(uint32(len(sg.Nodes))); err != nil {
		return err
	}
	for _, n := range sg.Nodes {
		if err := le(uint32(n)); err != nil {
			return err
		}
	}
	if err := writeArcs(w, sg.Arcs); err != nil {
		return err
	}
	for _, arcs := range sg.LabelArcs {
		if err := writeArcs(w, arcs); err != nil {
			return err
		}
	}
	return nil
}

func writeArcs(w io.Writer, arcs []PathArc) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(arcs))); err != nil {
		return err
	}
	for _, a := range arcs {
		rev := uint8(0)
		if a.Reverse {
			rev = 1
		}
		if err := binary.Write(w, binary.LittleEndian, struct {
			From, To uint32
			Rel      uint16
			Rev      uint8
		}{uint32(a.From), uint32(a.To), uint16(a.Rel), rev}); err != nil {
			return err
		}
	}
	return nil
}

// ReadEmbeddings parses a snapshot written by WriteEmbeddings, validating
// node and relation ids against g.
func ReadEmbeddings(r io.Reader, g *kg.Graph) ([]*DocEmbedding, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(embMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if string(magic) != embMagic {
		return nil, fmt.Errorf("core: bad magic %q", magic)
	}
	le := func(data any) error { return binary.Read(br, binary.LittleEndian, data) }
	var nDocs uint32
	if err := le(&nDocs); err != nil {
		return nil, err
	}
	if nDocs > 1<<28 {
		return nil, fmt.Errorf("core: implausible doc count %d", nDocs)
	}
	out := make([]*DocEmbedding, nDocs)
	for i := range out {
		var present uint8
		if err := le(&present); err != nil {
			return nil, fmt.Errorf("core: doc %d: %w", i, err)
		}
		if present == 0 {
			continue
		}
		var nSubs uint32
		if err := le(&nSubs); err != nil {
			return nil, err
		}
		if nSubs > 1<<20 {
			return nil, fmt.Errorf("core: doc %d: implausible subgraph count %d", i, nSubs)
		}
		emb := &DocEmbedding{Counts: make(map[kg.NodeID]int)}
		for s := uint32(0); s < nSubs; s++ {
			sg, err := readSubgraph(br, g)
			if err != nil {
				return nil, fmt.Errorf("core: doc %d subgraph %d: %w", i, s, err)
			}
			emb.Subgraphs = append(emb.Subgraphs, sg)
			for _, n := range sg.Nodes {
				emb.Counts[n]++
			}
		}
		out[i] = emb
	}
	return out, nil
}

func readSubgraph(r io.Reader, g *kg.Graph) (*Subgraph, error) {
	le := func(data any) error { return binary.Read(r, binary.LittleEndian, data) }
	sg := &Subgraph{}
	var root uint32
	if err := le(&root); err != nil {
		return nil, err
	}
	if int(root) >= g.NumNodes() {
		return nil, fmt.Errorf("root %d out of range", root)
	}
	sg.Root = kg.NodeID(root)
	var nLabels uint32
	if err := le(&nLabels); err != nil {
		return nil, err
	}
	if nLabels > 1<<16 {
		return nil, fmt.Errorf("implausible label count %d", nLabels)
	}
	for i := uint32(0); i < nLabels; i++ {
		l, err := readString(r)
		if err != nil {
			return nil, err
		}
		var d float64
		if err := le(&d); err != nil {
			return nil, err
		}
		sg.Labels = append(sg.Labels, l)
		sg.Dists = append(sg.Dists, d)
	}
	var nNodes uint32
	if err := le(&nNodes); err != nil {
		return nil, err
	}
	if int(nNodes) > g.NumNodes() {
		return nil, fmt.Errorf("node count %d exceeds graph size", nNodes)
	}
	for i := uint32(0); i < nNodes; i++ {
		var n uint32
		if err := le(&n); err != nil {
			return nil, err
		}
		if int(n) >= g.NumNodes() {
			return nil, fmt.Errorf("node %d out of range", n)
		}
		sg.Nodes = append(sg.Nodes, kg.NodeID(n))
	}
	arcs, err := readArcs(r, g)
	if err != nil {
		return nil, err
	}
	sg.Arcs = arcs
	sg.LabelArcs = make([][]PathArc, nLabels)
	for i := range sg.LabelArcs {
		if sg.LabelArcs[i], err = readArcs(r, g); err != nil {
			return nil, err
		}
	}
	return sg, nil
}

func readArcs(r io.Reader, g *kg.Graph) ([]PathArc, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if uint64(n) > uint64(g.NumEdges())*2+1 {
		return nil, fmt.Errorf("arc count %d exceeds graph size", n)
	}
	out := make([]PathArc, n)
	for i := range out {
		var raw struct {
			From, To uint32
			Rel      uint16
			Rev      uint8
		}
		if err := binary.Read(r, binary.LittleEndian, &raw); err != nil {
			return nil, err
		}
		if int(raw.From) >= g.NumNodes() || int(raw.To) >= g.NumNodes() {
			return nil, fmt.Errorf("arc endpoint out of range")
		}
		if int(raw.Rel) >= g.NumRels() {
			return nil, fmt.Errorf("relation %d out of range", raw.Rel)
		}
		out[i] = PathArc{
			From:    kg.NodeID(raw.From),
			To:      kg.NodeID(raw.To),
			Rel:     kg.RelID(raw.Rel),
			Reverse: raw.Rev != 0,
		}
	}
	return out, nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
