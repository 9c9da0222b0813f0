package kg

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The TSV interchange format is a line-oriented dump similar in spirit to
// the Wikidata truthy dumps the paper consumes:
//
//	N <tab> id <tab> kind <tab> label <tab> desc
//	E <tab> from <tab> rel-name <tab> to <tab> weight
//	A <tab> node <tab> alias
//
// Node lines must precede the edge and alias lines that reference them.
// Lines starting with '#' and blank lines are ignored.

// Write serializes the graph in TSV form.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(NodeID(i))
		if _, err := fmt.Fprintf(bw, "N\t%d\t%s\t%s\t%s\n",
			i, n.Kind, sanitize(n.Label), sanitize(n.Desc)); err != nil {
			return err
		}
	}
	for i := 0; i < g.NumNodes(); i++ {
		for k := range g.Degree(NodeID(i)) {
			a := g.Arc(NodeID(i), k)
			if a.Reverse {
				continue // only original edges are serialized
			}
			if _, err := fmt.Fprintf(bw, "E\t%d\t%s\t%d\t%g\n",
				i, g.RelName(a.Rel), a.To, a.Weight); err != nil {
				return err
			}
		}
	}
	// Aliases, sorted by (alias, node) for byte-stable output.
	for i := range g.aliases.len() {
		if _, err := fmt.Fprintf(bw, "A\t%d\t%s\n", g.aliases.nodes[i], sanitize(g.aliases.key(i))); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func sanitize(s string) string {
	s = strings.ReplaceAll(s, "\t", " ")
	return strings.ReplaceAll(s, "\n", " ")
}

// Read parses a TSV graph dump produced by Write. It works on the scanner's
// line buffer: a node or edge line costs no allocation of its own, only
// its share of the Builder's arenas and columns.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	b := NewBuilder(0)
	lineno := 0
	var f [5][]byte
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		nf := splitFields(line, &f)
		typ := byte(0)
		if len(f[0]) == 1 {
			typ = f[0][0]
		}
		switch typ {
		case 'N':
			if nf != 5 {
				return nil, fmt.Errorf("kg: line %d: node line needs 5 fields, got %d", lineno, nf)
			}
			id, err := strconv.Atoi(string(f[1]))
			if err != nil {
				return nil, fmt.Errorf("kg: line %d: bad node id: %v", lineno, err)
			}
			if id != b.NumNodes() {
				return nil, fmt.Errorf("kg: line %d: node ids must be dense and ordered; want %d got %d", lineno, b.NumNodes(), id)
			}
			addNode(b, f[3], kindOf(f[2]), f[4])
		case 'A':
			if nf != 3 {
				return nil, fmt.Errorf("kg: line %d: alias line needs 3 fields, got %d", lineno, nf)
			}
			node, err := strconv.Atoi(string(f[1]))
			if err != nil {
				return nil, fmt.Errorf("kg: line %d: bad alias node: %v", lineno, err)
			}
			if node < 0 || node >= b.NumNodes() {
				return nil, fmt.Errorf("kg: line %d: alias node out of range", lineno)
			}
			addAlias(b, NodeID(node), f[2])
		case 'E':
			if nf != 5 {
				return nil, fmt.Errorf("kg: line %d: edge line needs 5 fields, got %d", lineno, nf)
			}
			from, err := strconv.Atoi(string(f[1]))
			if err != nil {
				return nil, fmt.Errorf("kg: line %d: bad edge source: %v", lineno, err)
			}
			to, err := strconv.Atoi(string(f[3]))
			if err != nil {
				return nil, fmt.Errorf("kg: line %d: bad edge target: %v", lineno, err)
			}
			w, err := strconv.ParseFloat(string(f[4]), 64)
			if err != nil {
				return nil, fmt.Errorf("kg: line %d: bad edge weight: %v", lineno, err)
			}
			if !validWeight(w) {
				return nil, fmt.Errorf("kg: line %d: bad edge weight %q: not finite and positive", lineno, f[4])
			}
			if from < 0 || from >= b.NumNodes() || to < 0 || to >= b.NumNodes() {
				return nil, fmt.Errorf("kg: line %d: edge endpoint out of range", lineno)
			}
			b.AddEdge(NodeID(from), NodeID(to), internRel(b, f[2]), w)
		default:
			return nil, fmt.Errorf("kg: line %d: unknown record type %q", lineno, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// splitFields splits line at tabs into f, all but the last of len(f)
// fields, and returns how many fields the line has.
func splitFields(line []byte, f *[5][]byte) int {
	n := 0
	for {
		i := bytes.IndexByte(line, '\t')
		if i < 0 {
			break
		}
		if n < len(f) {
			f[n] = line[:i]
		}
		n++
		line = line[i+1:]
	}
	if n < len(f) {
		f[n] = line
	}
	return n + 1
}
