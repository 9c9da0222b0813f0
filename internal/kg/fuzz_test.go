package kg

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzRead exercises the TSV parser: arbitrary input must either parse into
// a consistent graph or fail cleanly, never panic.
func FuzzRead(f *testing.F) {
	f.Add("N\t0\tgpe\tA\td\nE\t0\tr\t0\t1\n")
	f.Add("N\t0\tgpe\tA\td\nA\t0\talias\n")
	f.Add("#comment\n\nN\t0\tperson\tB\t\n")
	f.Add("E\t0\tr\t1\t1\n")
	f.Add("N\tx\ty\tz\n")
	for _, w := range badWeights {
		f.Add("N\t0\tgpe\tA\td\nE\t0\tr\t0\t" + w + "\n")
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := Read(strings.NewReader(s))
		if err != nil {
			return
		}
		// A successfully parsed graph round-trips.
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("Write after successful Read: %v", err)
		}
		if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-Read of own output: %v", err)
		}
	})
}

// FuzzParseNTriples: the lenient N-Triples parser must accept anything
// without panicking and produce in-range graphs.
func FuzzParseNTriples(f *testing.F) {
	f.Add(`<http://a> <http://p> <http://b> .`)
	f.Add(`<http://a> <http://x#label> "text"@en .`)
	f.Add(`garbage`)
	f.Add(`<http://a> <http://p> "unterminated`)
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ParseNTriples(strings.NewReader(s), "en", false)
		if err != nil {
			return
		}
		for i := 0; i < g.NumNodes(); i++ {
			for _, to := range g.Targets(NodeID(i)) {
				if int(to) >= g.NumNodes() {
					t.Fatalf("arc target %d out of range", to)
				}
			}
		}
	})
}

// FuzzLabelIndex checks the label index against its oracle: a map from
// strings.Fields-folded labels to the nodes carrying them, in ID order.
// Lookup and Contains of any probe — ASCII or not, folded on the stack or
// through Fold — and Fold itself must agree with it.
func FuzzLabelIndex(f *testing.F) {
	f.Add("Alpha\nalpha\n Beta  Gamma \nStraße", "ALPHA")
	f.Add("x\ty\nX Y\n\v\n", " x  y ")
	f.Add("Ünïcode\nünïcode", "ÜNÏCODE")
	f.Add("a\u00a0b\na b", "a b")
	f.Add(strings.Repeat("Long Label ", 10), strings.Repeat("long label ", 10))
	f.Fuzz(func(t *testing.T, labels, probe string) {
		var b Builder
		oracle := map[string][]NodeID{}
		for i, l := range strings.Split(labels, "\n") {
			b.AddNode(l, KindUnknown, "")
			if key := legacyFold(l); key != "" {
				oracle[key] = append(oracle[key], NodeID(i))
			}
		}
		g := b.Build()
		if got, want := Fold(probe), legacyFold(probe); got != want {
			t.Fatalf("Fold(%q) = %q, want %q", probe, got, want)
		}
		want := oracle[legacyFold(probe)]
		if got := g.Lookup(probe); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("Lookup(%q) = %v, want %v", probe, got, want)
		}
		if got := g.Index().Contains(probe); got != (want != nil) {
			t.Fatalf("Contains(%q) = %v, want %v", probe, got, want != nil)
		}
		if g.Index().Size() != len(oracle) {
			t.Fatalf("Size = %d, want %d", g.Index().Size(), len(oracle))
		}
	})
}
