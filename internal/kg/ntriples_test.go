package kg

import (
	"strings"
	"testing"
)

const sampleNT = `
# A Wikidata-style fragment.
<http://wd/Q1> <http://www.w3.org/2000/01/rdf-schema#label> "Khyber"@en .
<http://wd/Q1> <http://schema.org/description> "a province of Pakistan"@en .
<http://wd/Q1> <http://www.w3.org/2000/01/rdf-schema#label> "Chaibar"@de .
<http://wd/Q2> <http://www.w3.org/2000/01/rdf-schema#label> "Peshawar"@en .
<http://wd/Q2> <http://www.w3.org/2004/02/skos/core#altLabel> "Pekhawar"@en .
<http://wd/Q2> <http://wd/prop/P131> <http://wd/Q1> .
<http://wd/Q3> <http://www.w3.org/2000/01/rdf-schema#label> "Pakistan"@en .
<http://wd/Q1> <http://wd/prop/P131> <http://wd/Q3> .
<http://wd/Q3> <http://wd/prop/P1082> "231000000" .
`

func TestParseNTriples(t *testing.T) {
	g, err := ParseNTriples(strings.NewReader(sampleNT), "en", true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 (the population literal is not an edge)", g.NumEdges())
	}
	khyber := g.Lookup("Khyber")
	if len(khyber) != 1 {
		t.Fatalf("Khyber lookup = %v", khyber)
	}
	if got := g.Node(khyber[0]).Desc; got != "a province of Pakistan" {
		t.Fatalf("desc = %q", got)
	}
	// The German label must not override the English one.
	if got := g.Label(khyber[0]); got != "Khyber" {
		t.Fatalf("label = %q (language filter failed)", got)
	}
	// Alias resolves.
	if got := g.Lookup("pekhawar"); len(got) != 1 || g.Label(got[0]) != "Peshawar" {
		t.Fatalf("alias lookup = %v", got)
	}
	// Edge relation name is the predicate's local name.
	peshawar := g.Lookup("Peshawar")[0]
	found := false
	for k := range g.Degree(peshawar) {
		if a := g.Arc(peshawar, k); !a.Reverse && g.RelName(a.Rel) == "P131" && g.Label(a.To) == "Khyber" {
			found = true
		}
	}
	if !found {
		t.Fatal("P131 edge missing")
	}
}

func TestParseNTriplesEscapes(t *testing.T) {
	nt := `<http://x/a> <http://x/label> "He said \"hi\"\nbye" .` + "\n"
	g, err := ParseNTriples(strings.NewReader(nt), "en", true)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Label(0); !strings.Contains(got, `"hi"`) {
		t.Fatalf("escape handling: %q", got)
	}
}

func TestParseNTriplesStrict(t *testing.T) {
	bad := []string{
		`<http://x/a> <http://x/p> <http://x/b>`,        // missing dot
		`"literal subject" <http://x/p> <http://x/b> .`, // non-IRI subject
		`<http://x/a> "pred" <http://x/b> .`,            // non-IRI predicate
		`<http://x/a> <http://x/p> .`,                   // missing object
		`<http://x/a> <http://x/p> "unterminated .`,     // bad literal
	}
	for i, line := range bad {
		if _, err := ParseNTriples(strings.NewReader(line+"\n"), "en", true); err == nil {
			t.Errorf("case %d: strict mode should fail: %s", i, line)
		}
		// Lenient mode skips and succeeds.
		if _, err := ParseNTriples(strings.NewReader(line+"\n"), "en", false); err != nil {
			t.Errorf("case %d: lenient mode should skip: %v", i, err)
		}
	}
}

func TestParseNTriplesEndToEnd(t *testing.T) {
	// The parsed graph is a first-class KG: G*-style lookups work on it.
	g, err := ParseNTriples(strings.NewReader(sampleNT), "en", true)
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if s.Components != 1 {
		t.Fatalf("parsed graph disconnected: %+v", s)
	}
}

func TestLocalName(t *testing.T) {
	cases := map[string]string{
		"http://www.w3.org/2000/01/rdf-schema#label": "label",
		"http://www.wikidata.org/prop/direct/P131":   "P131",
		"plain": "plain",
	}
	for in, want := range cases {
		if got := localName(in); got != want {
			t.Errorf("localName(%q) = %q, want %q", in, got, want)
		}
	}
}
