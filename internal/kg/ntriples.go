package kg

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseNTriples builds a knowledge graph from an RDF N-Triples stream, the
// format of Wikidata "truthy" dumps the paper's KG comes from. The mapping:
//
//   - rdfs:label / skos:prefLabel literals become node labels,
//   - skos:altLabel literals become aliases,
//   - schema:description literals become node descriptions,
//   - every triple whose object is an IRI becomes an edge (weight 1) whose
//     relation name is the predicate's local name,
//   - other literal triples are ignored.
//
// Language-tagged literals are filtered by lang (empty matches untagged
// literals and "en"). Malformed lines fail with their line number; use
// strict=false to skip them instead (real dumps contain oddities).
func ParseNTriples(r io.Reader, lang string, strict bool) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	b := NewBuilder(1024)
	nodeOf := make(map[string]NodeID)
	intern := func(iri string) NodeID {
		if id, ok := nodeOf[iri]; ok {
			return id
		}
		// Until a label triple arrives, the local name serves as the label.
		id := b.AddNode(localName(iri), KindUnknown, "")
		nodeOf[iri] = id
		return id
	}
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		subj, pred, obj, err := splitTriple(line)
		if err != nil {
			if strict {
				return nil, fmt.Errorf("kg: line %d: %w", lineno, err)
			}
			continue
		}
		s := intern(subj)
		switch {
		case strings.HasPrefix(obj, "<"): // IRI object: an edge
			o := intern(strings.Trim(obj, "<>"))
			b.AddEdgeByName(s, o, localName(pred), 1)
		default: // literal object
			text, tag, err := parseLiteral(obj)
			if err != nil {
				if strict {
					return nil, fmt.Errorf("kg: line %d: %w", lineno, err)
				}
				continue
			}
			if !langMatches(tag, lang) {
				continue
			}
			switch localName(pred) {
			case "label", "prefLabel", "name":
				b.setLabel(s, text)
			case "altLabel", "alias":
				b.AddAlias(s, text)
			case "description":
				b.setDesc(s, text)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// splitTriple separates "<s> <p> <o|literal> ." respecting quoted literals.
func splitTriple(line string) (subj, pred, obj string, err error) {
	if !strings.HasSuffix(line, ".") {
		return "", "", "", fmt.Errorf("triple does not end with '.'")
	}
	line = strings.TrimSpace(strings.TrimSuffix(line, "."))
	// Subject.
	if !strings.HasPrefix(line, "<") {
		return "", "", "", fmt.Errorf("subject is not an IRI")
	}
	end := strings.IndexByte(line, '>')
	if end < 0 {
		return "", "", "", fmt.Errorf("unterminated subject IRI")
	}
	subj = line[1:end]
	line = strings.TrimSpace(line[end+1:])
	// Predicate.
	if !strings.HasPrefix(line, "<") {
		return "", "", "", fmt.Errorf("predicate is not an IRI")
	}
	end = strings.IndexByte(line, '>')
	if end < 0 {
		return "", "", "", fmt.Errorf("unterminated predicate IRI")
	}
	pred = line[1:end]
	obj = strings.TrimSpace(line[end+1:])
	if obj == "" {
		return "", "", "", fmt.Errorf("missing object")
	}
	return subj, pred, obj, nil
}

// parseLiteral decodes "text"@tag or "text"^^<type> or plain "text".
func parseLiteral(lit string) (text, lang string, err error) {
	if !strings.HasPrefix(lit, `"`) {
		return "", "", fmt.Errorf("object is neither IRI nor literal: %q", lit)
	}
	// Find the closing quote, honoring backslash escapes.
	end := -1
	for i := 1; i < len(lit); i++ {
		if lit[i] == '\\' {
			i++
			continue
		}
		if lit[i] == '"' {
			end = i
			break
		}
	}
	if end < 0 {
		return "", "", fmt.Errorf("unterminated literal")
	}
	raw := lit[:end+1]
	unquoted, err := strconv.Unquote(raw)
	if err != nil {
		// N-Triples escapes are a subset of Go's; fall back to a manual pass.
		unquoted = strings.NewReplacer(`\"`, `"`, `\\`, `\`, `\n`, "\n", `\t`, "\t").
			Replace(raw[1 : len(raw)-1])
	}
	rest := lit[end+1:]
	if strings.HasPrefix(rest, "@") {
		lang = rest[1:]
		if i := strings.IndexAny(lang, " \t"); i >= 0 {
			lang = lang[:i]
		}
	}
	return unquoted, lang, nil
}

func langMatches(tag, want string) bool {
	if tag == "" {
		return true
	}
	if want == "" {
		want = "en"
	}
	return tag == want || strings.HasPrefix(tag, want+"-")
}

// localName extracts the fragment or last path segment of an IRI
// ("http://www.wikidata.org/prop/direct/P131" -> "P131",
// "http://www.w3.org/2000/01/rdf-schema#label" -> "label").
func localName(iri string) string {
	if i := strings.LastIndexByte(iri, '#'); i >= 0 {
		return iri[i+1:]
	}
	if i := strings.LastIndexByte(iri, '/'); i >= 0 {
		return iri[i+1:]
	}
	return iri
}
