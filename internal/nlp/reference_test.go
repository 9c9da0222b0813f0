package nlp

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// The naive analyzer the streaming scanner replaced, kept verbatim as the
// oracle for the differential and fuzz suites (scan_test.go): sentences are
// split first, every sentence is tokenized into a []Token, and terms, NER
// and the snippet each walk those slices again. The production analyzer
// must reproduce its output byte for byte.

func refTokenize(text string) []Token {
	var out []Token
	i := 0
	for i < len(text) {
		r, size := rune(text[i]), 1
		if r >= 0x80 {
			r, size = utf8.DecodeRuneInString(text[i:])
		}
		switch {
		case unicode.IsSpace(r):
			i += size
		case isWordRune(r):
			start := i
			for i < len(text) {
				r2, s2 := rune(text[i]), 1
				if r2 >= 0x80 {
					r2, s2 = utf8.DecodeRuneInString(text[i:])
				}
				if !isWordRune(r2) && !(r2 == '-' || r2 == '\'') {
					break
				}
				i += s2
			}
			end := i
			for end > start && (text[end-1] == '-' || text[end-1] == '\'') {
				end--
			}
			w := text[start:end]
			out = append(out, Token{Text: w, Start: start, End: end, Word: true, Cap: startsUpper(w)})
			i = end
			if i == start {
				i++
			}
		default:
			out = append(out, Token{Text: text[i : i+size], Start: i, End: i + size})
			i += size
		}
	}
	return out
}

func refSplitSentences(text string) []string {
	var out []string
	start := 0
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c != '.' && c != '!' && c != '?' {
			if c == '\n' && i+1 < len(text) && text[i+1] == '\n' {
				if s := strings.TrimSpace(text[start : i+1]); s != "" {
					out = append(out, s)
				}
				start = i + 1
			}
			continue
		}
		if c == '.' && refIsAbbrevBefore(text, i) {
			continue
		}
		j := i + 1
		for j < len(text) && (text[j] == ' ' || text[j] == '\n' || text[j] == '\t' || text[j] == '"' || text[j] == '\'') {
			j++
		}
		if j < len(text) && !startsUpper(text[j:]) && !unicode.IsDigit(rune(text[j])) {
			continue
		}
		if j == i+1 && j < len(text) {
			continue
		}
		if s := strings.TrimSpace(text[start : i+1]); s != "" {
			out = append(out, s)
		}
		start = i + 1
	}
	if s := strings.TrimSpace(text[start:]); s != "" {
		out = append(out, s)
	}
	return out
}

func refIsAbbrevBefore(text string, dot int) bool {
	start := dot
	for start > 0 {
		c := text[start-1]
		if c == ' ' || c == '\n' || c == '\t' {
			break
		}
		start--
	}
	w := strings.ToLower(strings.TrimLeft(text[start:dot], "(\"'"))
	if abbrevs[w] {
		return true
	}
	if len(w) == 1 && w[0] >= 'a' && w[0] <= 'z' {
		return true
	}
	return false
}

func refIsStopword(w string) bool { return stopwords[strings.ToLower(w)] }

func refTerms(text string) []string {
	toks := refTokenize(text)
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if !t.Word {
			continue
		}
		w := strings.ToLower(t.Text)
		if stopwords[w] || len(w) < 2 {
			continue
		}
		out = append(out, refStem(w))
	}
	return out
}

func refStem(w string) string {
	n := len(w)
	switch {
	case n > 4 && strings.HasSuffix(w, "ies"):
		return w[:n-3] + "y"
	case n > 4 && strings.HasSuffix(w, "sses"):
		return w[:n-2]
	case n > 3 && strings.HasSuffix(w, "es") && !strings.HasSuffix(w, "ses"):
		return w[:n-1]
	case n > 3 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") && !strings.HasSuffix(w, "us"):
		return w[:n-1]
	case n > 5 && strings.HasSuffix(w, "ing"):
		return refUndouble(w[:n-3])
	case n > 4 && strings.HasSuffix(w, "ed"):
		return refUndouble(w[:n-2])
	case n > 4 && strings.HasSuffix(w, "ly"):
		return w[:n-2]
	}
	return w
}

func refUndouble(w string) string {
	n := len(w)
	if n >= 2 && w[n-1] == w[n-2] && !isVowel(w[n-1]) && w[n-1] != 'l' && w[n-1] != 's' {
		return w[:n-1]
	}
	return w
}

// refSnippet is the engine's pre-scanner snippet: the first sentence with
// the highest count of terms found in qTerms.
func refSnippet(text string, qTerms []string) string {
	if len(qTerms) == 0 {
		return ""
	}
	want := make(map[string]bool, len(qTerms))
	for _, t := range qTerms {
		want[t] = true
	}
	best, bestScore := "", 0
	for _, sent := range refSplitSentences(text) {
		score := 0
		for _, t := range refTerms(sent) {
			if want[t] {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = sent, score
		}
	}
	return best
}

func refProcess(p *Pipeline, text string) *Document {
	maxSpan := p.MaxSpan
	if maxSpan <= 0 {
		maxSpan = 4
	}
	doc := &Document{}
	for _, st := range refSplitSentences(text) {
		toks := refTokenize(st)
		words := 0
		for _, t := range toks {
			if t.Word {
				words++
			}
		}
		doc.Sentences = append(doc.Sentences, Sentence{
			Text:     st,
			Terms:    refTerms(st),
			Mentions: refRecognize(p, toks, maxSpan),
			tokens:   words,
		})
	}
	return doc
}

func refRecognize(p *Pipeline, toks []Token, maxSpan int) []Mention {
	var words []int
	for i, t := range toks {
		if t.Word {
			words = append(words, i)
		}
	}
	text := func(wi, span int) string {
		var sb strings.Builder
		for k := 0; k < span; k++ {
			if k > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(toks[words[wi+k]].Text)
		}
		return sb.String()
	}
	adjacent := func(w int) bool { return words[w] == words[w-1]+1 }
	spanOK := func(wi, span int) bool {
		for k := 0; k < span; k++ {
			t := toks[words[wi+k]]
			if k == 0 && !t.Cap {
				return false
			}
			if !t.Cap && !connector(t.Text) && !allDigits(t.Text) {
				return false
			}
			if k == span-1 && !t.Cap && !allDigits(t.Text) {
				return false
			}
			if k > 0 && !adjacent(wi+k) {
				return false
			}
		}
		return true
	}
	var out []Mention
	used := make([]bool, len(words))
	for wi := 0; wi < len(words); wi++ {
		if used[wi] {
			continue
		}
		t := toks[words[wi]]
		if !t.Cap || refIsStopword(t.Text) {
			continue
		}
		matched := 0
		var matchedText string
		for span := min(maxSpan, len(words)-wi); span >= 1; span-- {
			if !spanOK(wi, span) {
				continue
			}
			s := text(wi, span)
			if p.Gaz != nil && p.Gaz.Contains(s) {
				matched, matchedText = span, s
				break
			}
		}
		if matched > 0 {
			for k := wi; k < wi+matched; k++ {
				used[k] = true
			}
			out = append(out, Mention{Text: matchedText, Label: Fold(matchedText), Linked: true})
			wi += matched - 1
			continue
		}
		span := 1
		for wi+span < len(words) && span < maxSpan {
			nt := toks[words[wi+span]]
			if !nt.Cap || refIsStopword(nt.Text) || !adjacent(wi+span) {
				break
			}
			span++
		}
		if wi == 0 && span == 1 {
			continue
		}
		s := text(wi, span)
		for k := wi; k < wi+span; k++ {
			used[k] = true
		}
		out = append(out, Mention{Text: s, Label: Fold(s), Linked: false})
		wi += span - 1
	}
	return out
}
