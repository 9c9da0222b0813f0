package nlp

import "strings"

// Gazetteer is the entity-linking oracle: the knowledge graph's label index
// satisfies it. Matching is exact on the folded label (Section IV: "The
// matching from entity label to entity nodes in the KG follows an exact
// matching manner").
type Gazetteer interface {
	Contains(label string) bool
}

// Mention is one recognized entity mention in a sentence.
type Mention struct {
	Text   string // surface form as it appears in the text
	Label  string // folded label used for linking and grouping
	Linked bool   // true if the gazetteer resolved the label
}

// Sentence is a news segment (the paper uses one sentence per segment,
// Section VII-A4) together with its recognized mentions.
type Sentence struct {
	Text     string
	Terms    []string // normalized BOW terms
	Mentions []Mention
	tokens   int // word token count, for entity density
}

// EntityDensity is the number of recognized entities divided by the number
// of word tokens (Section VII-B, query selection).
func (s *Sentence) EntityDensity() float64 {
	if s.tokens == 0 {
		return 0
	}
	return float64(len(s.Mentions)) / float64(s.tokens)
}

// Labels returns the distinct folded labels of the sentence's linked
// mentions, in first-appearance order.
func (s *Sentence) Labels() []string {
	seen := make(map[string]bool, len(s.Mentions))
	var out []string
	for _, m := range s.Mentions {
		if !m.Linked || seen[m.Label] {
			continue
		}
		seen[m.Label] = true
		out = append(out, m.Label)
	}
	return out
}

// Document is the NLP component's output for one news text.
type Document struct {
	Sentences []Sentence
}

// Pipeline runs tokenization, sentence splitting and gazetteer NER.
// The zero value with a Gazetteer set is ready to use.
type Pipeline struct {
	Gaz Gazetteer
	// MaxSpan is the longest entity mention in words (default 4).
	MaxSpan int
}

// NewPipeline returns a Pipeline over the given gazetteer.
func NewPipeline(gaz Gazetteer) *Pipeline { return &Pipeline{Gaz: gaz, MaxSpan: 4} }

// Process runs the full NLP pipeline on a news text: one scanner pass
// yields each sentence's BOW terms, word count and the word view NER
// matches over.
func (p *Pipeline) Process(text string) *Document {
	maxSpan := p.MaxSpan
	if maxSpan <= 0 {
		maxSpan = 4
	}
	doc := &Document{}
	// Every sentence's Terms is a window of one backing array, capped so an
	// append by the caller copies instead of running into the next sentence.
	terms := make([]string, 0, len(text)/8+1)
	words := make([]nerWord, 0, 64)
	adj := true // no punctuation token since the previous word
	sc := scanner{text: text}
	for {
		switch sc.next() {
		case tokWord:
			w := text[sc.start:sc.end]
			words = append(words, nerWord{text: w, cap: startsUpper(w), adj: adj})
			adj = true
			if t, ok := sc.term(); ok {
				terms = append(terms, t)
			}
		case tokPunct:
			adj = false
		case tokSentenceEnd:
			doc.Sentences = append(doc.Sentences, Sentence{
				Text:     sc.sentence(),
				Terms:    terms[:len(terms):len(terms)],
				Mentions: p.recognize(words, maxSpan),
				tokens:   len(words),
			})
			terms = terms[len(terms):]
			words = words[:0]
			adj = true
		case tokEOF:
			return doc
		}
	}
}

// nerWord is one word token of a sentence as entity recognition sees it.
type nerWord struct {
	text string
	cap  bool // first rune is uppercase
	adj  bool // directly follows the previous word: no punctuation between
}

// recognize finds entity mentions by longest match over spans of capitalized
// words (connectors "of"/"the"/"al" allowed inside a span). A span is a
// mention if the gazetteer contains it; otherwise a maximal capitalized
// span of >=1 words that is not a stopword and not sentence-initial-only is
// reported as an identified-but-unmatched entity (needed for the entity
// matching ratio of Table V).
func (p *Pipeline) recognize(words []nerWord, maxSpan int) []Mention {
	var out []Mention
	for wi := 0; wi < len(words); wi++ {
		if !words[wi].cap || IsStopword(words[wi].text) {
			continue
		}
		// Try the longest gazetteer match starting here.
		matched := 0
		var matchedText string
		for span := min(maxSpan, len(words)-wi); span >= 1; span-- {
			if !spanOK(words[wi : wi+span]) {
				continue
			}
			text := spanText(words[wi : wi+span])
			if p.Gaz != nil && p.Gaz.Contains(text) {
				matched, matchedText = span, text
				break
			}
		}
		if matched > 0 {
			out = append(out, Mention{Text: matchedText, Label: Fold(matchedText), Linked: true})
			wi += matched - 1
			continue
		}
		// Unmatched: take the maximal run of capitalized words.
		span := 1
		for wi+span < len(words) && span < maxSpan {
			nt := words[wi+span]
			if !nt.cap || IsStopword(nt.text) || !nt.adj {
				break
			}
			span++
		}
		// Sentence-initial single lowercase-common words are noise; skip a
		// single sentence-initial capitalized word that is a common word.
		if wi == 0 && span == 1 {
			continue
		}
		text := spanText(words[wi : wi+span])
		out = append(out, Mention{Text: text, Label: Fold(text), Linked: false})
		wi += span - 1
	}
	return out
}

// spanOK reports whether the words form a plausible mention: the first and
// last are capitalized, interior words are capitalized or connectors, and
// consecutive words are adjacent (no intervening punctuation).
func spanOK(span []nerWord) bool {
	for k, w := range span {
		if k == 0 && !w.cap {
			return false // mentions start with a capitalized word
		}
		// Numbers are legal inside and at the end of names ("US
		// presidential election 2016", "Swatara Cup 2019").
		if !w.cap && !connector(w.text) && !allDigits(w.text) {
			return false
		}
		if k == len(span)-1 && !w.cap && !allDigits(w.text) {
			return false
		}
		if k > 0 && !w.adj {
			return false
		}
	}
	return true
}

// allDigits reports whether the token is a number.
func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func connector(w string) bool {
	switch strings.ToLower(w) {
	case "of", "the", "al", "and", "de", "la":
		return true
	}
	return false
}

// spanText joins the words of a span with single spaces.
func spanText(span []nerWord) string {
	if len(span) == 1 {
		return span[0].text
	}
	var sb strings.Builder
	for k, w := range span {
		if k > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(w.text)
	}
	return sb.String()
}

// Fold normalizes an entity label the same way the KG label index does:
// lowercase with collapsed whitespace. Duplicated here (one line) to keep
// nlp free of a kg dependency.
func Fold(label string) string {
	return strings.Join(strings.Fields(strings.ToLower(label)), " ")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
