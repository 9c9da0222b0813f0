// Package nlp implements the NLP component of NewsLink (Section IV of the
// paper): tokenization, sentence segmentation, named entity recognition and
// the maximal entity co-occurrence set.
//
// The paper uses spaCy's pretrained pipeline; offline we substitute a
// gazetteer NER over the same knowledge-graph label index used for entity
// linking (DESIGN.md §1). Downstream components only consume groups of
// entity labels per news segment, which this package produces identically.
package nlp

import "unicode"

// Token is a single lexical token with its byte offsets in the source text.
type Token struct {
	Text  string
	Start int // byte offset of the first byte
	End   int // byte offset one past the last byte
	Word  bool
	Cap   bool // first rune is uppercase
}

// Tokenize splits text into word and punctuation tokens. Words are maximal
// runs of letters, digits, apostrophes and interior hyphens; every other
// non-space rune is its own token.
func Tokenize(text string) []Token {
	// Prose runs at about one token per five bytes.
	out := make([]Token, 0, len(text)/5+1)
	sc := scanner{text: text}
	for {
		switch sc.next() {
		case tokWord:
			w := text[sc.start:sc.end]
			out = append(out, Token{Text: w, Start: sc.start, End: sc.end, Word: true, Cap: startsUpper(w)})
		case tokPunct:
			out = append(out, Token{Text: text[sc.start:sc.end], Start: sc.start, End: sc.end})
		case tokEOF:
			return out
		}
	}
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

func startsUpper(s string) bool {
	for _, r := range s {
		return unicode.IsUpper(r)
	}
	return false
}

// SplitSentences segments text into sentences. A sentence boundary is a
// '.', '!' or '?' followed by whitespace and an uppercase letter or end of
// text, except after common abbreviations and single initials; a paragraph
// break is always a boundary.
func SplitSentences(text string) []string {
	var out []string
	sc := scanner{text: text}
	for {
		switch sc.next() {
		case tokSentenceEnd:
			out = append(out, sc.sentence())
		case tokEOF:
			return out
		}
	}
}
