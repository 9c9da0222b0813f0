package nlp

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// scanner is the package's one analyzer: a single forward walk over a text
// that yields its tokens in order and, between them, the end of each
// sentence. Tokenize, SplitSentences, Terms, Pipeline.Process and
// TermSet.BestSentence are all loops over next — none of them builds an
// intermediate token or sentence slice, and the zero value with text set
// is ready to use, so a scan lives on the caller's stack.
//
// Tokens: a word is a maximal run of letters, digits, apostrophes and
// hyphens that starts with a letter or digit, with trailing hyphens and
// apostrophes trimmed (they re-scan as punctuation); every other non-space
// rune is a punctuation token of its own. Invalid UTF-8 decodes one byte at
// a time, so the walk always makes progress.
//
// Sentences: a boundary is a '.', '!' or '?' that sentenceBoundary accepts,
// or the first newline of a paragraph break. Boundary bytes are ASCII
// punctuation or whitespace, which no word contains, so scanning the whole
// text yields exactly the tokens that splitting first and tokenizing each
// sentence would (DESIGN.md §17 spells out the equivalence).
type scanner struct {
	text string
	pos  int // next unread byte

	start, end int  // byte range of the current token
	ascii      bool // current word token holds only ASCII bytes

	sentStart      int  // raw start of the open sentence
	open           bool // the open sentence holds at least one token
	pending        int  // raw end of a sentence that closes after the current token (0: none)
	sentLo, sentHi int  // raw range of the sentence tokSentenceEnd just closed

	buf [maxFold]byte // fold/stem scratch for ASCII words
}

// maxFold is the longest ASCII word the allocation-free fold/stem path
// handles; longer words (and all non-ASCII ones) take slowTerm.
const maxFold = 64

type tokenKind uint8

const (
	tokEOF         tokenKind = iota
	tokWord                  // start/end/ascii describe a word token
	tokPunct                 // start/end describe a one-rune punctuation token
	tokSentenceEnd           // the tokens since the last tokSentenceEnd form sentence()
)

// ASCII byte classes, derived from the unicode predicates the rune path
// uses so the two paths cannot disagree.
const (
	cSpace uint8 = 1 << iota
	cWord        // letter or digit: starts and continues a word
	cJoin        // '-' or '\'': continues a word
	cUpper
	cStop // '.', '!' or '?': sentence boundary candidate
)

var asciiClass = func() (t [256]uint8) {
	for c := rune(0); c < utf8.RuneSelf; c++ {
		if unicode.IsSpace(c) {
			t[c] |= cSpace
		}
		if isWordRune(c) {
			t[c] |= cWord
		}
		if unicode.IsUpper(c) {
			t[c] |= cUpper
		}
	}
	t['-'] |= cJoin
	t['\''] |= cJoin
	t['.'] |= cStop
	t['!'] |= cStop
	t['?'] |= cStop
	return t
}()

// lowerASCII lower-cases one ASCII byte.
func lowerASCII(c byte) byte {
	if asciiClass[c]&cUpper != 0 {
		c += 'a' - 'A'
	}
	return c
}

// next advances to the next token or sentence end. A sentence that holds
// no token is whitespace only and is not reported.
func (s *scanner) next() tokenKind {
	if s.pending > 0 {
		end := s.pending
		s.pending = 0
		return s.closeSentence(end)
	}
	text := s.text
	i := s.pos
	for i < len(text) {
		c := text[i]
		if c < utf8.RuneSelf {
			cl := asciiClass[c]
			switch {
			case cl&cSpace != 0:
				i++
				if c == '\n' && i < len(text) && text[i] == '\n' {
					// Paragraph break: always a boundary, after the first newline.
					if s.open {
						s.pos = i
						return s.closeSentence(i)
					}
					s.sentStart = i
				}
			case cl&cWord != 0:
				return s.word(i)
			default:
				if cl&cStop != 0 && sentenceBoundary(text, i) {
					s.pending = i + 1
				}
				return s.punct(i, 1)
			}
			continue
		}
		r, size := utf8.DecodeRuneInString(text[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case isWordRune(r):
			return s.word(i)
		default:
			return s.punct(i, size)
		}
	}
	s.pos = i
	if s.open {
		return s.closeSentence(i)
	}
	return tokEOF
}

func (s *scanner) punct(start, size int) tokenKind {
	s.start, s.end, s.pos = start, start+size, start+size
	s.open = true
	return tokPunct
}

// word scans the word token that starts at start (a letter or digit).
func (s *scanner) word(start int) tokenKind {
	text := s.text
	i := start
	ascii := true
	for i < len(text) {
		c := text[i]
		if c < utf8.RuneSelf {
			if asciiClass[c]&(cWord|cJoin) == 0 {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(text[i:])
		if !isWordRune(r) {
			break
		}
		ascii = false
		i += size
	}
	// The first rune is a letter or digit, so trimming stops after it.
	for text[i-1] == '-' || text[i-1] == '\'' {
		i--
	}
	s.start, s.end, s.pos = start, i, i
	s.ascii = ascii
	s.open = true
	return tokWord
}

func (s *scanner) closeSentence(end int) tokenKind {
	s.sentLo, s.sentHi = s.sentStart, end
	s.sentStart, s.open = end, false
	return tokSentenceEnd
}

// sentence is the text of the sentence tokSentenceEnd just closed.
func (s *scanner) sentence() string {
	return strings.TrimSpace(s.text[s.sentLo:s.sentHi])
}

// sentenceBoundary reports whether the '.', '!' or '?' at text[i] ends a
// sentence: it is followed by whitespace and then an uppercase letter, a
// digit or the end of text, and a '.' does not close a common abbreviation
// or a single initial.
func sentenceBoundary(text string, i int) bool {
	if text[i] == '.' && isAbbrevBefore(text, i) {
		return false
	}
	j := i + 1
	for j < len(text) && (text[j] == ' ' || text[j] == '\n' || text[j] == '\t' || text[j] == '"' || text[j] == '\'') {
		j++
	}
	if j == len(text) {
		return true
	}
	if j == i+1 {
		return false // no whitespace after the period: "3.5", "U.S."
	}
	return startsUpper(text[j:]) || unicode.IsDigit(rune(text[j]))
}

var abbrevs = map[string]bool{
	"mr": true, "mrs": true, "ms": true, "dr": true, "prof": true,
	"gen": true, "col": true, "sen": true, "gov": true, "rep": true,
	"st": true, "mt": true, "jr": true, "sr": true, "vs": true,
	"etc": true, "inc": true, "ltd": true, "co": true, "corp": true,
	"jan": true, "feb": true, "mar": true, "apr": true, "jun": true,
	"jul": true, "aug": true, "sep": true, "sept": true, "oct": true,
	"nov": true, "dec": true, "u.s": true, "u.k": true, "a.m": true, "p.m": true,
}

// maxAbbrev is the longest key of abbrevs.
const maxAbbrev = 4

// isAbbrevBefore reports whether the word that ends at text[dot] is a
// common abbreviation ("Mr", "U.S") or a single initial ("K." in "Anthony
// K. H. Tung"). ASCII words are folded on the stack; a word with non-ASCII
// bytes takes strings.ToLower, whose Unicode mappings can land on ASCII
// (U+212A KELVIN SIGN lower-cases to "k").
func isAbbrevBefore(text string, dot int) bool {
	start := dot
	var or byte
	for start > 0 {
		c := text[start-1]
		if c == ' ' || c == '\n' || c == '\t' {
			break
		}
		or |= c
		start--
	}
	w := strings.TrimLeft(text[start:dot], "(\"'")
	if or >= utf8.RuneSelf {
		w = strings.ToLower(w)
		return abbrevs[w] || len(w) == 1 && w[0] >= 'a' && w[0] <= 'z'
	}
	if len(w) > maxAbbrev {
		return false
	}
	var buf [maxAbbrev]byte
	for i := 0; i < len(w); i++ {
		buf[i] = lowerASCII(w[i])
	}
	return abbrevs[string(buf[:len(w)])] || len(w) == 1 && buf[0] >= 'a' && buf[0] <= 'z'
}

// foldStem normalizes the ASCII word w (at most maxFold bytes) into s.buf
// the way the index analyzer does — lower-case, drop stopwords and
// one-byte words, stem — and returns the term's length, 0 when dropped.
func (s *scanner) foldStem(w string) int {
	if len(w) < 2 {
		return 0
	}
	b := s.buf[:len(w)]
	for i := range b {
		b[i] = lowerASCII(w[i])
	}
	if len(b) <= maxStopword && stopwords[string(b)] {
		return 0
	}
	n, y := stemCut(b)
	if y {
		b[n] = 'y'
		n++
	}
	return n
}

// slowTerm is the analyzer for words foldStem does not take: Unicode
// lower-casing first, then the same stopword, length and stem rules.
func slowTerm(w string) (string, bool) {
	w = strings.ToLower(w)
	if stopwords[w] || len(w) < 2 {
		return "", false
	}
	return Stem(w), true
}

// term returns the index term of the current word token; ok is false when
// the analyzer drops the word. A word that is already its own term shares
// the text's bytes instead of allocating.
func (s *scanner) term() (term string, ok bool) {
	w := s.text[s.start:s.end]
	if !s.ascii || len(w) > maxFold {
		return slowTerm(w)
	}
	n := s.foldStem(w)
	if n == 0 {
		return "", false
	}
	if w[:n] == string(s.buf[:n]) {
		return w[:n], true
	}
	return string(s.buf[:n]), true
}

// termIn reports whether the current word token's index term is in set.
// It does not allocate for ASCII words of at most maxFold bytes.
func (s *scanner) termIn(set *TermSet) bool {
	w := s.text[s.start:s.end]
	if s.ascii {
		// Stemming only rewrites suffixes (stemCut keeps the two leading
		// bytes), so a word whose folded first two bytes start no term of
		// the set cannot match: most words stop here.
		if len(w) < 2 || !set.hasPrefix(lowerASCII(w[0]), lowerASCII(w[1])) {
			return false
		}
		if len(w) <= maxFold {
			n := s.foldStem(w)
			if n == 0 {
				return false
			}
			_, ok := set.terms[string(s.buf[:n])]
			return ok
		}
	}
	t, ok := slowTerm(w)
	if ok {
		_, ok = set.terms[t]
	}
	return ok
}

// TermSet is a set of analyzed terms (Terms output) compiled for probing
// document words against it: build it once per request, then scan as many
// documents as the request gathers.
type TermSet struct {
	terms  map[string]struct{}
	prefix [4]uint64 // 256-bit filter over the terms' first two bytes
}

// NewTermSet compiles terms, typically a query's analyzed text terms.
func NewTermSet(terms []string) *TermSet {
	set := &TermSet{terms: make(map[string]struct{}, len(terms))}
	for _, t := range terms {
		set.terms[t] = struct{}{}
		if len(t) >= 2 { // the analyzer never emits a shorter term
			h := prefixHash(t[0], t[1])
			set.prefix[h>>6] |= 1 << (h & 63)
		}
	}
	return set
}

func prefixHash(a, b byte) uint8 { return a*31 + b }

func (set *TermSet) hasPrefix(a, b byte) bool {
	h := prefixHash(a, b)
	return set.prefix[h>>6]&(1<<(h&63)) != 0
}

// BestSentence returns the sentence of text with the most words whose
// index term is in the set — the first such sentence on ties, "" when no
// word matches. It is the search result snippet: one pass over the text,
// no allocation for ASCII documents.
func (set *TermSet) BestSentence(text string) string {
	if len(set.terms) == 0 {
		return ""
	}
	sc := scanner{text: text}
	best, bestScore, score := "", 0, 0
	for {
		switch sc.next() {
		case tokWord:
			if sc.termIn(set) {
				score++
			}
		case tokSentenceEnd:
			if score > bestScore {
				best, bestScore = sc.sentence(), score
			}
			score = 0
		case tokEOF:
			return best
		}
	}
}
