package nlp

import (
	"strings"
	"unicode/utf8"
)

// stopwords is a compact English stopword list used for BOW term extraction
// and for rejecting single-stopword entity candidates during NER.
var stopwords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(`
a about above after again against all am an and any are as at be because
been before being below between both but by can did do does doing down
during each few for from further had has have having he her here hers
herself him himself his how i if in into is it its itself just me more
most my myself no nor not now of off on once only or other our ours
ourselves out over own same she should so some such than that the their
theirs them themselves then there these they this those through to too
under until up very was we were what when where which while who whom why
will with you your yours yourself yourselves said says say according
would could also may might must shall new news reported report told
`) {
		stopwords[w] = true
		if len(w) > maxStopword {
			maxStopword = len(w)
		}
	}
}

// maxStopword is the longest stopword, set by init; maxStopwordBuf bounds
// it for IsStopword's stack buffer.
var maxStopword int

const maxStopwordBuf = 16

// IsStopword reports whether w, lower-cased, is a stopword. ASCII input is
// folded on the stack; only a word with non-ASCII bytes pays for
// strings.ToLower (whose Unicode mappings can land on ASCII).
func IsStopword(w string) bool {
	var buf [maxStopwordBuf]byte
	for i := 0; i < len(w); i++ {
		c := w[i]
		if c >= utf8.RuneSelf {
			return stopwords[strings.ToLower(w)]
		}
		if i < len(buf) {
			buf[i] = lowerASCII(c)
		}
	}
	return len(w) <= maxStopword && stopwords[string(buf[:len(w)])]
}

// Terms extracts normalized BOW terms from text: lowercased word tokens,
// stopwords removed, light suffix stemming applied. This is the analyzer
// used for the text inverted index (the paper's NS component uses Lucene's
// default analyzer; this plays the same role).
func Terms(text string) []string {
	// Prose yields about one term per eleven bytes; eight leaves headroom.
	out := make([]string, 0, len(text)/8+1)
	sc := scanner{text: text}
	for {
		switch sc.next() {
		case tokWord:
			if t, ok := sc.term(); ok {
				out = append(out, t)
			}
		case tokEOF:
			return out
		}
	}
}

// Stem applies a light suffix-stripping stemmer (a small subset of Porter's
// rules: plural -s/-es/-ies, -ed, -ing, -ly). It never shortens a word below
// three characters.
func Stem(w string) string {
	n, y := stemCut(w)
	if y {
		return w[:n] + "y"
	}
	return w[:n]
}

// stemCut is Stem over a string or the scanner's fold buffer: the stem of w
// is its first n bytes, followed by "y" when y is set ("armies" → "army").
// Every rule only rewrites a suffix and keeps at least two leading bytes.
func stemCut[T string | []byte](w T) (n int, y bool) {
	n = len(w)
	switch {
	case n > 4 && hasSuffix(w, "ies"):
		return n - 3, true
	case n > 4 && hasSuffix(w, "sses"):
		return n - 2, false
	case n > 3 && hasSuffix(w, "es") && !hasSuffix(w, "ses"):
		return n - 1, false // "bombes"→"bombe" is fine for matching purposes
	case n > 3 && hasSuffix(w, "s") && !hasSuffix(w, "ss") && !hasSuffix(w, "us"):
		return n - 1, false
	case n > 5 && hasSuffix(w, "ing"):
		return undouble(w, n-3), false
	case n > 4 && hasSuffix(w, "ed"):
		return undouble(w, n-2), false
	case n > 4 && hasSuffix(w, "ly"):
		return n - 2, false
	}
	return n, false
}

func hasSuffix[T string | []byte](w T, suffix string) bool {
	return len(w) >= len(suffix) && string(w[len(w)-len(suffix):]) == suffix
}

// undouble collapses a doubled final consonant of w[:n] ("stopp" → "stop")
// and returns the new length.
func undouble[T string | []byte](w T, n int) int {
	if n >= 2 && w[n-1] == w[n-2] && !isVowel(w[n-1]) && w[n-1] != 'l' && w[n-1] != 's' {
		return n - 1
	}
	return n
}

func isVowel(c byte) bool {
	switch c {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}
