package nlp

import (
	"reflect"
	"strings"
	"testing"

	"newslink/internal/corpus"
	"newslink/internal/kg"
)

// analyzerSeeds are the inputs where a streaming analyzer is most likely to
// part ways with split-then-tokenize: abbreviations and initials around
// boundaries, paragraph breaks, periods without whitespace, trimmed word
// tails, Unicode case mappings that change length or land on ASCII, and
// invalid UTF-8.
var analyzerSeeds = []string{
	"",
	"Taliban militants attacked Upper Dir. Pakistani forces responded in Swat Valley! Did Mr. Khan visit the U.S. embassy? He did.",
	"Gen. Bajwa met Dr. Khan on Jan. 5. They talked about Anthony K. H. Tung.",
	"First paragraph without period\n\nSecond one.\n\n\n\nThird  \n\n",
	"Prices rose 3.5 percent.Markets fell. \"Quoted start.\" 'Another one.' 2016 came.",
	"trailing- dash, trailing' quote, rock-'n'-roll's co-op isn't odd- -x 'y'",
	"a.b.c...d!!?! (Mr. Smith) (\"Dr. Who\") u.s. U.K. p.m. A.M. Sept. Prof.",
	"İstanbul ve İZMİR. Straße und GROSSE STRASSEN. naıve cafés. ǅungla ǆ.",
	"K. Kelvin Kelvins u.K. Next. İ. Dotted İs.",
	"unicode: 日本語 naïve cafés — em—dash　ideographic nbspnel.",
	"\x00\xff\xfe broken bytes.\xe3\x80 Cut rune \xe3\x80\x80\x80 armies\xc3",
	"Tabs\tand\nnewlines\r\nand  spaces.\r\n\r\nWindows paragraphs.",
	"ALLCAPS ARMIES STOPPED BOMBING QUICKLY; GLASSES, NEWS, BUSES, SKIING.",
	strings.Repeat("Supercalifragilisticexpialidocious", 3) + "s armies " + strings.Repeat("x", 70) + "ing.",
	"The THE the. Was IS it's its I a.",
}

// querySeeds pair with analyzerSeeds in the snippet checks.
var querySeeds = []string{
	"", "taliban attack", "Khan talks", "armies bombing glasses", "istanbul strasse cafés",
	"kelvin naive", "x y d", "the was", strings.Repeat("x", 70) + "ing supercalifragilisticexpialidocious",
}

// checkAnalyzer asserts every consumer of the scanner against the
// reference analyzer on one text.
func checkAnalyzer(t testing.TB, p *Pipeline, text string) {
	t.Helper()
	if got, want := Terms(text), refTerms(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms(%q)\n got %q\nwant %q", text, got, want)
	}
	got, want := Tokenize(text), refTokenize(text)
	if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize(%q)\n got %+v\nwant %+v", text, got, want)
	}
	if got, want := SplitSentences(text), refSplitSentences(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("SplitSentences(%q)\n got %q\nwant %q", text, got, want)
	}
	if got, want := p.Process(text).Sentences, refProcess(p, text).Sentences; !reflect.DeepEqual(got, want) {
		t.Fatalf("Process(%q)\n got %+v\nwant %+v", text, got, want)
	}
}

func checkSnippet(t testing.TB, text string, qTerms []string) {
	t.Helper()
	if got, want := NewTermSet(qTerms).BestSentence(text), refSnippet(text, qTerms); got != want {
		t.Fatalf("BestSentence(%q, %q)\n got %q\nwant %q", text, qTerms, got, want)
	}
}

func TestAnalyzerMatchesReferenceOnSeeds(t *testing.T) {
	p := NewPipeline(paperGaz())
	for _, text := range analyzerSeeds {
		checkAnalyzer(t, p, text)
		for _, q := range querySeeds {
			checkSnippet(t, text, refTerms(q))
			checkSnippet(t, text, strings.Fields(q)) // terms the analyzer would never emit
		}
	}
	for _, w := range append(strings.Fields(strings.Join(analyzerSeeds, " ")), "Themselves", "YOURSELVES", "themselvesx", "İn", "wİth") {
		if got, want := IsStopword(w), refIsStopword(w); got != want {
			t.Errorf("IsStopword(%q) = %v, want %v", w, got, want)
		}
		if got, want := Stem(w), refStem(w); got != want {
			t.Errorf("Stem(%q) = %q, want %q", w, got, want)
		}
	}
}

// TestAnalyzerMatchesReferenceOnCorpus is the differential test over the
// generated news corpora: every article through every analyzer entry point,
// and every article against a spread of title queries for the snippet.
func TestAnalyzerMatchesReferenceOnCorpus(t *testing.T) {
	w := kg.Generate(kg.DefaultConfig(3))
	p := NewPipeline(w.Graph.Index())
	for _, prof := range []corpus.Profile{corpus.CNNLike(), corpus.KaggleLike()} {
		arts := corpus.Generate(w, prof, 300, 11)
		queries := make([][]string, 0, len(arts)/7+1)
		for i := 0; i < len(arts); i += 7 {
			queries = append(queries, Terms(arts[i].Title))
		}
		snippets := 0
		for i, a := range arts {
			checkAnalyzer(t, p, a.Text)
			checkAnalyzer(t, p, a.Title)
			for j := 0; j < 8; j++ {
				q := queries[(i+j*5)%len(queries)]
				checkSnippet(t, a.Text, q)
				if refSnippet(a.Text, q) != "" {
					snippets++
				}
			}
		}
		if snippets < len(arts) {
			t.Fatalf("%s: only %d non-empty snippets over %d articles; the queries do not exercise the scan", prof.Name, snippets, len(arts))
		}
	}
}

// TestBestSentenceDoesNotAllocate pins the point of the scanner: probing an
// ASCII document against a compiled term set allocates nothing.
func TestBestSentenceDoesNotAllocate(t *testing.T) {
	w := kg.Generate(kg.DefaultConfig(3))
	arts := corpus.Generate(w, corpus.CNNLike(), 10, 5)
	set := NewTermSet(Terms(arts[0].Title + " " + arts[5].Title))
	found := 0
	allocs := testing.AllocsPerRun(20, func() {
		for _, a := range arts {
			if set.BestSentence(a.Text) != "" {
				found++
			}
		}
	})
	if found == 0 {
		t.Fatal("no article matched; the scan never reached the probe")
	}
	if allocs != 0 {
		t.Fatalf("BestSentence over 10 ASCII articles: %v allocs/run, want 0", allocs)
	}
	if a := testing.AllocsPerRun(100, func() { IsStopword("The"); IsStopword("Taliban") }); a != 0 {
		t.Fatalf("IsStopword on ASCII input: %v allocs/run, want 0", a)
	}
}

// TestFoldBuffersCoverTables keeps the fixed-size fold buffers in step with
// the tables they are probed against.
func TestFoldBuffersCoverTables(t *testing.T) {
	for w := range abbrevs {
		if len(w) > maxAbbrev {
			t.Errorf("abbreviation %q is longer than maxAbbrev = %d", w, maxAbbrev)
		}
	}
	if maxStopword > maxStopwordBuf {
		t.Errorf("longest stopword has %d bytes, IsStopword folds %d", maxStopword, maxStopwordBuf)
	}
}

func FuzzTerms(f *testing.F) {
	for _, s := range analyzerSeeds {
		f.Add(s)
	}
	p := NewPipeline(paperGaz())
	f.Fuzz(func(t *testing.T, text string) {
		checkAnalyzer(t, p, text)
		if got, want := IsStopword(text), refIsStopword(text); got != want {
			t.Fatalf("IsStopword(%q) = %v, want %v", text, got, want)
		}
		if got, want := Stem(text), refStem(text); got != want {
			t.Fatalf("Stem(%q) = %q, want %q", text, got, want)
		}
	})
}

func FuzzSnippet(f *testing.F) {
	for i, s := range analyzerSeeds {
		f.Add(s, querySeeds[i%len(querySeeds)])
	}
	f.Fuzz(func(t *testing.T, text, query string) {
		checkSnippet(t, text, refTerms(query))
		checkSnippet(t, text, strings.Fields(query))
		// A query drawn from the text itself always has overlaps to count.
		checkSnippet(t, text, refTerms(text[len(text)/2:]))
	})
}
