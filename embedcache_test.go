package newslink

import (
	"math/rand"
	"strings"
	"testing"

	"newslink/internal/corpus"
	"newslink/internal/kg"
)

// Regression for the query-cache key bug: "Trump  Putin" and "trump putin"
// used to occupy two cache entries and run the NE component twice. The key
// is now the folded text (lowercased, whitespace collapsed), so casing and
// spacing variants of one query share a single analysis.
func TestQueryCacheKeyCanonicalization(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	variants := []string{
		"Military conflicts between Pakistan and Taliban",
		"military conflicts between pakistan and taliban",
		"  Military   conflicts  between Pakistan and Taliban ",
		"MILITARY CONFLICTS BETWEEN PAKISTAN AND TALIBAN",
	}
	for _, q := range variants {
		if _, err := e.Search(q, 3); err != nil {
			t.Fatalf("Search(%q): %v", q, err)
		}
	}
	if n := e.gs.queries.Len(); n != 1 {
		t.Fatalf("query cache holds %d entries for one canonical query, want 1", n)
	}
	if hits := e.met.cacheHits.Value(); hits != int64(len(variants)-1) {
		t.Fatalf("query cache hits = %d, want %d (every variant after the first)", hits, len(variants)-1)
	}
	if misses := e.met.cacheMisses.Value(); misses != 1 {
		t.Fatalf("query cache misses = %d, want 1", misses)
	}
}

// TestEntitySetCacheSharesEmbeddings proves cache tier two: queries whose
// TEXT differs (so the text-keyed tier misses) but whose resolved entity
// set is the same share one G* embedding.
func TestEntitySetCacheSharesEmbeddings(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	if _, err := e.Search("Taliban fighters attacked Pakistan", 3); err != nil {
		t.Fatal(err)
	}
	if got := e.met.embedCacheHits.Value(); got != 0 {
		t.Fatalf("embed cache hits after first query = %d, want 0", got)
	}
	// Different phrasing and entity order, same entity set.
	if _, err := e.Search("Pakistan was attacked by the Taliban", 3); err != nil {
		t.Fatal(err)
	}
	if got := e.met.embedCacheHits.Value(); got != 1 {
		t.Fatalf("embed cache hits after rephrased query = %d, want 1", got)
	}
	if n := e.gs.queries.Len(); n != 2 {
		t.Fatalf("query cache holds %d entries, want 2 (texts differ)", n)
	}
	if n := e.gs.embeds.Len(); n != 1 {
		t.Fatalf("embed cache holds %d entries, want 1 (entity sets equal)", n)
	}
}

// TestEntitySetKeyCanonical pins the canonicalization rules the cache key
// relies on: per-group fold + dedup + resolvability filter + sort, then a
// sort over group keys with duplicates kept.
func TestEntitySetKeyCanonical(t *testing.T) {
	g, _ := corpus.Sample()
	base := entitySetKey(g, [][]string{{"Pakistan", "Taliban"}})
	if base == "" {
		t.Fatal("sample graph did not resolve Pakistan/Taliban")
	}
	same := [][][]string{
		{{"Taliban", "Pakistan"}},                         // order
		{{"  pakistan ", "TALIBAN", "taliban"}},           // fold + dup
		{{"Pakistan", "no such entity xyzzy", "Taliban"}}, // unresolvable dropped
		{{"nope at all"}, {"Taliban", "Pakistan"}},        // unembeddable group dropped
	}
	for i, groups := range same {
		if got := entitySetKey(g, groups); got != base {
			t.Fatalf("variant %d: key %q != base %q", i, got, base)
		}
	}
	if k := entitySetKey(g, [][]string{{"Pakistan"}}); k == base {
		t.Fatal("different entity sets share a key")
	}
	// Duplicate groups are kept: they contribute twice to node counts.
	if k := entitySetKey(g, [][]string{{"Pakistan", "Taliban"}, {"Taliban", "Pakistan"}}); k == base {
		t.Fatal("duplicated group collapsed into the single-group key")
	}
	if k := entitySetKey(g, [][]string{{"zzz unresolvable"}}); k != "" {
		t.Fatalf("fully unresolvable groups produced key %q, want \"\"", k)
	}
}

// TestEngineOptions covers the functional-options constructor: Config
// stays a valid option, and the cache/fan-out knobs take effect.
func TestEngineOptions(t *testing.T) {
	g, arts := corpus.Sample()
	e := New(g, DefaultConfig(), WithEmbedCache(0), WithParallelEmbed(1))
	for _, a := range arts {
		if err := e.Add(Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Search("Military conflicts between Pakistan and Taliban", 3); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.gs.queries.Len(); n != 1 {
		t.Fatalf("query cache holds %d entries for one repeated query, want 1", n)
	}
	if n := e.gs.embeds.Len(); n != 0 {
		t.Fatalf("disabled embed cache stored %d entries", n)
	}
	// New(g) alone must behave like DefaultConfig.
	if e2 := New(g); e2.cfg != DefaultConfig() {
		t.Fatalf("New(g) config = %+v, want DefaultConfig", e2.cfg)
	}
}

// FuzzQueryCacheKey fuzzes the canonicalized cache keys of both tiers:
// kg.Fold must be idempotent and insensitive to case/whitespace noise, and
// entitySetKey must be invariant under label permutation, duplication and
// folding noise — the properties the caches rely on for correctness (two
// texts sharing a key MUST mean the same analysis).
func FuzzQueryCacheKey(f *testing.F) {
	f.Add("Trump  Putin")
	f.Add("military conflicts between pakistan and taliban")
	f.Add("  Swat\tValley ")
	f.Add("a b") // non-breaking space
	g, _ := corpus.Sample()
	f.Fuzz(func(t *testing.T, text string) {
		folded := kg.Fold(text)
		if again := kg.Fold(folded); again != folded {
			t.Fatalf("Fold not idempotent: %q -> %q", folded, again)
		}
		if kg.Fold(" "+text+"\t") != folded {
			t.Fatal("Fold sensitive to surrounding whitespace")
		}
		// Case property: folding is stable under simple lowercasing (full
		// upper/lower round trips are NOT identity in Unicode — ϰ→Κ→κ — and
		// the cache key never claims that).
		if kg.Fold(strings.ToLower(text)) != folded {
			t.Fatalf("Fold not stable under ToLower for %q", text)
		}

		// Build an entity group from the text's words plus known labels, and
		// require key invariance under shuffle + duplication + fold noise.
		words := strings.Fields(text)
		if len(words) > 6 {
			words = words[:6]
		}
		group := append([]string{"Pakistan", "Taliban"}, words...)
		base := entitySetKey(g, [][]string{group})
		noisy := make([]string, len(group))
		for i, l := range group {
			noisy[i] = " " + strings.ToLower(l) + "  "
		}
		rng := rand.New(rand.NewSource(int64(len(text))))
		rng.Shuffle(len(noisy), func(i, j int) { noisy[i], noisy[j] = noisy[j], noisy[i] })
		noisy = append(noisy, group[0]) // duplicate
		if got := entitySetKey(g, [][]string{noisy}); got != base {
			t.Fatalf("entitySetKey not canonical: %q vs %q", got, base)
		}
	})
}
