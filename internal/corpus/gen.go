package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"newslink/internal/kg"
)

// Profile describes a corpus flavour. The two presets differ in document
// length, entity density, noise and redundancy, mirroring how the paper's
// CNN and Kaggle corpora differ in character.
type Profile struct {
	Name string
	// MinSentences..MaxSentences bounds the document length.
	MinSentences, MaxSentences int
	// NoiseEntityRate is the probability that an entity slot is filled with
	// an out-of-KG name; it drives the entity matching ratio of Table V
	// below 100%.
	NoiseEntityRate float64
	// FillerRate is the probability of inserting an entity-free filler
	// sentence after each generated sentence.
	FillerRate float64
	// DocsPerEvent controls redundancy: how many distinct articles narrate
	// the same event.
	DocsPerEvent int
	// NoEntityDocRate is the fraction of wire-brief articles that mention no
	// KG entity at all; such documents receive no subgraph embedding, which
	// is what drives the paper's corpus coverage below 100% (Section
	// VII-A2: 96.3% of CNN and 91.2% of Kaggle documents kept).
	NoEntityDocRate float64
}

// CNNLike mirrors the paper's CNN corpus: longer stories, lower noise.
func CNNLike() Profile {
	return Profile{Name: "cnn", MinSentences: 7, MaxSentences: 11,
		NoiseEntityRate: 0.03, FillerRate: 0.25, DocsPerEvent: 3, NoEntityDocRate: 0.037}
}

// KaggleLike mirrors the paper's Kaggle all-the-news corpus: shorter,
// noisier documents.
func KaggleLike() Profile {
	return Profile{Name: "kaggle", MinSentences: 5, MaxSentences: 9,
		NoiseEntityRate: 0.045, FillerRate: 0.35, DocsPerEvent: 3, NoEntityDocRate: 0.075}
}

// Generate produces n articles from the world's event catalogue. The same
// (world, profile, n, seed) always yields identical articles, each
// stamped with a strictly monotone event timestamp (see Article.Time).
func Generate(w *kg.World, p Profile, n int, seed int64) []Article {
	rng := newRand(seed)
	g := w.Graph
	out := make([]Article, 0, n)
	if len(w.Events) == 0 || n <= 0 {
		return out
	}
	for i := 0; len(out) < n; i++ {
		if rng.Float64() < p.NoEntityDocRate {
			out = append(out, briefArticle(len(out), rng))
			continue
		}
		ev := w.Events[(i/maxInt(p.DocsPerEvent, 1))%len(w.Events)]
		out = append(out, genArticle(g, ev, p, len(out), rng))
	}
	return stampTimes(out)
}

// briefArticle writes a short wire brief that names no KG entity: filler
// prose plus at most an unlinkable minor figure. Its entity groups are
// empty or unlinkable, so the NE component produces no embedding.
func briefArticle(id int, rng *rand.Rand) Article {
	var sb strings.Builder
	n := 3 + rng.Intn(3)
	for s := 0; s < n; s++ {
		sb.WriteString(fillerSentences[rng.Intn(len(fillerSentences))])
		sb.WriteByte('\n')
	}
	if rng.Float64() < 0.5 {
		fmt.Fprintf(&sb, "%s declined to comment on the matter.\n", fakeName(rng))
	}
	return Article{ID: id, Title: "In brief", Text: sb.String(), Topic: "brief"}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// entityPool gathers the labels an article about ev may mention: the
// participants and location first (core), then KG context within one hop.
func entityPool(g *kg.Graph, ev kg.Event) (core, context []string) {
	seen := map[string]bool{}
	add := func(list *[]string, id kg.NodeID) {
		l := g.Label(id)
		if !seen[l] {
			seen[l] = true
			*list = append(*list, l)
		}
	}
	for _, p := range ev.Participants {
		add(&core, p)
	}
	add(&core, ev.Location)
	add(&context, ev.Country)
	for _, p := range append([]kg.NodeID{ev.Location}, ev.Participants...) {
		for _, to := range g.Targets(p)[:min(g.Degree(p), 4)] {
			if g.Node(to).Kind == kg.KindEvent {
				continue // event nodes have unwieldy generated labels
			}
			add(&context, to)
		}
	}
	return core, context
}

// genArticle writes one article about an event.
func genArticle(g *kg.Graph, ev kg.Event, p Profile, id int, rng *rand.Rand) Article {
	core, context := entityPool(g, ev)
	words := topicWords[ev.Topic]
	nSent := p.MinSentences
	if p.MaxSentences > p.MinSentences {
		nSent += rng.Intn(p.MaxSentences - p.MinSentences + 1)
	}
	pickEntity := func() string {
		if rng.Float64() < p.NoiseEntityRate {
			return fakeName(rng)
		}
		// Core entities twice as likely as one-hop context.
		if len(context) == 0 || rng.Float64() < 0.66 {
			return core[rng.Intn(len(core))]
		}
		return context[rng.Intn(len(context))]
	}
	var sb strings.Builder
	title := fmt.Sprintf("%s %s in %s", core[0], words[rng.Intn(len(words))], g.Label(ev.Location))
	// The opening sentence anchors the article to its event by name, so the
	// partial-query task has an exact handle on the document. A minority of
	// leads carry an attribution to a minor figure the KG does not know —
	// these unlinkable mentions are what keeps the entity matching ratio of
	// Table V below 100%, as with real NER.
	attribution := ""
	if rng.Float64() < 0.12 {
		attribution = ", " + fakeName(rng) + " reported"
	}
	fmt.Fprintf(&sb, "The %s drew attention to %s as %s %s%s.\n",
		g.Label(ev.Node), g.Label(ev.Location), core[0], words[rng.Intn(len(words))], attribution)
	for s := 1; s < nSent; s++ {
		sent := fillTemplate(templates[rng.Intn(len(templates))], pickEntity, words, rng)
		// Sentence-initial capitalization keeps the sentence splitter honest.
		sb.WriteString(strings.ToUpper(sent[:1]) + sent[1:])
		sb.WriteByte('\n')
		if rng.Float64() < p.FillerRate {
			sb.WriteString(fillerSentences[rng.Intn(len(fillerSentences))])
			sb.WriteByte('\n')
		}
	}
	return Article{ID: id, Title: title, Text: sb.String(), Topic: ev.Topic, Event: ev.Node}
}

// fillTemplate substitutes %E/%W/%N slots.
func fillTemplate(tpl string, entity func() string, words []string, rng *rand.Rand) string {
	var sb strings.Builder
	for i := 0; i < len(tpl); i++ {
		if tpl[i] != '%' || i+1 >= len(tpl) {
			sb.WriteByte(tpl[i])
			continue
		}
		switch tpl[i+1] {
		case 'E':
			sb.WriteString(entity())
		case 'W':
			sb.WriteString(words[rng.Intn(len(words))])
		case 'N':
			sb.WriteString(neutralWords[rng.Intn(len(neutralWords))])
		default:
			sb.WriteByte(tpl[i])
			sb.WriteByte(tpl[i+1])
		}
		i++
	}
	return sb.String()
}

// fakeName fabricates an out-of-KG entity name (a person or place the NER
// will identify but fail to link, as real NER does ~3-4% of the time).
// Names are drawn from a small recurring pool — in real news the same minor
// figures appear across many stories, so an unlinkable name must not act as
// a unique document fingerprint.
var fakeOnsets = []string{"Hak", "Mur", "Zel", "Tar", "Bol", "Qui", "Ner", "Vash", "Gol", "Rim"}
var fakeCodas = []string{"imov", "adze", "ston", "berg", "quist", "ario", "enko", "ulla", "ette", "ovic"}

const fakeNamePool = 24

func fakeName(rng *rand.Rand) string {
	i := rng.Intn(fakeNamePool)
	j := (i*7 + 3) % fakeNamePool
	return fakeOnsets[i%len(fakeOnsets)] + fakeCodas[i/len(fakeOnsets)%len(fakeCodas)] +
		" " + fakeOnsets[j%len(fakeOnsets)] + fakeCodas[j/len(fakeOnsets)%len(fakeCodas)]
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
