package kg

import (
	"fmt"
	"math/rand"
	"strings"
)

// The synthetic world generator is the stand-in for the Wikidata dump used
// by the paper (30M nodes / 135M edges are not available offline; see
// DESIGN.md §1). It produces a deterministic world with the structural
// regime that matters to the G* algorithm: shallow geographic containment
// hierarchies (city → province → country → continent), dense event
// neighbourhoods (elections, conflicts, matches, summits, scandals), and a
// controlled rate of ambiguous labels (several nodes sharing one label).

// Config parameterizes the synthetic world.
type Config struct {
	Seed                int64
	Countries           int
	ProvincesPerCountry int
	CitiesPerProvince   int
	PersonsPerCountry   int
	OrgsPerCountry      int
	EventsPerCountry    int
	// AmbiguityRate is the probability that a newly generated city or person
	// reuses an existing label, creating label ambiguity as in real KGs.
	AmbiguityRate float64
}

// DefaultConfig returns a medium-sized world (~2k nodes) suitable for tests
// and examples. Experiments scale Countries up.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                seed,
		Countries:           20,
		ProvincesPerCountry: 5,
		CitiesPerProvince:   4,
		PersonsPerCountry:   24,
		OrgsPerCountry:      10,
		EventsPerCountry:    12,
		AmbiguityRate:       0.02,
	}
}

// Topic is the news topic an event belongs to; the corpus generator writes
// one article per event, so the topic mix of a corpus profile is controlled
// by the event mix here.
type Topic string

// Topics covered by the synthetic world, mirroring the paper's datasets
// ("many types such as sports, politics and entertainment").
const (
	TopicPolitics      Topic = "politics"
	TopicMilitary      Topic = "military"
	TopicSports        Topic = "sports"
	TopicEntertainment Topic = "entertainment"
	TopicBusiness      Topic = "business"
)

// AllTopics lists every topic the generator can produce.
var AllTopics = []Topic{TopicPolitics, TopicMilitary, TopicSports, TopicEntertainment, TopicBusiness}

// Event describes one generated event node together with the entities a news
// article about it would mention.
type Event struct {
	Node         NodeID
	Topic        Topic
	Country      NodeID
	Location     NodeID   // city or province where it happens
	Participants []NodeID // persons/orgs directly involved
}

// World is the output of Generate: the graph plus the event catalogue and
// per-country entity rosters used by the corpus generator.
type World struct {
	Graph  *Graph
	Events []Event
	// CountryNodes holds the country node IDs in generation order.
	CountryNodes []NodeID
}

// Generate builds a synthetic world from the config. The same config always
// yields a byte-identical world.
func Generate(cfg Config) *World {
	if cfg.Countries <= 0 {
		cfg = DefaultConfig(cfg.Seed)
	}
	g := &gen{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		b:    NewBuilder(cfg.Countries * 80),
		used: make(map[string]bool),
	}
	return g.run()
}

type gen struct {
	cfg  Config
	rng  *rand.Rand
	b    *Builder
	used map[string]bool

	// per-country rosters, rebuilt for each country
	continent NodeID
	labels    []string // pool of labels already emitted, for ambiguity reuse
}

type country struct {
	node      NodeID
	capital   NodeID
	provinces []NodeID
	cities    []NodeID
	people    []NodeID
	parties   []NodeID
	groups    []NodeID // militant groups
	teams     []NodeID
	companies []NodeID
	agencies  []NodeID
	artists   []NodeID
	works     []NodeID
	nation    NodeID // NORP node ("Fooish")
}

func (g *gen) run() *World {
	w := &World{}
	nContinents := g.cfg.Countries/8 + 1
	continents := make([]NodeID, nContinents)
	for i := range continents {
		continents[i] = g.b.AddNode(g.placeName()+" Continent", KindLocation, "a continent")
	}
	countries := make([]country, g.cfg.Countries)
	for i := range countries {
		g.continent = continents[i%nContinents]
		countries[i] = g.country()
		w.CountryNodes = append(w.CountryNodes, countries[i].node)
	}
	// Cross-country structure: borders between consecutive countries on the
	// same continent, plus occasional alliances.
	for i := 1; i < len(countries); i++ {
		if i%nContinents == 0 {
			g.b.AddEdgeByName(countries[i].node, countries[i-1].node, "shares border with", 1)
		}
		if g.rng.Float64() < 0.3 {
			j := g.rng.Intn(i)
			g.b.AddEdgeByName(countries[i].node, countries[j].node, "diplomatic relation", 1)
		}
	}
	for i := range countries {
		w.Events = append(w.Events, g.events(&countries[i], countries)...)
	}
	w.Graph = g.b.Build()
	return w
}

func (g *gen) country() country {
	var c country
	cname := g.freshName(2, 3) + "stan"
	c.node = g.b.AddNode(cname, KindGPE, "a sovereign country")
	c.nation = g.b.AddNode(strings.TrimSuffix(cname, "stan")+"i", KindNORP, "people of "+cname)
	g.b.AddEdgeByName(c.nation, c.node, "nationality of", 1)
	g.b.AddEdgeByName(c.node, g.continent, "located in", 1)

	for p := 0; p < g.cfg.ProvincesPerCountry; p++ {
		prov := g.b.AddNode(g.placeName(), KindGPE, "a province of "+cname)
		g.b.AddEdgeByName(prov, c.node, "located in", 1)
		c.provinces = append(c.provinces, prov)
		if p > 0 && g.rng.Float64() < 0.6 {
			g.b.AddEdgeByName(prov, c.provinces[g.rng.Intn(p)], "shares border with", 1)
		}
		for q := 0; q < g.cfg.CitiesPerProvince; q++ {
			city := g.b.AddNode(g.placeName(), KindGPE, "a city in "+cname)
			g.b.AddEdgeByName(city, prov, "located in", 1)
			c.cities = append(c.cities, city)
			if c.capital == 0 && p == 0 && q == 0 {
				c.capital = city
				g.b.AddEdgeByName(city, c.node, "capital of", 1)
			}
		}
	}

	// Organizations.
	nOrgs := g.cfg.OrgsPerCountry
	for o := 0; o < nOrgs; o++ {
		switch o % 5 {
		case 0:
			p := g.b.AddNode(g.freshName(2, 3)+" Party", KindOrg, "a political party in "+cname)
			g.b.AddEdgeByName(p, c.node, "operates in", 1)
			c.parties = append(c.parties, p)
		case 1:
			m := g.b.AddNode(g.freshName(2, 3)+" Front", KindOrg, "a militant group active in "+cname)
			g.b.AddEdgeByName(m, c.provinces[g.rng.Intn(len(c.provinces))], "active in", 1)
			c.groups = append(c.groups, m)
		case 2:
			t := g.b.AddNode(g.placeName()+" United", KindOrg, "a sports club of "+cname)
			g.b.AddEdgeByName(t, c.cities[g.rng.Intn(len(c.cities))], "based in", 1)
			c.teams = append(c.teams, t)
		case 3:
			co := g.b.AddNode(g.freshName(2, 3)+" Corp", KindOrg, "a company headquartered in "+cname)
			g.b.AddEdgeByName(co, c.capital, "headquartered in", 1)
			c.companies = append(c.companies, co)
		case 4:
			a := g.b.AddNode(g.freshName(1, 2)+" Bureau", KindOrg, "a state agency of "+cname)
			g.b.AddEdgeByName(a, c.node, "agency of", 1)
			c.agencies = append(c.agencies, a)
		}
	}

	// People: politicians, athletes, artists.
	for p := 0; p < g.cfg.PersonsPerCountry; p++ {
		name := g.personName()
		person := g.b.AddNode(name, KindPerson, "a public figure from "+cname)
		g.b.AddEdgeByName(person, c.node, "citizen of", 1)
		c.people = append(c.people, person)
		switch p % 3 {
		case 0:
			if len(c.parties) > 0 {
				g.b.AddEdgeByName(person, c.parties[p%len(c.parties)], "member of", 1)
			}
		case 1:
			if len(c.teams) > 0 {
				g.b.AddEdgeByName(person, c.teams[p%len(c.teams)], "plays for", 1)
			}
		case 2:
			c.artists = append(c.artists, person)
			work := g.b.AddNode("The "+g.freshName(2, 3), KindWorkOfArt, "a work by "+name)
			g.b.AddEdgeByName(work, person, "created by", 1)
			c.works = append(c.works, work)
		}
	}
	return c
}

// events creates event nodes for one country, wiring them into the graph and
// returning the event catalogue entries.
func (g *gen) events(c *country, all []country) []Event {
	var out []Event
	year := 2010 + g.rng.Intn(10)
	for e := 0; e < g.cfg.EventsPerCountry; e++ {
		cname := g.b.label(c.node)
		switch e % 5 {
		case 0: // election (politics)
			ev := g.b.AddNode(fmt.Sprintf("%s general election %d", cname, year+e),
				KindEvent, "a national election in "+cname)
			g.b.AddEdgeByName(ev, c.node, "held in", 1)
			parts := g.pick(c.people, 2+g.rng.Intn(2))
			for _, p := range parts {
				g.b.AddEdgeByName(p, ev, "candidate in", 1)
			}
			out = append(out, Event{ev, TopicPolitics, c.node, c.capital, parts})
		case 1: // armed conflict (military)
			if len(c.groups) == 0 {
				continue
			}
			prov := c.provinces[g.rng.Intn(len(c.provinces))]
			grp := c.groups[g.rng.Intn(len(c.groups))]
			ev := g.b.AddNode(fmt.Sprintf("%s insurgency", g.b.label(prov)),
				KindEvent, "an armed conflict in "+cname)
			g.b.AddEdgeByName(ev, prov, "held in", 1)
			g.b.AddEdgeByName(grp, ev, "participant in", 1)
			g.b.AddEdgeByName(c.node, ev, "participant in", 1)
			parts := []NodeID{grp, c.node}
			out = append(out, Event{ev, TopicMilitary, c.node, prov, parts})
		case 2: // match (sports)
			if len(c.teams) == 0 {
				continue
			}
			home := c.teams[g.rng.Intn(len(c.teams))]
			other := &all[g.rng.Intn(len(all))]
			if len(other.teams) == 0 {
				other = c
			}
			away := other.teams[g.rng.Intn(len(other.teams))]
			city := c.cities[g.rng.Intn(len(c.cities))]
			ev := g.b.AddNode(fmt.Sprintf("%s Cup %d", g.b.label(city), year+e),
				KindEvent, "a sports tournament")
			g.b.AddEdgeByName(ev, city, "held in", 1)
			g.b.AddEdgeByName(home, ev, "participant in", 1)
			g.b.AddEdgeByName(away, ev, "participant in", 1)
			out = append(out, Event{ev, TopicSports, c.node, city, []NodeID{home, away}})
		case 3: // award ceremony (entertainment)
			if len(c.artists) == 0 || len(c.works) == 0 {
				continue
			}
			artist := c.artists[g.rng.Intn(len(c.artists))]
			work := c.works[g.rng.Intn(len(c.works))]
			ev := g.b.AddNode(fmt.Sprintf("%s Film Awards %d", g.b.label(c.capital), year+e),
				KindEvent, "an award ceremony")
			g.b.AddEdgeByName(ev, c.capital, "held in", 1)
			g.b.AddEdgeByName(artist, ev, "nominated in", 1)
			g.b.AddEdgeByName(work, ev, "nominated in", 1)
			out = append(out, Event{ev, TopicEntertainment, c.node, c.capital, []NodeID{artist, work}})
		case 4: // merger or scandal (business)
			if len(c.companies) < 1 || len(c.agencies) < 1 {
				continue
			}
			co := c.companies[g.rng.Intn(len(c.companies))]
			ag := c.agencies[g.rng.Intn(len(c.agencies))]
			ev := g.b.AddNode(fmt.Sprintf("%s probe %d", g.b.label(co), year+e),
				KindEvent, "a regulatory investigation")
			g.b.AddEdgeByName(co, ev, "subject of", 1)
			g.b.AddEdgeByName(ag, ev, "investigator of", 1)
			g.b.AddEdgeByName(ev, c.capital, "held in", 1)
			out = append(out, Event{ev, TopicBusiness, c.node, c.capital, []NodeID{co, ag}})
		}
	}
	return out
}

// pick samples n distinct elements from ids (or all of them if n >= len).
func (g *gen) pick(ids []NodeID, n int) []NodeID {
	if n >= len(ids) {
		out := make([]NodeID, len(ids))
		copy(out, ids)
		return out
	}
	idx := g.rng.Perm(len(ids))[:n]
	out := make([]NodeID, n)
	for i, j := range idx {
		out[i] = ids[j]
	}
	return out
}

// --- name generation ---

var (
	onsets  = []string{"b", "br", "ch", "d", "dr", "f", "g", "gr", "h", "j", "k", "kh", "l", "m", "n", "p", "q", "r", "s", "sh", "t", "tr", "v", "w", "y", "z"}
	vowels  = []string{"a", "e", "i", "o", "u", "ai", "ar", "or", "an", "en", "un", "ur"}
	suffixs = []string{"", "a", "ia", "or", "ar", "on", "in", "ur"}
)

func (g *gen) syllables(lo, hi int) string {
	n := lo
	if hi > lo {
		n += g.rng.Intn(hi - lo + 1)
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(onsets[g.rng.Intn(len(onsets))])
		sb.WriteString(vowels[g.rng.Intn(len(vowels))])
	}
	sb.WriteString(suffixs[g.rng.Intn(len(suffixs))])
	s := sb.String()
	return strings.ToUpper(s[:1]) + s[1:]
}

// freshName returns a name not used before (best effort).
func (g *gen) freshName(lo, hi int) string {
	for tries := 0; tries < 50; tries++ {
		s := g.syllables(lo, hi)
		if !g.used[s] {
			g.used[s] = true
			g.labels = append(g.labels, s)
			return s
		}
	}
	s := g.syllables(lo, hi) + fmt.Sprint(g.rng.Intn(1000))
	g.used[s] = true
	return s
}

// placeName returns a place name; with probability AmbiguityRate it reuses
// an existing label so the label index maps it to several nodes.
func (g *gen) placeName() string {
	if len(g.labels) > 10 && g.rng.Float64() < g.cfg.AmbiguityRate {
		return g.labels[g.rng.Intn(len(g.labels))]
	}
	return g.freshName(2, 3)
}

func (g *gen) personName() string {
	return g.freshName(1, 2) + " " + g.freshName(2, 3)
}
