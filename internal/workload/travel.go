package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"socialscope/internal/graph"
)

// Cities is the gazetteer shared by the corpus generator, the query
// generator and the query classifier — location detection must agree
// across layers, as it did for the paper's analysts.
var Cities = []string{
	"denver", "barcelona", "paris", "tokyo", "sydney", "boston",
	"philadelphia", "san francisco", "new york", "london", "rome",
	"amsterdam", "lisbon", "prague", "vienna",
}

// Categories is the categorical vocabulary ("hotel", "family",
// "historic", ... in the paper's terms).
var Categories = []string{
	"hotel", "family", "historic", "restaurant", "museum", "beach",
	"nightlife", "shopping", "outdoors", "baseball",
}

// GeneralTerms are the paper's general-class markers ("things to do",
// "attraction", ...).
var GeneralTerms = []string{
	"things to do", "attractions", "vacation", "trip", "sightseeing",
	"what to see", "guide",
}

// SpecificDestinations are named destinations ("Disneyland", "Yosemite
// Park"); each belongs to a city so visits nest geographically.
var SpecificDestinations = []string{
	"disneyland", "yosemite park", "coors field", "sagrada familia",
	"eiffel tower", "louvre", "golden gate bridge", "statue of liberty",
	"colosseum", "big ben", "fisherman's wharf", "parc ciutadella",
}

// TravelConfig sizes a synthetic Y!Travel-style corpus.
type TravelConfig struct {
	Users        int
	Destinations int
	Seed         int64
	// VisitsPerUser is the mean number of visit links per user (Zipf over
	// destination popularity).
	VisitsPerUser int
	// TagFraction of visits also produce tag links.
	TagFraction float64
	// SmallWorldK and Rewire shape the friendship graph.
	SmallWorldK int
	Rewire      float64
	// InterestBias, when positive, assigns every user an interest category
	// and redirects that fraction of their visits to destinations of the
	// category. It plants the recoverable social signal the fusion-quality
	// experiment measures (users' tastes predict what they and their
	// friends visit).
	InterestBias float64
}

func (c *TravelConfig) fill() error {
	if c.Users < 3 || c.Destinations < 1 {
		return fmt.Errorf("workload: travel corpus needs ≥3 users and ≥1 destination")
	}
	if c.VisitsPerUser <= 0 {
		c.VisitsPerUser = 6
	}
	if c.TagFraction <= 0 {
		c.TagFraction = 0.5
	}
	if c.SmallWorldK <= 0 {
		c.SmallWorldK = 4
	}
	if c.SmallWorldK >= c.Users {
		c.SmallWorldK = (c.Users - 1) / 2 * 2 // largest even K < Users
	}
	if c.Rewire <= 0 {
		c.Rewire = 0.1
	}
	return nil
}

// TravelCorpus is the generated site: the graph plus the id ranges the
// experiments address.
type TravelCorpus struct {
	Graph        *graph.Graph
	Users        []graph.NodeID
	Destinations []graph.NodeID
	// Interests maps each user to the planted interest category when the
	// corpus was generated with InterestBias > 0.
	Interests map[graph.NodeID]string
}

// Travel generates a travel social content site: a small-world friendship
// graph; destinations attached to cities with category keywords and
// ratings; Zipf-popular visit activities; tagging on a fraction of visits
// with category tags. Deterministic per seed.
func Travel(cfg TravelConfig) (*TravelCorpus, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewBuilder()
	users, err := SmallWorld(b, SmallWorldConfig{
		Users: cfg.Users, K: cfg.SmallWorldK, Rewire: cfg.Rewire, Seed: cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}

	dests := make([]graph.NodeID, cfg.Destinations)
	for i := range dests {
		city := Cities[rng.Intn(len(Cities))]
		cat := Categories[rng.Intn(len(Categories))]
		cat2 := Categories[rng.Intn(len(Categories))]
		name := "dest-" + strconv.Itoa(i)
		if rng.Float64() < 0.2 && i < len(SpecificDestinations) {
			name = SpecificDestinations[i]
		}
		dests[i] = b.Node([]string{graph.TypeItem, "destination"},
			"name", name,
			"city", city,
			"keywords", city+" "+cat+" "+cat2+" attractions",
			"category", cat,
			"rating", strconv.FormatFloat(0.3+rng.Float64()*0.7, 'f', 2, 64),
		)
	}

	// Planted interests: per-user category plus the per-category
	// destination pools biased visits draw from.
	interests := make(map[graph.NodeID]string)
	byCategory := make(map[string][]graph.NodeID)
	if cfg.InterestBias > 0 {
		for _, d := range dests {
			cat := b.Peek().Node(d).Attrs.Get("category")
			byCategory[cat] = append(byCategory[cat], d)
		}
		// Interests are homophilous: contiguous ring blocks share a
		// category, so small-world friends mostly share interests — the
		// property that makes social relevance informative on real sites.
		for i, u := range users {
			cat := Categories[i*len(Categories)/len(users)]
			interests[u] = cat
			// Peek's documented use: mid-construction attribute writes by
			// the builder's owner, before any snapshot is published.
			b.Peek().Node(u).Attrs.Set("interests", cat) //sslint:ignore rcupublish builder-owned graph, unpublished
		}
	}

	// Zipf destination popularity: rank-skewed visit targets.
	zipf := rand.NewZipf(rng, 1.3, 1.0, uint64(cfg.Destinations-1))
	for _, u := range users {
		visits := 1 + rng.Intn(cfg.VisitsPerUser*2)
		visited := make(map[graph.NodeID]struct{})
		for v := 0; v < visits; v++ {
			d := dests[int(zipf.Uint64())]
			if cfg.InterestBias > 0 && rng.Float64() < cfg.InterestBias {
				if pool := byCategory[interests[u]]; len(pool) > 0 {
					d = pool[rng.Intn(len(pool))]
				}
			}
			if _, dup := visited[d]; dup {
				continue
			}
			visited[d] = struct{}{}
			b.Link(u, d, []string{graph.TypeAct, graph.SubtypeVisit})
			if rng.Float64() < cfg.TagFraction {
				tag := Categories[rng.Intn(len(Categories))]
				b.Link(u, d, []string{graph.TypeAct, graph.SubtypeTag}, "tags", tag)
			}
			if rng.Float64() < 0.3 {
				b.Link(u, d, []string{graph.TypeAct, graph.SubtypeReview},
					"rating", strconv.FormatFloat(0.2+rng.Float64()*0.8, 'f', 1, 64))
			}
		}
	}
	return &TravelCorpus{Graph: b.Graph(), Users: users, Destinations: dests, Interests: interests}, nil
}

// TaggingConfig sizes a del.icio.us-style corpus for the Section 6.2 index
// study.
type TaggingConfig struct {
	Users int
	Items int
	Tags  int
	Seed  int64
	// TagsPerUser is the mean number of tagging actions per user.
	TagsPerUser int
	// SmallWorldK and Rewire shape the friendship graph.
	SmallWorldK int
	Rewire      float64
}

func (c *TaggingConfig) fill() error {
	if c.Users < 3 || c.Items < 1 || c.Tags < 1 {
		return fmt.Errorf("workload: tagging corpus needs ≥3 users, ≥1 item, ≥1 tag")
	}
	if c.TagsPerUser <= 0 {
		c.TagsPerUser = 10
	}
	if c.SmallWorldK <= 0 {
		c.SmallWorldK = 6
	}
	if c.SmallWorldK >= c.Users {
		c.SmallWorldK = (c.Users - 1) / 2 * 2 // largest even K < Users
	}
	if c.Rewire <= 0 {
		c.Rewire = 0.15
	}
	return nil
}

// TaggingCorpus is the generated tagging site.
type TaggingCorpus struct {
	Graph *graph.Graph
	Users []graph.NodeID
	Items []graph.NodeID
	Tags  []string
}

// Tagging generates a collaborative tagging site: small-world users, Zipf
// item popularity and Zipf tag popularity (the Golder–Huberman shape).
func Tagging(cfg TaggingConfig) (*TaggingCorpus, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewBuilder()
	users, err := SmallWorld(b, SmallWorldConfig{
		Users: cfg.Users, K: cfg.SmallWorldK, Rewire: cfg.Rewire, Seed: cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	items := make([]graph.NodeID, cfg.Items)
	for i := range items {
		items[i] = b.Node([]string{graph.TypeItem, "url"}, "name", fmt.Sprintf("item-%d", i))
	}
	tags := make([]string, cfg.Tags)
	for i := range tags {
		tags[i] = fmt.Sprintf("tag%d", i)
	}
	itemZipf := rand.NewZipf(rng, 1.2, 1.0, uint64(cfg.Items-1))
	var tagZipf *rand.Zipf
	if cfg.Tags > 1 {
		tagZipf = rand.NewZipf(rng, 1.1, 1.0, uint64(cfg.Tags-1))
	}
	pickTag := func() string {
		if tagZipf == nil {
			return tags[0]
		}
		return tags[int(tagZipf.Uint64())]
	}
	for _, u := range users {
		n := 1 + rng.Intn(cfg.TagsPerUser*2)
		for i := 0; i < n; i++ {
			item := items[int(itemZipf.Uint64())]
			b.Link(u, item, []string{graph.TypeAct, graph.SubtypeTag}, "tags", pickTag())
		}
	}
	return &TaggingCorpus{Graph: b.Graph(), Users: users, Items: items, Tags: tags}, nil
}
