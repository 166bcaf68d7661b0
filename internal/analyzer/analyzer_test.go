package analyzer

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"socialscope/internal/graph"
)

// ldaDocs builds two clearly separated vocabularies: baseball docs and
// cooking docs. A 2-topic LDA must separate them.
func ldaDocs() [][]string {
	base := [][]string{
		{"baseball", "pitcher", "stadium", "baseball", "inning"},
		{"baseball", "stadium", "homerun", "pitcher"},
		{"inning", "homerun", "baseball", "pitcher", "stadium"},
		{"pitcher", "inning", "stadium", "homerun"},
	}
	cook := [][]string{
		{"recipe", "oven", "flour", "sugar", "recipe"},
		{"oven", "sugar", "flour", "butter"},
		{"butter", "recipe", "sugar", "oven"},
		{"flour", "butter", "recipe", "oven"},
	}
	return append(base, cook...)
}

func TestFitLDASeparatesTopics(t *testing.T) {
	m, err := FitLDA(ldaDocs(), LDAConfig{Topics: 2, Iterations: 300, Seed: 7, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Docs 0-3 share a dominant topic; docs 4-7 share the other.
	t0 := m.DominantTopic(0)
	for d := 1; d < 4; d++ {
		if m.DominantTopic(d) != t0 {
			t.Errorf("baseball doc %d assigned topic %d, want %d", d, m.DominantTopic(d), t0)
		}
	}
	t1 := m.DominantTopic(4)
	if t1 == t0 {
		t.Fatal("cooking docs share the baseball topic")
	}
	for d := 5; d < 8; d++ {
		if m.DominantTopic(d) != t1 {
			t.Errorf("cooking doc %d assigned topic %d, want %d", d, m.DominantTopic(d), t1)
		}
	}
	// Top terms of the baseball topic come from the baseball vocabulary.
	topTerms := strings.Join(m.TopTerms(t0, 3), " ")
	for _, bad := range []string{"recipe", "oven", "flour", "sugar", "butter"} {
		if strings.Contains(topTerms, bad) {
			t.Errorf("baseball topic top terms %q contain %q", topTerms, bad)
		}
	}
}

func TestLDADeterministicPerSeed(t *testing.T) {
	cfg := LDAConfig{Topics: 2, Iterations: 50, Seed: 42}
	m1, err := FitLDA(ldaDocs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := FitLDA(ldaDocs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for d := range ldaDocs() {
		if m1.DominantTopic(d) != m2.DominantTopic(d) {
			t.Fatal("same seed produced different assignments")
		}
	}
}

func TestLDAErrors(t *testing.T) {
	if _, err := FitLDA(ldaDocs(), LDAConfig{Topics: 0}); err == nil {
		t.Error("Topics=0 accepted")
	}
	if _, err := FitLDA(nil, LDAConfig{Topics: 2}); err == nil {
		t.Error("no documents accepted")
	}
	if _, err := FitLDA([][]string{{}, {}}, LDAConfig{Topics: 2}); err == nil {
		t.Error("empty vocabulary accepted")
	}
}

func TestLDADistributionsSumToOne(t *testing.T) {
	m, err := FitLDA(ldaDocs(), LDAConfig{Topics: 3, Iterations: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for tpc := 0; tpc < 3; tpc++ {
		var sum float64
		for w := range m.Vocab {
			sum += m.TopicWord(tpc, w)
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("topic %d word distribution sums to %f", tpc, sum)
		}
	}
	for d := range ldaDocs() {
		var sum float64
		for tpc := 0; tpc < 3; tpc++ {
			sum += m.DocTopic(d, tpc)
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("doc %d topic distribution sums to %f", d, sum)
		}
	}
}

func TestDeriveTopics(t *testing.T) {
	b := graph.NewBuilder()
	for _, kw := range []string{"baseball stadium pitcher", "baseball homerun stadium",
		"recipe oven flour", "recipe sugar oven"} {
		b.Node([]string{graph.TypeItem}, "keywords", kw)
	}
	g := b.Graph()
	out, model, err := DeriveTopics(g, graph.TypeItem, LDAConfig{Topics: 2, Iterations: 200, Seed: 3, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if model == nil {
		t.Fatal("nil model")
	}
	if got := out.CountNodes(graph.TypeTopic); got != 2 {
		t.Fatalf("topic nodes = %d, want 2", got)
	}
	if got := out.CountLinks(graph.TypeBelong); got != 4 {
		t.Fatalf("belong links = %d, want 4", got)
	}
	// Input untouched.
	if g.CountNodes(graph.TypeTopic) != 0 {
		t.Error("DeriveTopics mutated its input")
	}
	if err := out.Validate(); err != nil {
		t.Error(err)
	}
	if _, _, err := DeriveTopics(g, "no-such-type", LDAConfig{Topics: 2}); err == nil {
		t.Error("missing node type accepted")
	}
}

func aprioriTxs() [][]string {
	return [][]string{
		{"beer", "diaper", "milk"},
		{"beer", "diaper"},
		{"beer", "diaper", "bread"},
		{"milk", "bread"},
		{"beer", "milk", "diaper"},
	}
}

func TestApriori(t *testing.T) {
	sets := Apriori(aprioriTxs(), AprioriConfig{MinSupport: 3})
	bySig := map[string]int{}
	for _, s := range sets {
		bySig[strings.Join(s.Items, ",")] = s.Support
	}
	if bySig["beer"] != 4 || bySig["diaper"] != 4 || bySig["milk"] != 3 {
		t.Errorf("L1 supports wrong: %v", bySig)
	}
	if bySig["beer,diaper"] != 4 {
		t.Errorf("support(beer,diaper) = %d, want 4", bySig["beer,diaper"])
	}
	if _, ok := bySig["bread"]; ok {
		t.Error("bread (support 2) should be infrequent at minsup 3")
	}
}

func TestAprioriDownwardClosure(t *testing.T) {
	// Every frequent set's subsets must be frequent (property of Apriori).
	sets := Apriori(aprioriTxs(), AprioriConfig{MinSupport: 2})
	freq := map[string]bool{}
	for _, s := range sets {
		freq[strings.Join(s.Items, ",")] = true
	}
	for _, s := range sets {
		if len(s.Items) < 2 {
			continue
		}
		for drop := range s.Items {
			sub := append(append([]string{}, s.Items[:drop]...), s.Items[drop+1:]...)
			if !freq[strings.Join(sub, ",")] {
				t.Errorf("subset %v of frequent %v is not frequent", sub, s.Items)
			}
		}
	}
}

func TestRules(t *testing.T) {
	sets := Apriori(aprioriTxs(), AprioriConfig{MinSupport: 3})
	rules := Rules(sets, AprioriConfig{MinSupport: 3, MinConfidence: 0.8})
	found := false
	for _, r := range rules {
		if reflect.DeepEqual(r.Antecedent, []string{"beer"}) &&
			reflect.DeepEqual(r.Consequent, []string{"diaper"}) {
			found = true
			if r.Confidence != 1.0 {
				t.Errorf("conf(beer→diaper) = %f, want 1.0", r.Confidence)
			}
		}
		if r.Confidence < 0.8 {
			t.Errorf("rule %v below confidence threshold", r)
		}
	}
	if !found {
		t.Error("missing rule beer→diaper")
	}
	if len(rules) > 0 && rules[0].String() == "" {
		t.Error("rule String empty")
	}
}

func TestTagTransactions(t *testing.T) {
	b := graph.NewBuilder()
	u1 := b.Node([]string{graph.TypeUser})
	u2 := b.Node([]string{graph.TypeUser})
	u3 := b.Node([]string{graph.TypeUser}) // never tags
	i1 := b.Node([]string{graph.TypeItem})
	b.Link(u1, i1, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "a", "tags", "b")
	b.Link(u2, i1, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "c")
	b.Link(u3, i1, []string{graph.TypeAct, graph.SubtypeVisit})
	txs := TagTransactions(b.Graph())
	if len(txs) != 2 {
		t.Fatalf("transactions = %v", txs)
	}
}

func TestDeriveMatches(t *testing.T) {
	b := graph.NewBuilder()
	u1 := b.Node([]string{graph.TypeUser})
	u2 := b.Node([]string{graph.TypeUser})
	u3 := b.Node([]string{graph.TypeUser})
	var items []graph.NodeID
	for i := 0; i < 4; i++ {
		items = append(items, b.Node([]string{graph.TypeItem}))
	}
	// u1: {0,1,2}; u2: {0,1,2,3} → J=3/4; u3: {3} → J(u1,u3)=0.
	for _, i := range items[:3] {
		b.Link(u1, i, []string{graph.TypeAct, graph.SubtypeVisit})
	}
	for _, i := range items {
		b.Link(u2, i, []string{graph.TypeAct, graph.SubtypeVisit})
	}
	b.Link(u3, items[3], []string{graph.TypeAct, graph.SubtypeVisit})
	g := b.Graph()
	out := DeriveMatches(g, 0.5)
	matches := out.LinksOfType(graph.TypeMatch)
	if len(matches) != 2 { // u1↔u2 both directions
		t.Fatalf("match links = %d, want 2", len(matches))
	}
	for _, m := range matches {
		if v, _ := m.Attrs().Float("sim"); v != 0.75 {
			t.Errorf("sim = %v, want 0.75", m.Attrs().Get("sim"))
		}
	}
	if g.CountLinks(graph.TypeMatch) != 0 {
		t.Error("DeriveMatches mutated its input")
	}
}

// Property: Apriori support counts are exact — recount every reported
// itemset directly against the transactions.
func TestQuickAprioriSupportExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		universe := []string{"a", "b", "c", "d", "e"}
		txs := make([][]string, 12)
		for i := range txs {
			var tx []string
			for _, it := range universe {
				if rng.Intn(2) == 0 {
					tx = append(tx, it)
				}
			}
			txs[i] = tx
		}
		sets := Apriori(txs, AprioriConfig{MinSupport: 2, MaxLen: 5})
		for _, s := range sets {
			want := 0
			for _, tx := range txs {
				m := map[string]bool{}
				for _, it := range tx {
					m[it] = true
				}
				all := true
				for _, it := range s.Items {
					if !m[it] {
						all = false
						break
					}
				}
				if all {
					want++
				}
			}
			if want != s.Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
