package analyzer

import (
	"fmt"
	"sort"
	"strings"

	"socialscope/internal/graph"
)

// Itemset is a sorted set of items (tags, item names) with its support.
type Itemset struct {
	Items   []string
	Support int // number of transactions containing the set
}

// Rule is an association rule X ⇒ Y with its support and confidence.
type Rule struct {
	Antecedent []string
	Consequent []string
	Support    int     // transactions containing X ∪ Y
	Confidence float64 // support(X ∪ Y) / support(X)
}

func (r Rule) String() string {
	return fmt.Sprintf("%s => %s (sup=%d conf=%.2f)",
		strings.Join(r.Antecedent, ","), strings.Join(r.Consequent, ","),
		r.Support, r.Confidence)
}

// AprioriConfig bounds the mining run.
type AprioriConfig struct {
	MinSupport    int     // minimum absolute support (default 2)
	MinConfidence float64 // minimum rule confidence (default 0.5)
	MaxLen        int     // largest itemset size explored (default 4)
}

func (c *AprioriConfig) fill() {
	if c.MinSupport <= 0 {
		c.MinSupport = 2
	}
	if c.MinConfidence <= 0 {
		c.MinConfidence = 0.5
	}
	if c.MaxLen <= 0 {
		c.MaxLen = 4
	}
}

// Apriori mines frequent itemsets from the transactions with the classic
// level-wise algorithm [3]: candidates of size k are joins of frequent
// (k-1)-itemsets, pruned by the downward-closure property, then counted in
// one pass.
func Apriori(transactions [][]string, cfg AprioriConfig) []Itemset {
	cfg.fill()
	// Normalize transactions to sorted distinct item slices.
	txs := make([][]string, 0, len(transactions))
	for _, t := range transactions {
		set := make(map[string]struct{}, len(t))
		for _, it := range t {
			set[it] = struct{}{}
		}
		row := make([]string, 0, len(set))
		for it := range set {
			row = append(row, it)
		}
		sort.Strings(row)
		txs = append(txs, row)
	}

	var result []Itemset
	// L1.
	counts := make(map[string]int)
	for _, t := range txs {
		for _, it := range t {
			counts[it]++
		}
	}
	var frequent [][]string
	for it, c := range counts {
		if c >= cfg.MinSupport {
			frequent = append(frequent, []string{it})
			result = append(result, Itemset{Items: []string{it}, Support: c})
		}
	}
	sortSets(frequent)

	for k := 2; k <= cfg.MaxLen && len(frequent) > 1; k++ {
		candidates := joinSets(frequent)
		candidates = pruneByClosure(candidates, frequent)
		if len(candidates) == 0 {
			break
		}
		supp := make([]int, len(candidates))
		for _, t := range txs {
			for i, c := range candidates {
				if containsAll(t, c) {
					supp[i]++
				}
			}
		}
		frequent = frequent[:0]
		for i, c := range candidates {
			if supp[i] >= cfg.MinSupport {
				frequent = append(frequent, c)
				result = append(result, Itemset{Items: c, Support: supp[i]})
			}
		}
		sortSets(frequent)
	}
	sort.Slice(result, func(i, j int) bool {
		if len(result[i].Items) != len(result[j].Items) {
			return len(result[i].Items) < len(result[j].Items)
		}
		return strings.Join(result[i].Items, ",") < strings.Join(result[j].Items, ",")
	})
	return result
}

// Rules derives association rules from the frequent itemsets: for every
// frequent set S of size ≥ 2 and every single-item consequent y ∈ S, emit
// S\{y} ⇒ {y} when confident enough. Single-consequent rules are the form
// recommendation pipelines consume ("users who tagged X also tag Y").
func Rules(itemsets []Itemset, cfg AprioriConfig) []Rule {
	cfg.fill()
	support := make(map[string]int, len(itemsets))
	for _, is := range itemsets {
		support[strings.Join(is.Items, "\x00")] = is.Support
	}
	var rules []Rule
	for _, is := range itemsets {
		if len(is.Items) < 2 {
			continue
		}
		for i, y := range is.Items {
			ante := make([]string, 0, len(is.Items)-1)
			ante = append(ante, is.Items[:i]...)
			ante = append(ante, is.Items[i+1:]...)
			anteSup, ok := support[strings.Join(ante, "\x00")]
			if !ok || anteSup == 0 {
				continue
			}
			conf := float64(is.Support) / float64(anteSup)
			if conf >= cfg.MinConfidence {
				rules = append(rules, Rule{
					Antecedent: ante, Consequent: []string{y},
					Support: is.Support, Confidence: conf,
				})
			}
		}
	}
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Confidence != rules[j].Confidence {
			return rules[i].Confidence > rules[j].Confidence
		}
		return rules[i].String() < rules[j].String()
	})
	return rules
}

// TagTransactions extracts one transaction per user from a social content
// graph: the set of tag values the user has assigned across tagging links.
// Users with no tags produce no transaction.
func TagTransactions(g *graph.Graph) [][]string {
	var txs [][]string
	for _, u := range g.NodesOfType(graph.TypeUser) {
		var tags []string
		for _, l := range g.Out(u.ID) {
			if l.HasType(graph.SubtypeTag) {
				tags = append(tags, l.Attrs().All("tags")...)
			}
		}
		if len(tags) > 0 {
			txs = append(txs, tags)
		}
	}
	return txs
}

func sortSets(sets [][]string) {
	sort.Slice(sets, func(i, j int) bool {
		return strings.Join(sets[i], "\x00") < strings.Join(sets[j], "\x00")
	})
}

// joinSets produces k-candidates from sorted (k-1)-frequent sets sharing a
// (k-2)-prefix.
func joinSets(frequent [][]string) [][]string {
	var out [][]string
	for i := 0; i < len(frequent); i++ {
		for j := i + 1; j < len(frequent); j++ {
			a, b := frequent[i], frequent[j]
			k := len(a)
			if !equalPrefix(a, b, k-1) {
				continue
			}
			cand := make([]string, k+1)
			copy(cand, a)
			cand[k] = b[k-1]
			if cand[k-1] > cand[k] {
				cand[k-1], cand[k] = cand[k], cand[k-1]
			}
			out = append(out, cand)
		}
	}
	return out
}

func equalPrefix(a, b []string, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pruneByClosure drops candidates with an infrequent (k-1)-subset.
func pruneByClosure(candidates, frequent [][]string) [][]string {
	freq := make(map[string]struct{}, len(frequent))
	for _, f := range frequent {
		freq[strings.Join(f, "\x00")] = struct{}{}
	}
	var out [][]string
	for _, c := range candidates {
		ok := true
		sub := make([]string, len(c)-1)
		for drop := 0; drop < len(c) && ok; drop++ {
			copy(sub, c[:drop])
			copy(sub[drop:], c[drop+1:])
			if _, present := freq[strings.Join(sub, "\x00")]; !present {
				ok = false
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// containsAll reports whether the sorted transaction contains every item of
// the sorted candidate.
func containsAll(tx, cand []string) bool {
	i := 0
	for _, item := range tx {
		if i == len(cand) {
			return true
		}
		if item == cand[i] {
			i++
		}
	}
	return i == len(cand)
}
