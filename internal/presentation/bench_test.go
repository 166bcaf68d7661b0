package presentation

import "testing"

func BenchmarkSocialGroupingSmall(b *testing.B) {
	f := buildAlexiaB(b)
	for i := 0; i < b.N; i++ {
		if _, err := SocialGrouping(f.g, f.items, f.scores, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrganizeSmall(b *testing.B) {
	f := buildAlexiaB(b)
	for i := 0; i < b.N; i++ {
		if _, err := Organize(f.g, f.items, f.scores, OrganizeConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExplainCFSmall(b *testing.B) {
	f := buildAlexiaB(b)
	for i := 0; i < b.N; i++ {
		ExplainCF(f.g, f.alexia, f.items[i%len(f.items)])
	}
}

// BenchmarkCFContextSummary is what a response pays per result: the
// summary alone, from one context shared by the query's results.
func BenchmarkCFContextSummary(b *testing.B) {
	f := buildAlexiaB(b)
	cf := NewCFContext(f.g, f.alexia)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.Summary(f.items[i%len(f.items)])
	}
}

func buildAlexiaB(b *testing.B) *alexiaFixture { return buildAlexia(b) }
