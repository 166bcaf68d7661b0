package discovery

import (
	"fmt"
	"testing"
)

func BenchmarkDiscover(b *testing.B) {
	f := buildJohnFixtureB(b)
	d := NewDiscoverer(f.g, "destination")
	q, err := ParseQuery("denver attractions")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Discover(f.john, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusionAlpha sweeps the semantic/social fusion weight — the
// DESIGN.md ablation #5. Time is flat (the sweep is about result shape);
// the reported metric is how many results each α admits.
func BenchmarkFusionAlpha(b *testing.B) {
	f := buildJohnFixtureB(b)
	d := NewDiscoverer(f.g, "destination")
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			q, err := ParseQuery("denver attractions")
			if err != nil {
				b.Fatal(err)
			}
			q.Alpha = alpha
			n := 0
			for i := 0; i < b.N; i++ {
				msg, err := d.Discover(f.john, q)
				if err != nil {
					b.Fatal(err)
				}
				n = len(msg.Results)
			}
			b.ReportMetric(float64(n), "results")
		})
	}
}

// BenchmarkSocialBasis measures basis selection — the DESIGN.md ablation #4.
func BenchmarkSocialBasis(b *testing.B) {
	f := buildJohnFixtureB(b)
	q, err := ParseQuery("family babies barcelona")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectSocialBasis(f.g, f.selma, q, 1)
	}
}

func BenchmarkCFPlan(b *testing.B) {
	f := buildJohnFixtureB(b)
	for i := 0; i < b.N; i++ {
		if _, err := CollaborativeFiltering(f.g, f.john, CFConfig{SimThreshold: 0.2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCFStepwise(b *testing.B) {
	f := buildJohnFixtureB(b)
	for i := 0; i < b.N; i++ {
		if _, err := CollaborativeFilteringAlgebra(f.g, f.john, CFConfig{Variant: CFStepwise, SimThreshold: 0.2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCFPattern(b *testing.B) {
	f := buildJohnFixtureB(b)
	for i := 0; i < b.N; i++ {
		if _, err := CollaborativeFilteringAlgebra(f.g, f.john, CFConfig{Variant: CFPattern, SimThreshold: 0.2}); err != nil {
			b.Fatal(err)
		}
	}
}

// buildJohnFixtureB adapts the test fixture builder to benchmarks.
func buildJohnFixtureB(b *testing.B) *johnFixture { return buildJohnFixture(b) }
