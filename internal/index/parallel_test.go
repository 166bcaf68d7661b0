package index

import (
	"reflect"
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// TestParallelBuildDeterministic asserts the sharded build produces the
// same index as the sequential reference regardless of worker count.
func TestParallelBuildDeterministic(t *testing.T) {
	g := randomTagGraph(17, 50, 100, 9)
	d := Extract(g)
	for _, s := range []cluster.Strategy{cluster.PerUser, cluster.NetworkBased, cluster.Global} {
		cl, err := cluster.Build(g, s, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := BuildWithWorkers(d, cl, scoring.CountF, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 8} {
			par, err := BuildWithWorkers(d, cl, scoring.CountF, workers)
			if err != nil {
				t.Fatal(err)
			}
			if par.EntryCount() != seq.EntryCount() || par.NumLists() != seq.NumLists() {
				t.Fatalf("%s workers=%d: entries/lists %d/%d, want %d/%d", s, workers,
					par.EntryCount(), par.NumLists(), seq.EntryCount(), seq.NumLists())
			}
			for _, u := range d.Users {
				for _, tag := range d.Tags {
					if !reflect.DeepEqual(par.List(u, tag), seq.List(u, tag)) {
						t.Fatalf("%s workers=%d: list (%d,%s) diverges", s, workers, u, tag)
					}
				}
			}
		}
	}
}

func TestBuildEmptyData(t *testing.T) {
	if _, err := Build(nil, nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
	d := NewData()
	cl, err := cluster.Build(graph.New(), cluster.Global, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.EntryCount() != 0 || ix.NumLists() != 0 {
		t.Errorf("empty build: %d entries, %d lists", ix.EntryCount(), ix.NumLists())
	}
}
