package exec

import (
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/scoring"
	"repro/internal/storage"
	"repro/internal/synth"
	"repro/internal/tokenize"
)

// buildMultiDocIndex loads several generated documents, so document
// boundaries and per-document runs are exercised.
func buildMultiDocIndex(t testing.TB, docs int) *index.Index {
	t.Helper()
	s := storage.NewStore()
	for i := 0; i < docs; i++ {
		cfg := synth.DefaultConfig()
		cfg.Articles = 6
		cfg.Seed = int64(100 + i)
		cfg.ControlTerms = map[string]int{"ctla": 30, "ctlb": 20}
		c, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddTree(fmt.Sprintf("doc%02d.xml", i), c.Root); err != nil {
			t.Fatal(err)
		}
	}
	return index.Build(s, tokenize.New())
}

func TestTopKTermJoinMatchesFullRun(t *testing.T) {
	idx := buildMultiDocIndex(t, 8)
	for _, complex := range []bool{false, true} {
		q := TermQuery{
			Terms:   []string{"ctla", "ctlb"},
			Complex: complex,
			Scorer:  DefaultScorer{SimpleFn: scoring.SimpleScorer{Weights: []float64{0.8, 0.6}}, ComplexFn: scoring.ComplexScorer{Weights: []float64{0.8, 0.6}}},
		}
		for _, k := range []int{1, 3, 10, 1000} {
			want := NewTopK(k)
			full, err := RunTermJoin(idx, q, ChildCountNavigate)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range full {
				want.Offer(n)
			}
			tkj := &TopKTermJoin{Index: idx, Query: q, K: k}
			got, err := tkj.Run()
			if err != nil {
				t.Fatal(err)
			}
			wr := want.Results()
			if len(got) != len(wr) {
				t.Fatalf("complex=%v k=%d: %d results, want %d", complex, k, len(got), len(wr))
			}
			for i := range wr {
				// Scores must match exactly; node identity may differ only
				// among equal scores at the boundary.
				if got[i].Score != wr[i].Score {
					t.Fatalf("complex=%v k=%d: result %d score %f, want %f",
						complex, k, i, got[i].Score, wr[i].Score)
				}
			}
		}
	}
}

func TestTopKTermJoinEarlyTermination(t *testing.T) {
	idx := buildMultiDocIndex(t, 8)
	q := TermQuery{Terms: []string{"ctla", "ctlb"}, Scorer: DefaultScorer{}}
	tkj := &TopKTermJoin{Index: idx, Query: q, K: 1}
	if _, err := tkj.Run(); err != nil {
		t.Fatal(err)
	}
	// All 8 documents carry the terms; k=1 should stop after the documents
	// whose bound exceeds the best score — the per-document bounds equal
	// the whole-document counts, and the best element (each document root)
	// attains its bound, so exactly one document is evaluated.
	if tkj.DocsEvaluated != 1 {
		t.Errorf("DocsEvaluated = %d, want 1", tkj.DocsEvaluated)
	}
	// A huge k evaluates everything.
	tkj = &TopKTermJoin{Index: idx, Query: q, K: 100000}
	if _, err := tkj.Run(); err != nil {
		t.Fatal(err)
	}
	if tkj.DocsEvaluated != 8 {
		t.Errorf("DocsEvaluated = %d, want 8", tkj.DocsEvaluated)
	}
}

func TestTopKTermJoinEdgeCases(t *testing.T) {
	idx := buildMultiDocIndex(t, 2)
	if got, err := (&TopKTermJoin{Index: idx, Query: TermQuery{Terms: []string{"x"}, Scorer: DefaultScorer{}}, K: 0}).Run(); err != nil || got != nil {
		t.Errorf("k=0: %v, %v", got, err)
	}
	if _, err := (&TopKTermJoin{Index: idx, Query: TermQuery{Scorer: DefaultScorer{}}, K: 1}).Run(); err == nil {
		t.Errorf("no terms should error")
	}
	if _, err := (&TopKTermJoin{Index: idx, Query: TermQuery{Terms: []string{"x"}}, K: 1}).Run(); err == nil {
		t.Errorf("no scorer should error")
	}
	// Unknown term: empty result.
	got, err := (&TopKTermJoin{Index: idx, Query: TermQuery{Terms: []string{"zzz"}, Scorer: DefaultScorer{}}, K: 5}).Run()
	if err != nil || len(got) != 0 {
		t.Errorf("unknown term: %v, %v", got, err)
	}
}

func TestTopKTermJoinCustomBound(t *testing.T) {
	idx := buildMultiDocIndex(t, 4)
	q := TermQuery{Terms: []string{"ctla"}, Scorer: DefaultScorer{}}
	// A deliberately loose custom bound must still give correct results,
	// just without early termination.
	tkj := &TopKTermJoin{
		Index: idx, Query: q, K: 2,
		Bound: func(counts []int, occ int) float64 { return 1e18 },
	}
	got, err := tkj.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tkj.DocsEvaluated != 4 {
		t.Errorf("loose bound should evaluate all docs, got %d", tkj.DocsEvaluated)
	}
	if len(got) != 2 {
		t.Errorf("results = %d", len(got))
	}
}
