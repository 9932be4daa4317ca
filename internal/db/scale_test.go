package db_test

import (
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/shard"
	"repro/internal/synth"
)

// TestScaleSmoke exercises the full pipeline near paper-like element
// counts: a ~200k-element corpus is generated, indexed, and queried, and
// the end-to-end latency of the TermJoin-backed query must stay in
// interactive territory. Guarded by -short.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke test skipped in -short mode")
	}
	cfg := synth.ScaleToElements(synth.DefaultConfig(), 200000)
	cfg.Seed = 99
	cfg.ControlTerms = map[string]int{"needle": 5000, "haystack": 2500}
	corpus, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := shard.New(shard.Options{})
	if err := d.LoadTree("corpus.xml", corpus.Root); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Elements < 100000 {
		t.Fatalf("corpus too small: %d elements", st.Elements)
	}

	start := time.Now()
	results, err := d.Query(`
		For $a in document("corpus.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"needle"}, {"haystack"})
		Pick $a using PickFoo($a)
		Sortby(score)
		Threshold $a/@score stop after 20
	`)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 20 {
		t.Fatalf("results = %d, want 20", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Errorf("not sorted at %d", i)
		}
	}
	// 7,500 postings over ~200k elements: a pipelined engine must answer
	// well under a second even on slow hardware; a generous bound catches
	// accidental quadratic regressions.
	if elapsed > 5*time.Second {
		t.Errorf("query took %v; pipeline regressed?", elapsed)
	}
	t.Logf("scale smoke: %d elements, query in %v, top score %.1f",
		st.Elements, elapsed, results[0].Score)

	// TopK term search at scale through the early-terminating path.
	results2, err := d.TermSearch([]string{"needle", "haystack"}, db.TermSearchOptions{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results2) != 5 {
		t.Errorf("term search results = %d", len(results2))
	}
}
