package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/scoring"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/synth"
	"repro/internal/xmltree"
)

// The facade is the server's backend.
var _ server.Backend = (*DB)(nil)

// equivShardCounts is the sweep the differential suite runs: the trivial
// single-shard case, counts that divide the corpus unevenly, and more
// shards than some placements will populate.
var equivShardCounts = []int{1, 2, 3, 8}

// corpusDocs deterministically generates n small documents with planted
// control terms and phrase adjacencies. The returned trees are shared
// between the oracle and every sharded instance — region encodings and
// ordinals are per-document, so the numbering the first load assigns is
// valid in every store.
func corpusDocs(t testing.TB, n int, seed int64) (names []string, roots []*xmltree.Node) {
	t.Helper()
	for i := 0; i < n; i++ {
		cfg := synth.DefaultConfig()
		cfg.Articles = 5
		cfg.Seed = seed + int64(i)
		cfg.ControlTerms = map[string]int{"ctla": 30, "ctlb": 18, "ctlc": 7}
		cfg.Phrases = []synth.PhraseSpec{{T1: "ctla", T2: "ctlb", Together: 5}}
		c, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, fmt.Sprintf("doc%02d.xml", i))
		roots = append(roots, c.Root)
	}
	return names, roots
}

// newOracle loads the documents into one segment. Because the facade
// numbers documents globally in load order, the oracle's document ids
// coincide with the facade's global ids. The oracle is queried by running
// the exec operators directly over one view of that segment (the oracle*
// helpers below) — independent of the facade's fan-out, id rewrite,
// merge, cache and metrics.
func newOracle(t testing.TB, names []string, roots []*xmltree.Node) *db.DB {
	t.Helper()
	d := db.New(db.Options{})
	for i, name := range names {
		if err := d.LoadTree(name, roots[i]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// newSharded loads the same documents into an n-shard database.
func newSharded(t testing.TB, n int, strategy Strategy, names []string, roots []*xmltree.Node) *DB {
	t.Helper()
	s := New(Options{Shards: n, Strategy: strategy})
	for i, name := range names {
		if err := s.LoadTree(name, roots[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// oracleTermSearch runs a TermJoin over one view of the oracle segment.
func oracleTermSearch(t testing.TB, o *db.DB, terms []string, opts db.TermSearchOptions) []exec.ScoredNode {
	t.Helper()
	v := o.View()
	mode := exec.ChildCountNavigate
	if opts.Enhanced {
		mode = exec.ChildCountIndexed
	}
	tj := &exec.TermJoin{Index: v.Index, Acc: v.Accessor(nil), ChildCounts: mode, Query: exec.TermQuery{
		Terms:   terms,
		Complex: opts.Complex,
		Scorer: exec.DefaultScorer{
			SimpleFn:  scoring.SimpleScorer{Weights: opts.Weights},
			ComplexFn: scoring.ComplexScorer{Weights: opts.Weights},
		},
	}}
	run := func(emit exec.Emit) error {
		if opts.MinScore > 0 {
			emit = exec.FilterMinScore(opts.MinScore, emit)
		}
		return tj.Run(emit)
	}
	var out []exec.ScoredNode
	var err error
	if opts.TopK > 0 {
		tk := exec.NewTopK(opts.TopK)
		err = run(tk.Emit())
		out = tk.Results()
	} else {
		out, err = exec.Collect(run)
		exec.SortRanked(out)
	}
	if err != nil {
		t.Fatalf("oracle term search: %v", err)
	}
	return out
}

// oraclePhrase runs a PhraseFinder over one view of the oracle segment.
func oraclePhrase(t testing.TB, o *db.DB, phrase []string) []exec.PhraseMatch {
	t.Helper()
	pf := &exec.PhraseFinder{Index: o.View().Index, Phrase: phrase}
	out, err := exec.CollectPhrase(pf.Run)
	if err != nil {
		t.Fatalf("oracle phrase search: %v", err)
	}
	return out
}

// oracleTwig runs TwigStack over every document of one view of the oracle
// segment and keeps each distinct pattern-root binding, in order.
func oracleTwig(t testing.TB, o *db.DB, pattern *exec.TwigNode) []TwigRef {
	t.Helper()
	v := o.View()
	var out []TwigRef
	for _, doc := range v.Docs() {
		matches, err := (&exec.TwigStack{Store: v.Store, Doc: doc.ID, Root: pattern}).Run()
		if err != nil {
			t.Fatalf("oracle twig: %v", err)
		}
		seen := map[int32]bool{}
		for _, m := range matches {
			if !seen[m[0]] {
				seen[m[0]] = true
				out = append(out, TwigRef{Doc: doc.ID, Ord: m[0]})
			}
		}
	}
	return out
}

// sameScored asserts element-for-element identity (doc, ord, score, order).
func sameScored(t *testing.T, label string, got, want []exec.ScoredNode) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d results, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Doc != w.Doc || g.Ord != w.Ord || math.Abs(g.Score-w.Score) > 1e-12 {
			t.Errorf("%s: result %d = (doc %d, ord %d, score %v), want (doc %d, ord %d, score %v)",
				label, i, g.Doc, g.Ord, g.Score, w.Doc, w.Ord, w.Score)
			return
		}
	}
}

func TestShardedTermSearchMatchesUnsharded(t *testing.T) {
	names, roots := corpusDocs(t, 9, 42)
	oracle := newOracle(t, names, roots)
	terms := []string{"ctla", "ctlb"}
	cases := []struct {
		label string
		opts  db.TermSearchOptions
	}{
		{"simple", db.TermSearchOptions{}},
		{"complex", db.TermSearchOptions{Complex: true}},
		{"enhanced", db.TermSearchOptions{Complex: true, Enhanced: true}},
		{"topk", db.TermSearchOptions{TopK: 10}},
		{"topk-complex", db.TermSearchOptions{Complex: true, TopK: 7}},
		{"minscore", db.TermSearchOptions{MinScore: 1.5}},
		{"minscore-topk", db.TermSearchOptions{MinScore: 1.0, TopK: 5}},
		{"weights", db.TermSearchOptions{Complex: true, Weights: []float64{0.9, 0.3}}},
	}
	for _, tc := range cases {
		want := oracleTermSearch(t, oracle, terms, tc.opts)
		if len(want) == 0 {
			t.Fatalf("%s: oracle returned no results", tc.label)
		}
		for _, n := range equivShardCounts {
			for _, strat := range []Strategy{ByHash, RoundRobin} {
				s := newSharded(t, n, strat, names, roots)
				got, err := s.TermSearchContext(context.Background(), terms, tc.opts)
				if err != nil {
					t.Fatalf("%s shards=%d %s: %v", tc.label, n, strat, err)
				}
				sameScored(t, fmt.Sprintf("%s shards=%d %s", tc.label, n, strat), got, want)
			}
		}
	}
}

func TestShardedMethodsMatchMonolithic(t *testing.T) {
	names, roots := corpusDocs(t, 6, 77)
	oracle := newOracle(t, names, roots)
	terms := []string{"ctla", "ctlc"}
	for _, method := range []Method{
		MethodTermJoin, MethodEnhancedTermJoin, MethodComp1, MethodComp2, MethodGenMeet,
	} {
		// Reference: the same operator over one view of the oracle segment.
		q := exec.TermQuery{Terms: terms, Scorer: exec.DefaultScorer{}}
		v := oracle.View()
		acc := v.Accessor(nil)
		var runner interface{ Run(exec.Emit) error }
		switch method {
		case MethodTermJoin:
			runner = &exec.TermJoin{Index: v.Index, Acc: acc, Query: q, ChildCounts: exec.ChildCountNavigate}
		case MethodEnhancedTermJoin:
			runner = &exec.TermJoin{Index: v.Index, Acc: acc, Query: q, ChildCounts: exec.ChildCountIndexed}
		case MethodComp1:
			runner = &exec.Comp1{Index: v.Index, Acc: acc, Query: q}
		case MethodComp2:
			runner = &exec.Comp2{Index: v.Index, Acc: acc, Query: q}
		case MethodGenMeet:
			runner = &exec.GenMeet{Index: v.Index, Acc: acc, Query: q}
		}
		want, err := exec.Collect(runner.Run)
		if err != nil {
			t.Fatalf("%s: oracle: %v", method, err)
		}
		exec.SortRanked(want)
		if len(want) == 0 {
			t.Fatalf("%s: oracle returned no results", method)
		}
		for _, n := range equivShardCounts {
			s := newSharded(t, n, ByHash, names, roots)
			got, err := s.RunTermMethod(context.Background(), method, terms, false)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", method, n, err)
			}
			sameScored(t, fmt.Sprintf("%s shards=%d", method, n), got, want)
		}
	}
}

func TestShardedPhraseMatchesUnsharded(t *testing.T) {
	names, roots := corpusDocs(t, 7, 99)
	oracle := newOracle(t, names, roots)
	phrase := []string{"ctla", "ctlb"}
	want := oraclePhrase(t, oracle, phrase)
	if len(want) == 0 {
		t.Fatal("oracle found no phrase occurrences")
	}
	for _, n := range equivShardCounts {
		s := newSharded(t, n, ByHash, names, roots)
		got, err := s.PhraseSearchContext(context.Background(), phrase)
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d matches, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: match %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}

func TestShardedTwigMatchesUnsharded(t *testing.T) {
	names, roots := corpusDocs(t, 6, 123)
	oracle := newOracle(t, names, roots)
	patterns := []*exec.TwigNode{
		exec.Twig("article", exec.Twig("snm")),
		exec.Twig("sec", exec.Twig("p")),
	}
	for pi, pattern := range patterns {
		want := oracleTwig(t, oracle, pattern)
		if len(want) == 0 {
			t.Fatalf("pattern %d: oracle found no twig matches", pi)
		}
		for _, n := range equivShardCounts {
			s := newSharded(t, n, ByHash, names, roots)
			got, err := s.TwigRefsContext(context.Background(), pattern)
			if err != nil {
				t.Fatalf("pattern %d shards=%d: %v", pi, n, err)
			}
			if len(got) != len(want) {
				t.Fatalf("pattern %d shards=%d: %d refs, want %d", pi, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pattern %d shards=%d: ref %d = %+v, want %+v", pi, n, i, got[i], want[i])
				}
			}
		}
	}
}

// queryFor builds the full query pipeline (Score, Pick, Sortby, Threshold)
// against one document — the per-document-routed family the facade
// supports.
func queryFor(name string) string {
	return fmt.Sprintf(`
		For $a in document(%q)//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"ctla ctlb"}, {"ctlc"})
		Pick $a using PickFoo($a, 0.8)
		Sortby(score)
		Threshold $a/@score stop after 10`, name)
}

func TestShardedQueryMatchesUnsharded(t *testing.T) {
	names, roots := corpusDocs(t, 5, 7)
	oracle := newOracle(t, names, roots)
	for _, name := range names {
		src := queryFor(name)
		want, err := oracle.View().Engine(nil, nil).EvalString(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: oracle returned no results", name)
		}
		for _, n := range equivShardCounts {
			s := newSharded(t, n, ByHash, names, roots)
			got, err := s.QueryContext(context.Background(), src)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, n, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s shards=%d: %d results, want %d", name, n, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Doc != w.Doc || g.Ord != w.Ord || math.Abs(g.Score-w.Score) > 1e-12 {
					t.Fatalf("%s shards=%d: result %d = (doc %d, ord %d, score %v), want (doc %d, ord %d, score %v)",
						name, n, i, g.Doc, g.Ord, g.Score, w.Doc, w.Ord, w.Score)
				}
				if g.Node.Start != w.Node.Start || g.Node.End != w.Node.End || g.Node.Tag != w.Node.Tag {
					t.Fatalf("%s shards=%d: result %d node = <%s> [%d,%d], want <%s> [%d,%d]",
						name, n, i, g.Node.Tag, g.Node.Start, g.Node.End, w.Node.Tag, w.Node.Start, w.Node.End)
				}
			}
		}
	}
}

func TestCrossShardQueryRejected(t *testing.T) {
	names, roots := corpusDocs(t, 4, 11)
	s := newSharded(t, 2, RoundRobin, names, roots)
	// Round-robin over 2 shards puts doc00 and doc01 on different shards.
	src := fmt.Sprintf(`
		For $a in document(%q)//article[/au/snm/text()="x"]
		For $b in document(%q)//article
		Let $sim := ScoreSim($a/atl, $b/atl)
		Where $sim > 0
		For $d in $a/descendant-or-self::*
		Score $d using ScoreFoo($d, {"ctla"}, {})
		Score $r using ScoreBar($sim, $d)
		Sortby(score)`, names[0], names[1])
	if _, err := s.QueryContext(context.Background(), src); !errors.Is(err, ErrCrossShard) {
		t.Fatalf("cross-shard query err = %v, want ErrCrossShard", err)
	}
	// The same two documents on one shard evaluate fine (no parse-level
	// rejection): a single-shard layout accepts any join.
	one := newSharded(t, 1, ByHash, names, roots)
	if _, err := one.QueryContext(context.Background(), src); err != nil {
		t.Fatalf("single-shard join query: %v", err)
	}
	// An unknown document is reported by name.
	if _, err := s.Query(`For $a in document("missing.xml")//p Sortby(score)`); err == nil {
		t.Fatal("query over unknown document accepted")
	}
}

func TestShardedMaterializeAndNames(t *testing.T) {
	names, roots := corpusDocs(t, 5, 3)
	oracle := newOracle(t, names, roots)
	s := newSharded(t, 3, ByHash, names, roots)
	res, err := s.TermSearch([]string{"ctla"}, db.TermSearchOptions{TopK: 20})
	if err != nil {
		t.Fatal(err)
	}
	v := oracle.View()
	for _, r := range res {
		want := v.Store.Doc(r.Doc).TreeNode(r.Ord)
		got := s.Materialize(r.Doc, r.Ord)
		if got == nil || want == nil {
			t.Fatalf("materialize (doc %d, ord %d): got %v, want %v", r.Doc, r.Ord, got, want)
		}
		if got.Tag != want.Tag || got.Start != want.Start || got.End != want.End {
			t.Fatalf("materialize (doc %d, ord %d): <%s> [%d,%d], want <%s> [%d,%d]",
				r.Doc, r.Ord, got.Tag, got.Start, got.End, want.Tag, want.Start, want.End)
		}
		if gn, wn := s.NameOf(r), v.Store.Tags.Name(v.Store.Doc(r.Doc).Nodes[r.Ord].Tag); gn != wn {
			t.Fatalf("NameOf(doc %d, ord %d) = %q, want %q", r.Doc, r.Ord, gn, wn)
		}
	}
	// Out-of-range global ids are nil/empty, not panics.
	if n := s.Materialize(storage.DocID(999), 0); n != nil {
		t.Errorf("materialize of unknown doc = %v", n)
	}
	if name := s.NameOf(exec.ScoredNode{Doc: 999}); name != "" {
		t.Errorf("NameOf unknown doc = %q", name)
	}
}

func TestShardedStatsMatchUnsharded(t *testing.T) {
	names, roots := corpusDocs(t, 6, 21)
	oracle := newOracle(t, names, roots)
	want := oracle.Stats()
	for _, n := range equivShardCounts {
		s := newSharded(t, n, ByHash, names, roots)
		got := s.Stats()
		if got != want {
			t.Errorf("shards=%d: stats = %+v, want %+v", n, got, want)
		}
		if s.DocumentCount() != len(names) {
			t.Errorf("shards=%d: DocumentCount = %d, want %d", n, s.DocumentCount(), len(names))
		}
		for gid, name := range names {
			if got := s.DocName(storage.DocID(gid)); got != name {
				t.Errorf("shards=%d: DocName(%d) = %q, want %q", n, gid, got, name)
			}
		}
	}
}
