package db_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/fixture"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// The query tests run through the one query facade, shard.DB, over a
// single segment: every query path reads a segment through its pinned
// view, so these pin the segment's behaviour as callers see it.

// newFixtureDB loads the paper's Figure 1 database behind a one-segment
// facade.
func newFixtureDB(t testing.TB) *shard.DB {
	t.Helper()
	d, _ := newMeteredFixtureDB(t)
	return d
}

// newMeteredFixtureDB is newFixtureDB with an isolated metrics registry,
// so tests can assert on exact counter values.
func newMeteredFixtureDB(t testing.TB) (*shard.DB, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	d := shard.New(shard.Options{Stemming: true, Metrics: reg})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		t.Fatal(err)
	}
	return d, reg
}

func counter(reg *metrics.Registry, name, op string) int64 {
	return reg.Counter(name + `{op="` + op + `"}`).Value()
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestQuery2Integration runs the paper's Query 2 through the full stack:
// parser → path evaluation → PhraseFinder → TermJoin → StackPick →
// threshold. The expected top result is the chapter #a10 (Example 3.1).
func TestQuery2Integration(t *testing.T) {
	d := newFixtureDB(t)
	results, err := d.Query(`
		For $a := document("articles.xml")//article[/author/sname/text()="Doe"]/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})
		Pick $a using PickFoo($a)
		Return <result><score>$a/@score</score>{ $a }</result>
		Sortby(score)
		Threshold $a/@score > 4 stop after 5
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	if results[0].Node.Tag != "chapter" || !approx(results[0].Score, 5.0) {
		t.Errorf("top = %s[%f], want chapter[5.0]", results[0].Node.Tag, results[0].Score)
	}
	// The returned subtree is the real chapter content.
	if got := results[0].Node.FirstTag("ct"); got == nil || got.AllText() != "Search and Retrieval" {
		t.Errorf("chapter content wrong")
	}
}

// TestQuery3Integration runs the similarity join of Query 3: articles with
// relevant components joined to reviews with similar titles.
func TestQuery3Integration(t *testing.T) {
	d := newFixtureDB(t)
	results, err := d.SimilarityJoin(db.SimilarityJoinSpec{
		LeftDoc:   "articles.xml",
		RightDoc:  "reviews.xml",
		LeftRoot:  "article",
		RightRoot: "review",
		LeftKey:   "article-title",
		RightKey:  "title",
		Primary:   fixture.PrimaryPhrases,
		Secondary: fixture.SecondaryPhrases,
		MinSim:    1, // Threshold simScore > 1, as in Fig. 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatalf("no join results")
	}
	// Best result: the whole article (component score 5.6) with review 1
	// (identical title, sim 2) → 7.6.
	best := results[0]
	if !approx(best.Score, 7.6) || !approx(best.Sim, 2) {
		t.Errorf("best = %+v, want score 7.6 sim 2", best)
	}
	if best.Right.FirstTag("title") == nil {
		t.Errorf("right side lost title")
	}
	if id, _ := best.Right.Attr("id"); id != "1" {
		t.Errorf("best review id = %s, want 1", id)
	}
	// All results obey MinSim and are sorted.
	for i, r := range results {
		if r.Sim <= 1 {
			t.Errorf("result %d violates MinSim: %+v", i, r)
		}
		if i > 0 && r.Score > results[i-1].Score {
			t.Errorf("not sorted at %d", i)
		}
	}
	// The Fig. 7 witness — paragraph #a18 with review 1 — appears with
	// combined score 2.8.
	found := false
	for _, r := range results {
		if r.Component.Tag == "p" && approx(r.Score, 2.8) {
			found = true
		}
	}
	if !found {
		t.Errorf("Fig. 7 result (p, 2.8) missing")
	}
}

func TestTermSearch(t *testing.T) {
	d := newFixtureDB(t)
	results, err := d.TermSearch([]string{"search", "retrieval"}, db.TermSearchOptions{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Errorf("not best-first")
		}
	}
	// The article root should be the global best (contains everything).
	if d.NameOf(results[0]) != "article" {
		t.Errorf("best = %s, want article", d.NameOf(results[0]))
	}
	// Complex and Enhanced agree.
	c1, err := d.TermSearch([]string{"search", "engine"}, db.TermSearchOptions{Complex: true})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := d.TermSearch([]string{"search", "engine"}, db.TermSearchOptions{Complex: true, Enhanced: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) != len(c2) {
		t.Fatalf("enhanced disagrees: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Errorf("enhanced result %d differs", i)
		}
	}
}

// TestTermSearchParallelMatchesSequential: the parallel evaluation of one
// term search — per-segment workers over a 4-way fan-out — returns exactly
// the single-segment answer.
func TestTermSearchParallelMatchesSequential(t *testing.T) {
	d := newFixtureDB(t)
	seq, err := d.TermSearch([]string{"search", "retrieval"}, db.TermSearchOptions{Complex: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Reshard(4, shard.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	par, err := p.TermSearch([]string{"search", "retrieval"}, db.TermSearchOptions{Complex: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("parallel %d vs sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("result %d differs: %+v vs %+v", i, seq[i], par[i])
		}
	}
}

func TestPhraseSearchAndMaterialize(t *testing.T) {
	d := newFixtureDB(t)
	ms, err := d.PhraseSearch([]string{"information", "retrieval"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Errorf("matches = %d, want 3 (#a15 title, #a19, #a20)", len(ms))
	}
	n := d.Materialize(ms[0].Doc, ms[0].Node)
	if n == nil || !strings.Contains(strings.ToLower(n.AllText()), "information retrieval") {
		t.Errorf("materialized node does not contain the phrase: %v", n)
	}
}

func TestTwigSearch(t *testing.T) {
	d := newFixtureDB(t)
	// Articles that have both an author with an sname and a paragraph.
	got, err := d.TwigSearchContext(context.Background(), exec.Twig("article",
		exec.Twig("author", exec.Twig("sname")),
		exec.Twig("p")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Tag != "article" {
		t.Fatalf("twig results = %v", got)
	}
	// Chapters directly containing a ct child.
	got, err = d.TwigSearchContext(context.Background(), exec.Twig("chapter", exec.TwigChild("ct")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("chapter/ct = %d, want 3", len(got))
	}
	// No match across documents mixes nothing up.
	got, err = d.TwigSearchContext(context.Background(), exec.Twig("review", exec.Twig("sname")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 { // review 1 has reviewer/sname
		t.Errorf("review//sname = %d, want 1", len(got))
	}
}

func TestSimilarityJoinErrors(t *testing.T) {
	d := shard.New(shard.Options{})
	if _, err := d.SimilarityJoin(db.SimilarityJoinSpec{LeftDoc: "a", RightDoc: "b"}); err == nil {
		t.Errorf("missing documents should error")
	}
}

// TestRemoveDocument: deleting a document removes it from statistics,
// from the index and from query answers; the name can be loaded again.
func TestRemoveDocument(t *testing.T) {
	d := newFixtureDB(t)
	if d.Stats().Documents != 2 {
		t.Fatalf("documents = %d", d.Stats().Documents)
	}
	if err := d.Delete("reviews.xml"); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Documents != 1 {
		t.Fatalf("documents after remove = %d", st.Documents)
	}
	// Terms only present in reviews.xml no longer match.
	if res, err := d.TermSearch([]string{"anonymous"}, db.TermSearchOptions{}); err != nil || len(res) != 0 {
		t.Errorf("removed document's terms still match: %v, %v", res, err)
	}
	if res, err := d.TermSearch([]string{"search"}, db.TermSearchOptions{}); err != nil || len(res) == 0 {
		t.Errorf("remaining document's terms lost: %v", err)
	}
	// Queries over the remaining document still work.
	results, err := d.Query(`
		For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {})
		Sortby(score)
		Threshold $a/@score stop after 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Errorf("query after removal broken")
	}
	// Removing an unknown document errors; removing the last works.
	if err := d.Delete("nope.xml"); err == nil {
		t.Errorf("unknown removal accepted")
	}
	if err := d.Delete("articles.xml"); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Documents != 0 {
		t.Errorf("documents after removing all = %d", d.Stats().Documents)
	}
	// And the name can be loaded again afterwards.
	if err := d.Add("articles.xml", "<a>fresh</a>"); err != nil {
		t.Errorf("reload after removal: %v", err)
	}
}

func TestLoadFileAndStats(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "articles.xml")
	if err := os.WriteFile(path, []byte(fixture.ArticlesXML), 0o644); err != nil {
		t.Fatal(err)
	}
	d := shard.New(shard.Options{Stemming: true})
	if err := d.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Documents != 1 || st.Nodes == 0 || st.Elements == 0 || st.Terms == 0 || st.Occurrences == 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := d.LoadFile(filepath.Join(dir, "missing.xml")); err == nil {
		t.Errorf("missing file should error")
	}
	if err := d.LoadString("bad.xml", "<a><b></a>"); err == nil {
		t.Errorf("malformed XML should error")
	}
	if err := d.LoadString("articles.xml", "<a/>"); err == nil {
		t.Errorf("duplicate name should error")
	}
}

// TestMalformedXMLThroughLoadPaths: malformed documents are rejected with
// an error naming the document from every load path, and a failed load
// leaves the database untouched.
func TestMalformedXMLThroughLoadPaths(t *testing.T) {
	const bad = "<article><title>unterminated"

	d := shard.New(shard.Options{})
	if err := d.LoadString("bad.xml", bad); err == nil {
		t.Error("LoadString accepted malformed XML")
	} else if !strings.Contains(err.Error(), "bad.xml") {
		t.Errorf("LoadString error does not name the document: %v", err)
	}

	if err := d.LoadReader("bad.xml", strings.NewReader(bad)); err == nil {
		t.Error("LoadReader accepted malformed XML")
	}

	path := filepath.Join(t.TempDir(), "bad.xml")
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadFile(path); err == nil {
		t.Error("LoadFile accepted malformed XML")
	} else if !strings.Contains(err.Error(), "bad.xml") {
		t.Errorf("LoadFile error does not name the document: %v", err)
	}

	if err := d.LoadFile(filepath.Join(t.TempDir(), "missing.xml")); err == nil {
		t.Error("LoadFile accepted a missing file")
	}

	// The failed loads left no documents behind.
	if st := d.Stats(); st.Documents != 0 {
		t.Errorf("failed loads left %d documents", st.Documents)
	}

	// And the database still works afterwards.
	if err := d.LoadString("ok.xml", "<a><b>fine</b></a>"); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Documents != 1 {
		t.Errorf("documents = %d after recovery load", st.Documents)
	}
}

// TestSaveFileLoadDBFile: a database file written by SaveFile reopens with
// the same statistics and answers; a missing file is an error.
func TestSaveFileLoadDBFile(t *testing.T) {
	d := newFixtureDB(t)
	d.Warm()
	path := filepath.Join(t.TempDir(), "db.tix")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	d2, err := shard.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Stats() != d.Stats() {
		t.Errorf("file round trip stats differ")
	}
	want, err := d.TermSearch([]string{"search", "engine"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2.TermSearch([]string{"search", "engine"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Errorf("file round trip answers %d results, want %d", len(got), len(want))
	}
	if _, err := shard.LoadFile(filepath.Join(t.TempDir(), "missing.tix")); err == nil {
		t.Errorf("missing file should error")
	}
}
