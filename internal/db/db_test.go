package db

import (
	"testing"

	"repro/internal/fixture"
)

func newFixtureDB(t testing.TB) *DB {
	t.Helper()
	d := New(Options{Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStopwordsOption(t *testing.T) {
	d := New(Options{Stopwords: []string{"the", "and"}})
	if err := d.LoadString("x.xml", `<a>the cat and the hat</a>`); err != nil {
		t.Fatal(err)
	}
	idx := d.Index()
	if idx.TermFreq("the") != 0 || idx.TermFreq("and") != 0 {
		t.Errorf("stopwords indexed")
	}
	if idx.TermFreq("cat") != 1 || idx.TermFreq("hat") != 1 {
		t.Errorf("content words missing")
	}
}

func TestIndexInvalidationOnLoad(t *testing.T) {
	d := New(Options{})
	if err := d.LoadString("a.xml", `<a>one</a>`); err != nil {
		t.Fatal(err)
	}
	if d.Index().TermFreq("two") != 0 {
		t.Fatalf("unexpected term")
	}
	if err := d.LoadString("b.xml", `<b>two</b>`); err != nil {
		t.Fatal(err)
	}
	if d.Index().TermFreq("two") != 1 {
		t.Errorf("index not rebuilt after load")
	}
}
