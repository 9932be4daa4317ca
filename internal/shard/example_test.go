package shard_test

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/fixture"
	"repro/internal/shard"
)

func ExampleDB_TermSearch() {
	d := shard.New(shard.Options{Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		panic(err)
	}
	results, err := d.TermSearch([]string{"information", "retrieval"}, db.TermSearchOptions{TopK: 2})
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("<%s> %.0f\n", d.NameOf(r), r.Score)
	}
	// Output:
	// <article> 7
	// <chapter> 7
}

func ExampleDB_PhraseSearch() {
	d := shard.New(shard.Options{Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		panic(err)
	}
	ms, err := d.PhraseSearch([]string{"information", "retrieval"})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(ms), "occurrences")
	// Output: 3 occurrences
}

func ExampleDB_SimilarityJoin() {
	d := shard.New(shard.Options{Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		panic(err)
	}
	if err := d.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		panic(err)
	}
	results, err := d.SimilarityJoin(db.SimilarityJoinSpec{
		LeftDoc: "articles.xml", RightDoc: "reviews.xml",
		LeftRoot: "article", RightRoot: "review",
		LeftKey: "article-title", RightKey: "title",
		Primary:   []string{"search engine"},
		Secondary: []string{"internet", "information retrieval"},
		MinSim:    1,
	})
	if err != nil {
		panic(err)
	}
	best := results[0]
	fmt.Printf("combined %.1f (component %.1f, sim %.0f)\n", best.Score, best.ComponentScore, best.Sim)
	// Output: combined 7.6 (component 5.6, sim 2)
}
