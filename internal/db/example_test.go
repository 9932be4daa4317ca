package db_test

import (
	"context"
	"fmt"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/fixture"
)

// Example runs the paper's Query 2 end to end over one segment: load the
// Figure 1 database, score components against the query phrases, pick the
// right granularity, and threshold. Served queries go through the
// internal/shard facade, which adds the cache, metrics and limits.
func Example() {
	d := db.New(db.Options{Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		panic(err)
	}
	results, err := d.QueryLimited(context.Background(), `
		For $a := document("articles.xml")//article[/author/sname/text()="Doe"]/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})
		Pick $a using PickFoo($a)
		Sortby(score)
		Threshold $a/@score > 4 stop after 5
	`, exec.Limits{})
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("<%s> %.1f\n", r.Node.Tag, r.Score)
	}
	// Output: <chapter> 5.0
}
