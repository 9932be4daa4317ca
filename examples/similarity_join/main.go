// Similarity join: the paper's Query 3 — find relevant components in
// articles.xml, and for articles containing them, find reviews from
// reviews.xml whose titles are similar. The join condition itself is
// scored (ScoreSim counts shared title words), and the final score
// combines the similarity with the component's relevance through ScoreBar
// (Fig. 9), exactly as the scored pattern tree of Fig. 4 prescribes.
package main

import (
	"fmt"
	"log"

	"repro/internal/db"
	"repro/internal/fixture"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

func main() {
	d := shard.New(shard.Options{Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		log.Fatal(err)
	}
	if err := d.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		log.Fatal(err)
	}

	results, err := d.SimilarityJoin(db.SimilarityJoinSpec{
		LeftDoc:   "articles.xml",
		RightDoc:  "reviews.xml",
		LeftRoot:  "article",
		RightRoot: "review",
		LeftKey:   "article-title",
		RightKey:  "title",
		Primary:   []string{"search engine"},
		Secondary: []string{"internet", "information retrieval"},
		MinSim:    1, // "Threshold simScore > 1" of Fig. 10
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d joined result(s), best first:\n", len(results))
	for i, r := range results {
		if i >= 5 {
			fmt.Printf("... and %d more\n", len(results)-5)
			break
		}
		reviewTitle := ""
		if t := r.Right.FirstTag("title"); t != nil {
			reviewTitle = t.AllText()
		}
		fmt.Printf("\n#%d combined=%.2f (component=%.2f, title-sim=%.0f)\n",
			i+1, r.Score, r.ComponentScore, r.Sim)
		fmt.Printf("   review: %q\n", reviewTitle)
		fmt.Printf("   component <%s>:\n", r.Component.Tag)
		if r.Component.Tag == "p" {
			fmt.Printf("   %s\n", r.Component.AllText())
		} else {
			fmt.Print(xmltree.XMLString(r.Component))
		}
	}
}
