// Structured search: the paper's Query 2 — an IR-style search restricted
// by a structural database predicate (articles whose author is named
// "Doe"). Demonstrates how the extended-XQuery dialect mixes boolean
// structural filtering (what databases are good at) with relevance-ranked
// retrieval (what IR is good at), and how the Pick operator chooses the
// result granularity: the answer is a chapter, not the whole article and
// not individual paragraphs.
package main

import (
	"fmt"
	"log"

	"repro/internal/fixture"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

func main() {
	d := shard.New(shard.Options{Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		log.Fatal(err)
	}

	query := `
		For $a := document("articles.xml")//article[/author/sname/text()="Doe"]/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})
		Pick $a using PickFoo($a)
		Return <result><score>$a/@score</score>{ $a }</result>
		Sortby(score)
		Threshold $a/@score > 4 stop after 5
	`
	fmt.Println("Query 2 (Fig. 10 of the paper):")
	fmt.Println(query)

	results, err := d.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("result %d: <%s> score=%.2f\n", i+1, r.Node.Tag, r.Score)
		fmt.Print(xmltree.XMLString(r.Node))
	}

	// Contrast: the same search without the Pick clause returns every
	// relevant granularity — the whole article, the chapter, sections and
	// paragraphs, with overlapping content.
	noPick, err := d.Query(`
		For $a := document("articles.xml")//article[/author/sname/text()="Doe"]/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})
		Sortby(score)
	`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwithout Pick, %d overlapping results:\n", len(noPick))
	for _, r := range noPick {
		fmt.Printf("  <%s> score=%.2f\n", r.Node.Tag, r.Score)
	}

	// And the structural predicate alone filters precisely: an author
	// named Smith matches nothing.
	smith, err := d.Query(`
		For $a in document("articles.xml")//article[/author/sname/text()="Smith"]/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {})
	`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith author=Smith the same search returns %d results\n", len(smith))
}
