// Quickstart: load two small XML documents, build the index, and run an
// IR-style query with relevance scoring, granularity selection (Pick), and
// thresholding — the minimal end-to-end tour of the TIX reproduction.
package main

import (
	"fmt"
	"log"

	"repro/internal/shard"
	"repro/internal/xmltree"
)

const articles = `
<article>
  <article-title>Internet Technologies</article-title>
  <author id="first"><fname>Jane</fname><sname>Doe</sname></author>
  <chapter><ct>Caching and Replication</ct></chapter>
  <chapter><ct>Streaming Video</ct></chapter>
  <chapter>
    <ct>Search and Retrieval</ct>
    <section><section-title>Search Engine Basics</section-title></section>
    <section><section-title>Information Retrieval Techniques</section-title></section>
    <section>
      <section-title>Examples</section-title>
      <p>Here are some IR based search engines:</p>
      <p>search engine NewsInEssence uses a new information retrieval technology</p>
      <p>semantic information retrieval techniques are also being incorporated into some search engines</p>
    </section>
  </chapter>
</article>`

func main() {
	// A database with the light stemmer, matching the paper's examples.
	d := shard.New(shard.Options{Stemming: true})
	if err := d.LoadString("articles.xml", articles); err != nil {
		log.Fatal(err)
	}

	st := d.Stats()
	fmt.Printf("loaded %d document(s): %d nodes, %d distinct terms\n\n",
		st.Documents, st.Nodes, st.Terms)

	// The paper's Query 1: find document components about "search engine";
	// relevance to "internet" and "information retrieval" is desirable but
	// not necessary. Pick selects the right granularity; Threshold keeps
	// high-scoring results.
	results, err := d.Query(`
		For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})
		Pick $a using PickFoo($a)
		Sortby(score)
		Threshold $a/@score > 1 stop after 3
	`)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("top %d component(s):\n", len(results))
	for i, r := range results {
		fmt.Printf("\n#%d <%s> score=%.2f\n", i+1, r.Node.Tag, r.Score)
		fmt.Print(xmltree.XMLString(r.Node))
	}
}
