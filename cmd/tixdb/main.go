// Command tixdb is a small command-line front end to the TIX database:
// load XML documents, inspect statistics, and run extended-XQuery queries
// (the Sec. 4 dialect), term searches, and phrase searches.
//
// Usage:
//
//	tixdb -load a.xml -load b.xml -query 'For $a in document("a.xml")//p …'
//	tixdb -load a.xml -terms "search,engine" -topk 5
//	tixdb -load a.xml -phrase "information retrieval"
//	tixdb -load a.xml -stats
//	tixdb -open db.tix -delete a.xml -save db.tix   # retire a document
//	tixdb -demo                # run the paper's Query 2 on the Fig. 1 data
//
// -delete (repeatable) removes documents by name after loading; combined
// with -save the written snapshot contains only the surviving corpus, with
// its index compacted.
//
// With -timeout, evaluation is abandoned cooperatively once the deadline
// passes and the process exits with status 2 (distinct from status 1 for
// ordinary errors), so scripts can tell "query too slow" from "query
// wrong".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/fixture"
	"repro/internal/shard"
)

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var loads, deletes multiFlag
	flag.Var(&loads, "load", "XML file to load (repeatable)")
	flag.Var(&deletes, "delete", "document name to delete after loading (repeatable)")
	var (
		query   = flag.String("query", "", "extended-XQuery query to evaluate")
		terms   = flag.String("terms", "", "comma-separated terms for a TermJoin search")
		phrase  = flag.String("phrase", "", "space-separated phrase for a PhraseFinder search")
		topk    = flag.Int("topk", 10, "result limit for -terms")
		complex = flag.Bool("complex", false, "use the complex scoring function with -terms")
		stats   = flag.Bool("stats", false, "print database statistics")
		demo    = flag.Bool("demo", false, "load the paper's Figure 1 database and run Query 2")
		stem    = flag.Bool("stem", true, "index with the light plural stemmer")
		save    = flag.String("save", "", "write the database (with its index) to this file")
		open    = flag.String("open", "", "open a database file written with -save")
		shards  = flag.Int("shards", 0, "number of corpus shards queried in parallel (0 = keep an opened file's layout, else 1)")
		explain = flag.Bool("explain", false, "print the physical plan for -query instead of running it")
		timeout = flag.Duration("timeout", 0, "abandon evaluation after this duration and exit with status 2 (0 = none)")
	)
	flag.Parse()
	if err := run(loads, deletes, *query, *terms, *phrase, *topk, *complex, *stats, *demo, *stem, *save, *open, *shards, *explain, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "tixdb:", err)
		if errors.Is(err, exec.ErrDeadlineExceeded) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(loads, deletes []string, query, terms, phrase string, topk int, complex, stats, demo, stem bool, save, open string, shards int, explain bool, timeout time.Duration) error {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var d *shard.DB
	if open != "" {
		var err error
		d, err = shard.LoadFile(open)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "opened %s (%d shard(s))\n", open, d.Shards())
		if shards > 0 && shards != d.Shards() {
			d, err = d.Reshard(shards, d.Strategy())
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "resharded into %d shard(s)\n", shards)
		}
	} else {
		d = shard.New(shard.Options{Shards: shards, Stemming: stem})
	}
	if demo {
		if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
			return err
		}
		if err := d.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
			return err
		}
		if query == "" {
			query = `
For $a := document("articles.xml")//article[/author/sname/text()="Doe"]/descendant-or-self::*
Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})
Pick $a using PickFoo($a)
Sortby(score)
Threshold $a/@score > 4 stop after 5`
			fmt.Println("running the paper's Query 2:")
			fmt.Println(query)
			fmt.Println()
		}
	}
	for _, path := range loads {
		if err := d.LoadFile(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded %s\n", path)
	}
	if !demo && len(loads) == 0 && open == "" {
		return fmt.Errorf("nothing loaded; use -load, -open or -demo")
	}
	for _, name := range deletes {
		if err := d.Delete(name); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "deleted %s\n", name)
	}
	if save != "" {
		d.Warm() // persist the indexes too
		if err := d.SaveFile(save); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "saved %s\n", save)
	}

	if stats {
		st := d.Stats()
		fmt.Printf("documents:   %d\n", st.Documents)
		fmt.Printf("nodes:       %d\n", st.Nodes)
		fmt.Printf("elements:    %d\n", st.Elements)
		fmt.Printf("terms:       %d\n", st.Terms)
		fmt.Printf("occurrences: %d\n", st.Occurrences)
	}

	if explain && query != "" {
		plan, err := d.Explain(query)
		if err != nil {
			return err
		}
		fmt.Println(plan)
		return nil
	}
	if query != "" {
		rendered, results, err := d.QueryRenderedContext(ctx, query)
		if err != nil {
			return err
		}
		fmt.Printf("%d result(s)\n", len(results))
		for i, r := range results {
			fmt.Printf("--- result %d: <%s> score=%.2f ---\n", i+1, r.Node.Tag, r.Score)
			fmt.Print(rendered[i])
		}
	}

	if terms != "" {
		list := strings.Split(terms, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
		results, err := d.TermSearchContext(ctx, list, db.TermSearchOptions{TopK: topk, Complex: complex})
		if err != nil {
			return err
		}
		fmt.Printf("%d result(s) for terms %v\n", len(results), list)
		for i, r := range results {
			fmt.Printf("%2d. <%s> doc=%d ord=%d score=%.3f\n", i+1, d.NameOf(r), r.Doc, r.Ord, r.Score)
		}
	}

	if phrase != "" {
		words := strings.Fields(phrase)
		ms, err := d.PhraseSearchContext(ctx, words)
		if err != nil {
			return err
		}
		fmt.Printf("%d occurrence(s) of %q\n", len(ms), phrase)
		for i, m := range ms {
			if i >= topk {
				fmt.Printf("... and %d more\n", len(ms)-topk)
				break
			}
			n := d.Materialize(m.Doc, m.Node)
			text := n.AllText()
			if len(text) > 70 {
				text = text[:67] + "..."
			}
			fmt.Printf("%2d. doc=%d node=%d pos=%d: %s\n", i+1, m.Doc, m.Node, m.Pos, text)
		}
	}
	return nil
}
