package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/synth"
	"repro/internal/xmltree"
)

// controlFreqs are the planted control-term frequencies, one ta/tb pair
// per step of the paper's frequency axis (Tables 1–3 sweep 20 to 10,000;
// the last pair stands in for the "more than 50k" head of Table 5).
var controlFreqs = []int{20, 100, 1000, 5500, 10000, 55000}

// plantedPhrases are the adjacent co-occurrences planted between control
// pairs: Table 5's result-size axis.
var plantedPhrases = []synth.PhraseSpec{
	{T1: "ta100", T2: "tb100", Together: 20},
	{T1: "ta1000", T2: "tb1000", Together: 200},
	{T1: "ta10000", T2: "tb10000", Together: 1000},
	{T1: "ta55000", T2: "tb55000", Together: 5000},
}

// Stratum boundaries over corpus frequency for background words. The
// head stops at the paper's largest term frequency (Table 5's 146,477):
// the few background words above it (up to ≈750k occurrences) lie off
// the paper's frequency axis.
const (
	headMaxFreq = 150000
	headMinFreq = 50000
	midMinFreq  = 1000
	tailMinFreq = 20
)

// stratum indexes the vocabulary strata requests draw their terms from.
type stratum int

const (
	stHead stratum = iota
	stMid
	stTail
	stControl
	numStrata
)

var stratumNames = [numStrata]string{"head", "mid", "tail", "control"}

// document is one generated single-article document.
type document struct {
	name  string
	xml   string
	nodes int // node count of the parsed document: valid ordinals are [0, nodes)
}

// corpus is the generated input plus the facts the answer checks need.
type corpus struct {
	docs    []document
	bytes   int
	nodes   int
	words   int
	freq    map[string]int // exact corpus frequency of every word
	planted map[string]int // the generator's planted control frequencies
	strata  [numStrata][]string
}

// generateCorpus builds the INEX-like corpus of EXPERIMENTS.md's setup:
// synth.Generate over n articles with the control terms planted, split
// into one document per article.
func generateCorpus(n int, seed int64) (*corpus, error) {
	cfg := synth.DefaultConfig()
	cfg.Articles = n
	cfg.Seed = seed
	cfg.ControlTerms = map[string]int{}
	for _, f := range controlFreqs {
		cfg.ControlTerms[fmt.Sprintf("ta%d", f)] = f
		cfg.ControlTerms[fmt.Sprintf("tb%d", f)] = f
	}
	cfg.Phrases = plantedPhrases
	gen, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	c := &corpus{freq: map[string]int{}, planted: gen.PlantedFreq}
	for i, art := range gen.Root.Children {
		c.add(fmt.Sprintf("a%05d.xml", i), art)
	}
	// The node counts come from the generated trees; check on a sample
	// that the serialized form parses back to the same count, as the
	// store will number it.
	for _, d := range c.docs[:min(16, len(c.docs))] {
		root, err := xmltree.ParseString(d.xml)
		if err != nil {
			return nil, fmt.Errorf("document %s: %w", d.name, err)
		}
		if n := len(xmltree.Nodes(root)); n != d.nodes {
			return nil, fmt.Errorf("document %s parses to %d nodes, generated with %d", d.name, n, d.nodes)
		}
	}
	c.classify()
	return c, nil
}

// add serializes one article as a document and counts its nodes and words.
func (c *corpus) add(name string, art *xmltree.Node) {
	d := document{name: name, xml: xmltree.XMLString(art)}
	art.Walk(func(n *xmltree.Node) bool {
		d.nodes++
		if n.Kind == xmltree.Text {
			for _, w := range strings.Fields(n.Text) {
				c.freq[w]++
				c.words++
			}
		}
		return true
	})
	c.docs = append(c.docs, d)
	c.bytes += len(d.xml)
	c.nodes += d.nodes
}

// classify sorts the vocabulary into frequency strata. Every list is in
// descending frequency order (ties by name), so strata are deterministic.
func (c *corpus) classify() {
	words := make([]string, 0, len(c.freq))
	for w := range c.freq {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool {
		fi, fj := c.freq[words[i]], c.freq[words[j]]
		if fi != fj {
			return fi > fj
		}
		return words[i] < words[j]
	})
	for _, w := range words {
		f := c.freq[w]
		switch {
		case c.planted[w] > 0:
			c.strata[stControl] = append(c.strata[stControl], w)
		case f >= headMaxFreq:
		case f >= headMinFreq:
			c.strata[stHead] = append(c.strata[stHead], w)
		case f >= midMinFreq:
			c.strata[stMid] = append(c.strata[stMid], w)
		case f >= tailMinFreq:
			c.strata[stTail] = append(c.strata[stTail], w)
		}
	}
}

// writeBodies generates the articles ingest-mix writes: n fresh articles
// from a separate seed, with no control terms, so planted counts stay
// exact while documents come and go.
func writeBodies(n int, seed int64) ([]string, error) {
	cfg := synth.DefaultConfig()
	cfg.Articles = n
	cfg.Seed = seed
	gen, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate write bodies: %w", err)
	}
	out := make([]string, 0, n)
	for _, art := range gen.Root.Children {
		out = append(out, xmltree.XMLString(art))
	}
	return out, nil
}

// withMarker plants a document's unique marker word in a write body as a
// last paragraph, so the document's presence can be checked by searching
// for the marker.
func withMarker(body, m string) string {
	i := strings.LastIndex(body, "</article>")
	return body[:i] + "<p>" + m + "</p>" + body[i:]
}

// marker is the unique word of the i-th written document.
func marker(i int) string { return fmt.Sprintf("mk%06d", i) }
