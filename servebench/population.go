package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// family is one read request family; each has its own latency metric.
type family int

const (
	famTerms   family = iota // /terms, simple scoring
	famComplex               // /terms, complex scoring
	famPhrase                // /phrase
	famQuery                 // /query (extended XQuery)
	numFamilies
)

var familyNames = [numFamilies]string{"terms", "complex", "phrase", "query"}

// topK is the result size every ranked read asks for.
const topK = 10

// request is one read the load generator can send, with what its answer
// must satisfy.
type request struct {
	id      int // index in its population
	fam     family
	path    string
	body    []byte
	cell    int      // stratification cell
	terms   []string // terms or phrase words
	doc     string   // /query: the document the query names
	query   string   // /query: the query text
	want    int      // /phrase: exact expected count, or -1
	atLeast int      // /phrase: lower bound on the count (planted adjacencies)
}

// op is one scheduled operation: a read from the population or a write.
type op struct {
	read  *request
	write *writeOp
}

// writeKind names the three document mutations ingest-mix sends.
type writeKind int

const (
	writeAdd writeKind = iota
	writeUpdate
	writeDelete
)

var writeNames = [3]string{"add", "update", "delete"}

// writeOp is one mutation; seq orders writes, which are applied in
// sequence so update and delete targets are known to exist.
type writeOp struct {
	seq  int
	kind writeKind
	doc  int // index of the written document (its marker)
	name string
	xml  string // the document of an add or update
	body []byte
}

// popGen builds requests from the corpus strata.
type popGen struct {
	c   *corpus
	rng *rand.Rand
}

// cells enumerates the stratification cells: each family crossed with an
// ordered pair of term strata.
func cells(strata []stratum) [][3]int {
	var out [][3]int
	for f := family(0); f < numFamilies; f++ {
		for _, a := range strata {
			for _, b := range strata {
				out = append(out, [3]int{int(f), int(a), int(b)})
			}
		}
	}
	return out
}

func (g *popGen) term(s stratum) string {
	words := g.c.strata[s]
	return words[g.rng.Intn(len(words))]
}

// pair draws two distinct terms from strata a and b.
func (g *popGen) pair(a, b stratum) (string, string) {
	t1 := g.term(a)
	for {
		t2 := g.term(b)
		if t2 != t1 {
			return t1, t2
		}
	}
}

// build makes one request of a cell.
func (g *popGen) build(cell [3]int, id int) *request {
	fam, a, b := family(cell[0]), stratum(cell[1]), stratum(cell[2])
	t1, t2 := g.pair(a, b)
	r := &request{id: id, fam: fam, want: -1}
	switch fam {
	case famTerms, famComplex:
		r.path = "/terms"
		r.terms = []string{t1, t2}
		r.body = mustJSON(map[string]any{"terms": r.terms, "topK": topK, "complex": fam == famComplex})
	case famPhrase:
		r.path = "/phrase"
		r.terms, r.want, r.atLeast = g.phrase(a, b, t1, t2)
		r.body = mustJSON(map[string]any{"phrase": r.terms})
	case famQuery:
		r.path = "/query"
		r.doc = g.c.docs[g.rng.Intn(len(g.c.docs))].name
		r.terms = []string{t1, t2}
		r.query = fmt.Sprintf(`For $a in document(%q)//article/descendant-or-self::* `+
			`Score $a using ScoreFoo($a, {%q}, {%q}) Sortby(score) Threshold $a/@score stop after %d`,
			r.doc, t1, t2, topK)
		r.body = mustJSON(map[string]any{"query": r.query})
	}
	return r
}

// phrase picks the phrase of a /phrase request by its cell, so each cell
// holds one kind: a single word when both strata agree, whose count must
// equal the word's corpus frequency exactly (the generator's planted
// frequency for control terms); a planted phrase when the first stratum is
// the control one, whose count is at least its planted adjacencies; else
// two arbitrary words, usually with few or no matches.
func (g *popGen) phrase(a, b stratum, t1, t2 string) ([]string, int, int) {
	switch {
	case a == b:
		return []string{t1}, g.c.freq[t1], 0
	case a == stControl:
		ph := plantedPhrases[g.rng.Intn(len(plantedPhrases))]
		return []string{ph.T1, ph.T2}, -1, ph.Together
	}
	return []string{t1, t2}, -1, 0
}

// hotMaxPhrase bounds the result count of a hot-population phrase, so its
// cached answer fits one cache stripe.
const hotMaxPhrase = 2000

// acceptHot reports whether a request may join the hot population.
func (g *popGen) acceptHot(r *request) bool {
	if r.fam != famPhrase {
		return true
	}
	n := r.want
	if n < 0 {
		n = r.atLeast
		for _, t := range r.terms {
			// An arbitrary two-word phrase has at most as many matches as
			// its rarer word.
			if f := g.c.freq[t]; n == 0 || f < n {
				n = f
			}
		}
	}
	return n <= hotMaxPhrase
}

// hotPopulation draws n distinct requests over the four families from the
// mid, tail and control strata: no head words, and no phrase whose answer
// could outgrow a cache stripe, so the population warms quickly and fits
// the cache.
func hotPopulation(c *corpus, n int, seed int64) []*request {
	g := &popGen{c: c, rng: rand.New(rand.NewSource(seed))}
	cs := cells([]stratum{stMid, stTail, stControl})
	seen := map[string]bool{}
	var out []*request
	// Visit the cells in turn; a small cell (control words, planted
	// phrases) runs out of distinct requests and is skipped after a
	// bounded number of draws.
	for i := 0; len(out) < n; i++ {
		for tries := 0; tries < 64; tries++ {
			r := g.build(cs[i%len(cs)], len(out))
			key := r.path + string(r.body)
			if !seen[key] && g.acceptHot(r) {
				seen[key] = true
				out = append(out, r)
				break
			}
		}
	}
	// Shuffle so popularity ranks spread over families and cells; a
	// request's id is its rank.
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i, r := range out {
		r.id = i
	}
	return out
}

// coldPopulation builds up to perCell distinct requests for every cell
// over all four strata.
func coldPopulation(c *corpus, perCell int, seed int64) [][]*request {
	g := &popGen{c: c, rng: rand.New(rand.NewSource(seed))}
	cs := cells([]stratum{stHead, stMid, stTail, stControl})
	out := make([][]*request, len(cs))
	id := 0
	for i, cell := range cs {
		seen := map[string]bool{}
		// Small cells (control pairs) have fewer distinct requests than
		// perCell; they keep what a bounded number of draws finds.
		for tries := 0; len(out[i]) < perCell && tries < 20*perCell; tries++ {
			r := g.build(cell, id)
			r.cell = i
			if seen[string(r.body)] {
				continue
			}
			seen[string(r.body)] = true
			out[i] = append(out[i], r)
			id++
		}
		sort.SliceStable(out[i], func(a, b int) bool { return g.work(out[i][a]) < g.work(out[i][b]) })
	}
	return out
}

// work is a request's cost proxy: the postings its operator reads (both
// lists for a ranked search; the rarer list, which drives the seeks, for
// a two-word phrase).
func (g *popGen) work(r *request) int {
	f := make([]int, len(r.terms))
	for i, t := range r.terms {
		f[i] = g.c.freq[t]
	}
	switch {
	case len(f) == 1:
		return f[0]
	case r.fam == famPhrase:
		return min(f[0], f[1])
	}
	return f[0] + f[1]
}

// zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^s; unlike math/rand's Zipf it allows s = 1.
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(rng *rand.Rand, s float64, n int) *zipf {
	z := &zipf{cdf: make([]float64, n), rng: rng}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) next() int {
	return sort.SearchFloat64s(z.cdf, z.rng.Float64())
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings, numbers and bools are marshalled
	}
	return b
}
