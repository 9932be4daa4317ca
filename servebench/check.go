package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"repro/internal/server"
)

// checker verifies every answer the load generator receives.
type checker struct {
	c *corpus
	// exactWords: single-word phrase counts must equal the corpus
	// frequency. With ingestion, written documents add background words,
	// so only the planted control terms stay exact.
	exactWords bool

	mu sync.Mutex
	// first holds the hash of each hot-population request's first,
	// uncached answer; later answers must hash identically. Nil when
	// answers may legitimately change (ingest-mix).
	first map[int]uint64
	// Ingestion state: writes apply in order, so each acknowledgement's
	// document count and generation are known.
	docs    int
	gen     uint64
	added   int
	deleted map[int]bool
	live    map[int]bool
}

func newChecker(c *corpus) *checker {
	return &checker{c: c, exactWords: true, docs: len(c.docs), deleted: map[int]bool{}, live: map[int]bool{}}
}

// record stores the first answer of a population request.
func (k *checker) record(r *request, body []byte) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.first == nil {
		k.first = map[int]uint64{}
	}
	k.first[r.id] = hash(body)
}

func hash(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}

// read checks one read answer: against its recorded first answer when
// there is one, else by the structural rules of its family.
func (k *checker) read(r *request, body []byte) error {
	k.mu.Lock()
	want, ok := k.first[r.id]
	k.mu.Unlock()
	if ok {
		if hash(body) != want {
			return fmt.Errorf("%s %s: answer differs from its first, uncached answer", r.path, r.body)
		}
		return nil
	}
	if err := k.structure(r, body); err != nil {
		return fmt.Errorf("%s %s: %w", r.path, r.body, err)
	}
	return nil
}

// docExists reports whether (doc, ord) names a node: initial documents are
// numbered in load order and their node counts are known; written
// documents take the ids after them.
func (k *checker) docExists(doc, ord int32) bool {
	if doc < 0 || ord < 0 {
		return false
	}
	if int(doc) < len(k.c.docs) {
		return int(ord) < k.c.docs[doc].nodes
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return int(doc) < len(k.c.docs)+k.added
}

func (k *checker) structure(r *request, body []byte) error {
	switch r.fam {
	case famTerms, famComplex:
		var resp struct {
			Count   int                 `json:"count"`
			Results []server.TermResult `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Count != len(resp.Results) || len(resp.Results) > topK {
			return fmt.Errorf("%d results (count %d), want at most top-%d", len(resp.Results), resp.Count, topK)
		}
		for i, res := range resp.Results {
			if i > 0 && res.Score > resp.Results[i-1].Score {
				return fmt.Errorf("score increases at rank %d", i)
			}
			if !k.docExists(res.Doc, res.Ord) || res.Tag == "" {
				return fmt.Errorf("result %d names no node: doc %d ord %d tag %q", i, res.Doc, res.Ord, res.Tag)
			}
		}
	case famPhrase:
		var resp struct {
			Count   int                   `json:"count"`
			Results []server.PhraseResult `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if err := k.phraseCount(r, resp.Count); err != nil {
			return err
		}
		if len(resp.Results) > min(resp.Count, 100) {
			return fmt.Errorf("%d results for count %d", len(resp.Results), resp.Count)
		}
		for i, res := range resp.Results {
			if i > 0 {
				prev := resp.Results[i-1]
				if res.Doc < prev.Doc || (res.Doc == prev.Doc && res.Pos <= prev.Pos) {
					return fmt.Errorf("matches out of (doc, pos) order at %d", i)
				}
			}
			if !k.docExists(res.Doc, res.Node) || !strings.Contains(res.Text, r.terms[0]) {
				return fmt.Errorf("match %d does not hold %q: doc %d node %d", i, r.terms[0], res.Doc, res.Node)
			}
		}
	case famQuery:
		var resp struct {
			Count   int                  `json:"count"`
			Results []server.QueryResult `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Count != len(resp.Results) || resp.Count > topK {
			return fmt.Errorf("%d results (count %d), want at most %d", len(resp.Results), resp.Count, topK)
		}
		for i, res := range resp.Results {
			if i > 0 && res.Score > resp.Results[i-1].Score {
				return fmt.Errorf("score increases at rank %d", i)
			}
			if res.Tag == "" || !strings.HasPrefix(res.XML, "<"+res.Tag) {
				return fmt.Errorf("result %d is not an element: tag %q", i, res.Tag)
			}
		}
	}
	return nil
}

// phraseCount checks a phrase's match count: a single word's count is its
// corpus frequency (planted words exactly so, always); a planted phrase
// has at least its planted adjacencies.
func (k *checker) phraseCount(r *request, got int) error {
	if r.want >= 0 {
		exact := k.exactWords || k.c.planted[r.terms[0]] > 0
		if got != r.want && (exact || got < r.want) {
			return fmt.Errorf("count %d, want %d", got, r.want)
		}
	}
	if got < r.atLeast {
		return fmt.Errorf("count %d, want at least %d planted", got, r.atLeast)
	}
	return nil
}

// write checks a mutation's acknowledgement: writes apply in order, so
// the live-document count after each is known, and the generation must
// advance.
func (k *checker) write(w *writeOp, body []byte) error {
	var ack server.IngestResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("%s %s: %w", writeNames[w.kind], w.name, err)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	switch w.kind {
	case writeAdd:
		k.docs++
		k.added++
		k.live[w.doc] = true
	case writeDelete:
		k.docs--
		delete(k.live, w.doc)
		k.deleted[w.doc] = true
	}
	if ack.Name != w.name || ack.Documents != k.docs || ack.Generation <= k.gen {
		return fmt.Errorf("%s %s: acknowledged %+v, want %d documents and a generation above %d",
			writeNames[w.kind], w.name, ack, k.docs, k.gen)
	}
	k.gen = ack.Generation
	return nil
}
