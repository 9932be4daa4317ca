// Package db is one segment of the database — the stand-in for the Timber
// store and term index the paper ran on. A segment owns a document store,
// a live inverted index over it, its own persistence (the TIXDB2 segment
// snapshot) and the document mutation API. Queries reach a segment only
// through the facade in internal/shard, which reads through View: one
// pinned index snapshot plus the document table covering it.
package db

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/scoring"
	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
	"repro/internal/xq"
)

// DB is one segment: a store plus a live index. Reads take a View, which
// may be used concurrently with the mutation API (Add/Update/Delete):
// writers are serialized by the segment mutex, and a View is an immutable
// cut taken under it.
type DB struct {
	store *storage.Store
	tok   *tokenize.Tokenizer
	opts  Options

	mu   sync.Mutex  // serializes mutations, live-index creation and View
	live *index.Live // created on first View()/Index()/Warm()/mutation
}

// Options configures a segment.
type Options struct {
	// Stemming enables the light plural-stripping stemmer, which the
	// paper's worked examples assume (Figures 5–8 score "search engines"
	// as an occurrence of "search engine").
	Stemming bool
	// Stopwords, when non-empty, are dropped from the index (they still
	// consume word offsets so phrase adjacency is preserved).
	Stopwords []string
	// Metrics, when non-nil, receives the ingest instrumentation instead
	// of the process-wide metrics.Default registry.
	Metrics *metrics.Registry
	// Ingest tunes the live-index LSM behaviour (memtable seal size,
	// segment fold bound, background compaction). The zero value selects
	// the defaults; see index.LiveConfig.
	Ingest index.LiveConfig
}

// New creates an empty segment.
func New(opts Options) *DB {
	var tok *tokenize.Tokenizer
	switch {
	case len(opts.Stopwords) > 0:
		tok = tokenize.NewWithStopwords(opts.Stopwords)
	case opts.Stemming:
		tok = tokenize.NewStemming()
	default:
		tok = tokenize.New()
	}
	return &DB{store: storage.NewStore(), tok: tok, opts: opts}
}

// Store exposes the underlying node store.
func (d *DB) Store() *storage.Store { return d.store }

// MetricsRegistry returns the registry ingest metrics record into:
// Options.Metrics when set, else the process-wide metrics.Default.
func (d *DB) MetricsRegistry() *metrics.Registry {
	if d.opts.Metrics != nil {
		return d.opts.Metrics
	}
	return metrics.Default
}

// DocumentCount returns the number of live (non-deleted) documents
// without forcing index construction (the cheap health-probe counterpart
// of Stats).
func (d *DB) DocumentCount() int {
	d.mu.Lock()
	l := d.live
	d.mu.Unlock()
	n := d.store.NumDocs()
	if l != nil {
		n -= l.DeadCount()
	}
	return n
}

// Warm forces construction of every lazily-built structure (today: the
// inverted index), so that concurrent read-only use afterwards never
// triggers a build.
func (d *DB) Warm() { d.Index() }

// Tokenizer exposes the tokenizer documents are indexed with.
func (d *DB) Tokenizer() *tokenize.Tokenizer { return d.tok }

// Options returns a copy of the options the segment was created with.
func (d *DB) Options() Options { return d.opts }

// LoadTree loads an already-parsed tree under the given document name.
// Before the index is first built this is a plain store append (bulk
// loading stays cheap: one index build at the end); once a live index
// exists the document is additionally ingested into it incrementally.
func (d *DB) LoadTree(name string, root *xmltree.Node) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, err := d.store.AddTree(name, root)
	if err != nil {
		return err
	}
	if d.live != nil {
		if ierr := d.live.IndexDoc(d.store.Doc(id)); ierr != nil {
			return fmt.Errorf("db: index %s: %w", name, ierr)
		}
	}
	return nil
}

// LoadString parses and loads an XML document.
func (d *DB) LoadString(name, src string) error {
	root, err := xmltree.ParseString(src)
	if err != nil {
		return fmt.Errorf("db: load %s: %w", name, err)
	}
	return d.LoadTree(name, root)
}

// Index returns an immutable snapshot of the inverted index, building the
// live index on first use after a load. Snapshots are cached per mutation
// generation. Use View, not Index, to read documents alongside it.
func (d *DB) Index() *index.Index {
	return d.liveIndex().Snapshot()
}

// View is one consistent read cut of a segment: an index snapshot and
// the number of documents the store held when it was taken. Both are
// captured under the segment mutex, so every document id the snapshot
// names is below that count. The store's document table is append-only,
// so its first n entries never change: readers build their accessors
// from that prefix, never from the live table, and cannot pair a store
// and an index of different generations. Taking a view copies nothing;
// only the readers that resolve documents (Accessor, DocByName) pay for
// the prefix.
type View struct {
	Store *storage.Store
	Index *index.Index
	n     int
}

// View pins the current index snapshot and the document count covering
// it. An invariant violation during the initial index build panics,
// exactly as index.Build does; the facade recovers it into a classified
// error.
func (d *DB) View() View {
	d.mu.Lock()
	defer d.mu.Unlock()
	return View{Store: d.store, Index: d.liveLocked().Snapshot(), n: d.store.NumDocs()}
}

// Accessor returns an accounting accessor over the view's document table,
// attached to the guard's budget (a plain accessor for a nil guard).
func (v View) Accessor(g *exec.Guard) *storage.Accessor {
	return g.Attach(storage.NewTableAccessor(v.Store, v.Store.DocsPrefix(v.n)))
}

// Docs returns the documents visible in the view, in id order: the
// snapshot's live documents, none of them newer than the view's table.
func (v View) Docs() []*storage.Document {
	docs := v.Index.Docs()
	for len(docs) > 0 && int(docs[len(docs)-1].ID) >= v.n {
		docs = docs[:len(docs)-1]
	}
	return docs
}

// DocByName returns the document the view knows under name: the store's
// current binding when the view covers it, else — the name was re-bound
// by an Update after the view was taken — the newest version in the
// view's table.
func (v View) DocByName(name string) *storage.Document {
	if doc := v.Store.DocByName(name); doc == nil || int(doc.ID) < v.n {
		return doc
	}
	docs := v.Store.DocsPrefix(v.n)
	for i := len(docs) - 1; i >= 0; i-- {
		if docs[i].Name == name {
			return docs[i]
		}
	}
	return nil
}

// Engine returns an extended-XQuery engine reading through the view.
func (v View) Engine(g *exec.Guard, stats *storage.AccessStats) *xq.Engine {
	return &xq.Engine{Store: v.Store, Index: v.Index, Stats: stats, Guard: g, Docs: v}
}

// QueryLimited parses and evaluates an extended-XQuery query over one
// view of this segment, with segment-local document ids in the results.
// It has no cache, metrics or panic recovery: the shard facade adds
// those.
func (d *DB) QueryLimited(ctx context.Context, src string, limits exec.Limits) ([]xq.Result, error) {
	return d.View().Engine(exec.NewGuard(ctx, limits), nil).EvalString(src)
}

// liveIndex returns the live (mutable) index, creating it over the
// store's current contents on first use.
func (d *DB) liveIndex() *index.Live {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.liveLocked()
}

func (d *DB) liveLocked() *index.Live {
	if d.live == nil {
		l, err := index.NewLive(d.store, d.tok, d.opts.Ingest)
		if err != nil {
			panic(err)
		}
		d.live = l
	}
	return d.live
}

// Stats summarizes the segment contents.
type Stats struct {
	Documents   int
	Nodes       int
	Elements    int
	Terms       int
	Occurrences int64
}

// Stats returns summary statistics (forces index construction). The
// numbers describe the index snapshot's visible corpus: documents hidden
// behind tombstones are excluded.
func (d *DB) Stats() Stats {
	idx := d.Index()
	st := Stats{
		Terms:       idx.NumTerms(),
		Occurrences: idx.TotalOccurrences(),
	}
	for _, doc := range idx.Docs() {
		st.Documents++
		st.Nodes += len(doc.Nodes)
		st.Elements += len(doc.Elements())
	}
	return st
}

// TermSearchOptions configures a term search.
type TermSearchOptions struct {
	// Complex selects the complex scoring function of Sec. 6.1.
	Complex bool
	// Enhanced uses the child-count index (Enhanced TermJoin); only
	// meaningful with Complex.
	Enhanced bool
	// TopK limits results to the k best scores (0 = all).
	TopK int
	// MinScore drops elements whose score is not strictly greater than
	// the given value (the Threshold operator's V condition; 0 = keep
	// all). Applied before TopK, so the k results are the k best above
	// the threshold.
	MinScore float64
	// Weights per term (defaults to 1 each).
	Weights []float64
	// Limits is the per-call resource budget; the zero value falls back
	// to the facade's default.
	Limits exec.Limits
}

// SimilarityJoinSpec describes a Query 3-style IR join: components of the
// left document scored against query phrases, joined with right-document
// elements by text similarity between LeftKey and RightKey children, with
// root scores combined by ScoreBar.
type SimilarityJoinSpec struct {
	LeftDoc, RightDoc   string
	LeftRoot, RightRoot string // element tags bound on each side
	LeftKey, RightKey   string // tags of the similarity-compared children
	Primary, Secondary  []string
	// PickThreshold applies PickFoo-style pruning to the scored left
	// components before joining (0 disables).
	PickThreshold float64
	// MinSim drops pairs whose similarity score is not above the given
	// value (the Threshold simScore > 1 step of Query 3).
	MinSim float64
}

// JoinedResult is one similarity-join result.
type JoinedResult struct {
	// Score is the combined ScoreBar(simScore, componentScore).
	Score float64
	// Sim is the title-similarity component.
	Sim float64
	// Component is the scored left-side component subtree.
	Component *xmltree.Node
	// ComponentScore is its IR score.
	ComponentScore float64
	// Right is the joined right-side element subtree.
	Right *xmltree.Node
}

// SimilarityJoin evaluates a Query 3-style join between two documents of
// this segment through the TIX algebra, best-first. The algebra path
// evaluates over xmltree values in one non-streaming pass, so it has no
// accounting accessor and no cancellation points.
func (d *DB) SimilarityJoin(spec SimilarityJoinSpec) ([]JoinedResult, error) {
	left := d.store.DocByName(spec.LeftDoc)
	right := d.store.DocByName(spec.RightDoc)
	if left == nil || right == nil {
		return nil, fmt.Errorf("db: similarity join needs both documents loaded")
	}

	p := pattern.NewPattern(1)
	l := p.Root.Child(2, pattern.AD)
	l.Child(3, pattern.PC)
	l.Child(6, pattern.ADStar)
	r := p.Root.Child(7, pattern.AD)
	r.Child(8, pattern.PC)
	p.Formula = pattern.Conj(
		pattern.TagEq(1, algebra.ProdRootTag),
		pattern.TagEq(2, spec.LeftRoot),
		pattern.TagEq(3, spec.LeftKey),
		pattern.IsElement(6),
		pattern.TagEq(7, spec.RightRoot),
		pattern.TagEq(8, spec.RightKey),
	)
	scores := &algebra.ScoreSet{
		Primary: map[int]algebra.NodeScorer{
			6: func(n *xmltree.Node) float64 {
				return scoring.ScoreFoo(d.tok, n, spec.Primary, spec.Secondary)
			},
		},
		Join: map[string]algebra.JoinScorer{
			"simScore": func(b pattern.Binding) float64 {
				return scoring.ScoreSim(d.tok, b[3], b[8])
			},
		},
		Secondary: map[int]algebra.ScoreExpr{
			2: algebra.VarScore(6),
			1: func(e algebra.ScoreEnv) float64 {
				return scoring.ScoreBar(e.Named["simScore"], e.Var[6])
			},
		},
	}
	joined := algebra.Join(
		algebra.FromXML(left.Root), algebra.FromXML(right.Root), p, scores)

	var out []JoinedResult
	for _, w := range joined.SortByRootScore() {
		comp := w.NodesOfVar(6)[0]
		compScore, _ := w.Score(comp)
		rootScore := w.RootScore()
		sim := 0.0
		if compScore > 0 {
			sim = rootScore - compScore
		}
		if spec.MinSim > 0 && sim <= spec.MinSim {
			continue
		}
		if rootScore <= 0 {
			continue
		}
		if spec.PickThreshold > 0 && compScore < spec.PickThreshold {
			continue
		}
		rightN := w.NodesOfVar(7)[0]
		out = append(out, JoinedResult{
			Score:          rootScore,
			Sim:            sim,
			Component:      comp.Origin(),
			ComponentScore: compScore,
			Right:          rightN.Origin(),
		})
	}
	return out, nil
}
