package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/rescache"
	"repro/internal/scoring"
	"repro/internal/storage"
	"repro/internal/xmltree"
	"repro/internal/xq"
)

// shardFailure is the first worker failure of one fan-out, latched so
// every caller observes the same root cause: when one shard trips a fault
// the fan-out cancels the rest, and their ErrCanceled follow-on errors
// must not mask the fault that started it.
type shardFailure struct {
	shard int
	err   error
}

// view pins segment i's read view and the local-to-global id table. The
// table is read after the view: routed mutations extend it before the
// segment publishes the document, so it covers every id the view names.
func (s *DB) view(i int) (db.View, []storage.DocID) {
	v := s.segs[i].View()
	ids := s.globalIDs(i)
	if s.afterView != nil {
		s.afterView(i)
	}
	return v, ids
}

// runShards executes fn once per segment on its own goroutine, each over
// the segment's pinned view, and waits for all of them. A worker panic
// (an injected storage fault, an operator bug) is contained and
// classified; the first failure latches and, via cancel, aborts the
// remaining workers cooperatively through the shared guard. Per-worker
// latency and failures are recorded under the op label.
func (s *DB) runShards(op string, cancel context.CancelFunc, fn func(i int, v db.View, ids []storage.DocID) error) error {
	reg := s.MetricsRegistry()
	var wg sync.WaitGroup
	var first atomic.Pointer[shardFailure]
	for i := range s.segs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			var err error
			defer func() {
				if r := recover(); r != nil {
					err = panicError(r)
				}
				lbl := fmt.Sprintf(`{op=%q,shard="%d"}`, op, i)
				reg.Histogram("tix_shard_seconds" + lbl).Observe(time.Since(start).Seconds())
				if err != nil {
					reg.Counter("tix_shard_errors_total" + lbl).Inc()
					if first.CompareAndSwap(nil, &shardFailure{shard: i, err: err}) && cancel != nil {
						cancel()
					}
				}
			}()
			v, ids := s.view(i)
			err = fn(i, v, ids)
		}(i)
	}
	wg.Wait()
	if f := first.Load(); f != nil {
		return fmt.Errorf("shard: shard %d: %w", f.shard, f.err)
	}
	return nil
}

// fanoutCtx derives the context a fan-out's shared guard watches: always
// cancelable, so the first worker failure stops the other shards within
// one check interval.
func fanoutCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithCancel(ctx)
}

// sumStats totals the workers' access statistics.
func sumStats(stats []storage.AccessStats) storage.AccessStats {
	var total storage.AccessStats
	for _, st := range stats {
		total.Add(st)
	}
	return total
}

// rankGlobal runs one worker's scoring operator and returns its run in
// exec.RankedBefore order. Every emission is rewritten to its global
// document id before it is ranked: an Update gives a document a fresh,
// larger local id under its old global one, so local order is not global
// order, and both the sort and a top-k tie at the k boundary must be
// decided on global ids.
func rankGlobal(run func(exec.Emit) error, ids []storage.DocID, topK int, minScore float64) ([]exec.ScoredNode, error) {
	wrap := func(emit exec.Emit) exec.Emit {
		if minScore > 0 {
			emit = exec.FilterMinScore(minScore, emit)
		}
		return func(n exec.ScoredNode) {
			n.Doc = ids[n.Doc]
			emit(n)
		}
	}
	if topK > 0 {
		tk := exec.NewTopK(topK)
		err := run(wrap(tk.Emit()))
		return tk.Results(), err
	}
	out, err := exec.Collect(func(emit exec.Emit) error { return run(wrap(emit)) })
	exec.SortRanked(out)
	return out, err
}

// TermSearch scores every element containing at least one of the terms,
// fanning the TermJoin out across shards, and returns results best-first
// under the exec.RankedBefore contract.
func (s *DB) TermSearch(terms []string, opts db.TermSearchOptions) ([]exec.ScoredNode, error) {
	return s.TermSearchContext(context.Background(), terms, opts)
}

// TermSearchContext is TermSearch with cooperative cancellation and
// resource budgets shared across the shard workers. With TopK set, the
// limit is pushed down — each shard retains its own k best — and the
// merger re-thresholds to the global k, which is exact because any
// globally top-k element is in its shard's top k.
func (s *DB) TermSearchContext(ctx context.Context, terms []string, opts db.TermSearchOptions) (results []exec.ScoredNode, err error) {
	start := time.Now()
	per := make([][]exec.ScoredNode, len(s.segs))
	stats := make([]storage.AccessStats, len(s.segs))
	defer func() { s.observe(opTerms, start, len(results), sumStats(stats), err) }()
	eff := s.limitsOr(opts.Limits)
	if c, tok, ok := s.queryCache(); ok {
		key := rescache.TermKey(tok, terms, rescache.TermOpts{
			Complex: opts.Complex, TopK: opts.TopK, MinScore: opts.MinScore,
			Weights: opts.Weights, Limits: eff,
		})
		if hit, found := rescache.GetSlice[exec.ScoredNode](c, key); found {
			results = hit
			return results, nil
		}
		// Registered before recoverPanic so a recovered panic reaches err
		// first and poisoned results are never cached.
		defer func() {
			if err == nil {
				rescache.PutSlice(c, key, results)
			}
		}()
	}
	defer recoverPanic(&err)
	cctx, cancel := fanoutCtx(ctx)
	defer cancel()
	guard := exec.NewGuard(cctx, eff)
	mode := exec.ChildCountNavigate
	if opts.Enhanced {
		mode = exec.ChildCountIndexed
	}
	q := exec.TermQuery{
		Terms:   terms,
		Complex: opts.Complex,
		Scorer: exec.DefaultScorer{
			SimpleFn:  scoring.SimpleScorer{Weights: opts.Weights},
			ComplexFn: scoring.ComplexScorer{Weights: opts.Weights},
		},
	}
	err = s.runShards(opTerms, cancel, func(i int, v db.View, ids []storage.DocID) error {
		acc := v.Accessor(guard)
		tj := &exec.TermJoin{Index: v.Index, Acc: acc, Query: q, ChildCounts: mode, Guard: guard}
		out, rerr := rankGlobal(tj.Run, ids, opts.TopK, opts.MinScore)
		stats[i] = acc.Stats
		per[i] = out
		return rerr
	})
	if err != nil {
		return nil, err
	}
	results = mergeRanked(per)
	if opts.TopK > 0 && len(results) > opts.TopK {
		results = results[:opts.TopK]
	}
	return results, nil
}

// Method selects the access method RunTermMethod fans out — the paper's
// Table 1–4 columns.
type Method string

// The sharded term access methods.
const (
	MethodTermJoin         Method = "TermJoin"
	MethodEnhancedTermJoin Method = "EnhTermJoin"
	MethodComp1            Method = "Comp1"
	MethodComp2            Method = "Comp2"
	MethodGenMeet          Method = "GenMeet"
)

// RunTermMethod executes one term access method — TermJoin, the Enhanced
// variant, or the Comp1/Comp2/GenMeet baselines — per shard in parallel
// and returns the merged results under the RankedBefore contract. It is
// the benchmark and differential-test entry point; TermSearchContext is
// the production facade.
func (s *DB) RunTermMethod(ctx context.Context, method Method, terms []string, complex bool) (results []exec.ScoredNode, err error) {
	start := time.Now()
	per := make([][]exec.ScoredNode, len(s.segs))
	stats := make([]storage.AccessStats, len(s.segs))
	defer func() { s.observe(opTerms, start, len(results), sumStats(stats), err) }()
	defer recoverPanic(&err)
	cctx, cancel := fanoutCtx(ctx)
	defer cancel()
	guard := exec.NewGuard(cctx, s.opts.Limits)
	q := exec.TermQuery{Terms: terms, Complex: complex, Scorer: exec.DefaultScorer{}}
	err = s.runShards(opTerms, cancel, func(i int, v db.View, ids []storage.DocID) error {
		acc := v.Accessor(guard)
		var runner interface{ Run(exec.Emit) error }
		switch method {
		case MethodTermJoin:
			runner = &exec.TermJoin{Index: v.Index, Acc: acc, Query: q, ChildCounts: exec.ChildCountNavigate, Guard: guard}
		case MethodEnhancedTermJoin:
			runner = &exec.TermJoin{Index: v.Index, Acc: acc, Query: q, ChildCounts: exec.ChildCountIndexed, Guard: guard}
		case MethodComp1:
			runner = &exec.Comp1{Index: v.Index, Acc: acc, Query: q, Guard: guard}
		case MethodComp2:
			runner = &exec.Comp2{Index: v.Index, Acc: acc, Query: q, Guard: guard}
		case MethodGenMeet:
			runner = &exec.GenMeet{Index: v.Index, Acc: acc, Query: q, Guard: guard}
		default:
			return fmt.Errorf("shard: unknown term method %q", method)
		}
		out, rerr := rankGlobal(runner.Run, ids, 0, 0)
		stats[i] = acc.Stats
		per[i] = out
		return rerr
	})
	if err != nil {
		return nil, err
	}
	results = mergeRanked(per)
	return results, nil
}

// PhraseSearch returns every occurrence of the phrase via per-shard
// PhraseFinders, merged into (document, position) order — the same order
// a single-segment PhraseFinder emits.
func (s *DB) PhraseSearch(phrase []string) ([]exec.PhraseMatch, error) {
	return s.PhraseSearchContext(context.Background(), phrase)
}

// PhraseSearchContext is PhraseSearch with cooperative cancellation and
// the shared default resource limits.
func (s *DB) PhraseSearchContext(ctx context.Context, phrase []string) (ms []exec.PhraseMatch, err error) {
	start := time.Now()
	per := make([][]exec.PhraseMatch, len(s.segs))
	// PhraseFinder verifies adjacency from word offsets alone and never
	// reads the node store, so a phrase search records no store accesses.
	defer func() { s.observe(opPhrase, start, len(ms), storage.AccessStats{}, err) }()
	if c, tok, ok := s.queryCache(); ok {
		key := rescache.PhraseKey(tok, phrase, s.opts.Limits)
		if hit, found := rescache.GetSlice[exec.PhraseMatch](c, key); found {
			ms = hit
			return ms, nil
		}
		defer func() {
			if err == nil {
				rescache.PutSlice(c, key, ms)
			}
		}()
	}
	defer recoverPanic(&err)
	cctx, cancel := fanoutCtx(ctx)
	defer cancel()
	guard := exec.NewGuard(cctx, s.opts.Limits)
	err = s.runShards(opPhrase, cancel, func(i int, v db.View, ids []storage.DocID) error {
		pf := &exec.PhraseFinder{Index: v.Index, Phrase: phrase, Guard: guard}
		out, rerr := exec.CollectPhrase(pf.Run)
		if rerr != nil {
			return rerr
		}
		for j := range out {
			out[j].Doc = ids[out[j].Doc]
		}
		// Local order is global order until an Update renumbers a
		// document; only then does the run need re-sorting.
		less := func(a, b int) bool { return phraseBefore(out[a], out[b]) }
		if !sort.SliceIsSorted(out, less) {
			sort.Slice(out, less)
		}
		per[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	ms = mergePhrase(per)
	return ms, nil
}

// TwigRef identifies one twig-match root element by position: the global
// document id and the element's start ordinal within it. Unlike
// materialized tree pointers, refs are comparable across databases
// holding the same documents — the identity the differential suites join
// on.
type TwigRef struct {
	Doc storage.DocID
	Ord int32
}

// TwigRefsContext runs the holistic twig join (TwigStack) for a
// structural tag pattern per shard in parallel and returns the pattern
// root's bindings, deduplicated, in global document order. Use exec.Twig
// / exec.TwigChild to build the pattern.
func (s *DB) TwigRefsContext(ctx context.Context, pattern *exec.TwigNode) (out []TwigRef, err error) {
	start := time.Now()
	per := make([][]TwigRef, len(s.segs))
	stats := make([]storage.AccessStats, len(s.segs))
	defer func() { s.observe(opTwig, start, len(out), sumStats(stats), err) }()
	defer recoverPanic(&err)
	cctx, cancel := fanoutCtx(ctx)
	defer cancel()
	guard := exec.NewGuard(cctx, s.opts.Limits)
	err = s.runShards(opTwig, cancel, func(i int, v db.View, ids []storage.DocID) error {
		var refs []TwigRef
		for _, doc := range v.Docs() {
			ts := &exec.TwigStack{Store: v.Store, Doc: doc.ID, Root: pattern, Guard: guard}
			matches, terr := ts.Run()
			stats[i].Add(ts.Stats)
			if terr != nil {
				return terr
			}
			seen := map[int32]bool{}
			for _, m := range matches {
				root := m[0]
				if seen[root] {
					continue
				}
				seen[root] = true
				refs = append(refs, TwigRef{Doc: ids[doc.ID], Ord: root})
			}
		}
		// A document's matches stay together and in order; only the
		// documents themselves may need reordering after an Update.
		less := func(a, b int) bool { return refs[a].Doc < refs[b].Doc }
		if !sort.SliceIsSorted(refs, less) {
			sort.SliceStable(refs, less)
		}
		per[i] = refs
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = mergeTwigRefs(per)
	return out, nil
}

// TwigSearchContext is TwigRefsContext with the matches materialized as
// subtrees, in global document order.
func (s *DB) TwigSearchContext(ctx context.Context, pattern *exec.TwigNode) ([]*xmltree.Node, error) {
	refs, err := s.TwigRefsContext(ctx, pattern)
	if err != nil {
		return nil, err
	}
	out := make([]*xmltree.Node, 0, len(refs))
	for _, ref := range refs {
		if n := s.Materialize(ref.Doc, ref.Ord); n != nil {
			out = append(out, n)
		}
	}
	return out, nil
}

// ErrCrossShard reports a query whose documents resolve to more than one
// shard; the join shapes evaluate inside a single segment, so such
// queries must be routed to a co-resident layout.
var ErrCrossShard = errors.New("shard: query references documents on different shards")

// routeDocs returns the shard owning every named document (shard 0 when
// no name is given).
func (s *DB) routeDocs(names ...string) (int, error) {
	shard := -1
	for _, name := range names {
		if name == "" {
			continue
		}
		owner, ok := s.ShardOf(name)
		if !ok {
			return 0, fmt.Errorf("shard: document %q not loaded", name)
		}
		if shard == -1 {
			shard = owner
		} else if owner != shard {
			return 0, ErrCrossShard
		}
	}
	return max(shard, 0), nil
}

// routeQuery parses src and returns the query with the shard owning every
// document it references.
func (s *DB) routeQuery(src string) (*xq.Query, int, error) {
	q, err := xq.Parse(src)
	if err != nil {
		return nil, 0, err
	}
	names := make([]string, 0, len(q.Fors))
	for _, f := range q.Fors {
		names = append(names, f.Path.Document)
	}
	i, err := s.routeDocs(names...)
	return q, i, err
}

// evalRouted evaluates a parsed query over the view of its owning shard
// and rewrites the results to global document ids.
func (s *DB) evalRouted(ctx context.Context, q *xq.Query, i int, limits exec.Limits, stats *storage.AccessStats) ([]xq.Result, error) {
	v, ids := s.view(i)
	results, err := v.Engine(exec.NewGuard(ctx, limits), stats).Eval(q)
	if err != nil {
		return nil, err
	}
	for j := range results {
		results[j].Doc = ids[results[j].Doc]
	}
	return results, nil
}

// Query parses and evaluates an extended-XQuery query against the shard
// owning its documents. Results carry global document ids.
func (s *DB) Query(src string) ([]xq.Result, error) {
	return s.QueryContext(context.Background(), src)
}

// QueryContext is Query with cooperative cancellation and the default
// resource limits.
func (s *DB) QueryContext(ctx context.Context, src string) ([]xq.Result, error) {
	return s.QueryLimited(ctx, src, s.opts.Limits)
}

// QueryLimited is QueryContext with an explicit per-call resource budget.
func (s *DB) QueryLimited(ctx context.Context, src string, limits exec.Limits) (results []xq.Result, err error) {
	start := time.Now()
	var stats storage.AccessStats
	defer func() { s.observe(opQuery, start, len(results), stats, err) }()
	eff := s.limitsOr(limits)
	if c, tok, ok := s.queryCache(); ok {
		key := rescache.QueryKey(tok, src, eff)
		if hit, found := rescache.GetSlice[xq.Result](c, key); found {
			results = hit
			return results, nil
		}
		defer func() {
			if err == nil {
				rescache.PutSlice(c, key, results)
			}
		}()
	}
	defer recoverPanic(&err)
	q, i, err := s.routeQuery(src)
	if err != nil {
		return nil, err
	}
	results, err = s.evalRouted(ctx, q, i, eff, &stats)
	return results, err
}

// QueryRenderedContext evaluates a query on its owning shard and renders
// each result through the query's Return template (or the canonical
// <result> shape when the query has none).
func (s *DB) QueryRenderedContext(ctx context.Context, src string) (rendered []string, results []xq.Result, err error) {
	start := time.Now()
	var stats storage.AccessStats
	defer func() { s.observe(opQuery, start, len(results), stats, err) }()
	defer recoverPanic(&err)
	q, i, err := s.routeQuery(src)
	if err != nil {
		return nil, nil, err
	}
	results, err = s.evalRouted(ctx, q, i, s.opts.Limits, &stats)
	if err != nil {
		return nil, nil, err
	}
	rendered = make([]string, len(results))
	for j, r := range results {
		rendered[j] = q.Render(r)
	}
	return rendered, results, nil
}

// Explain renders the physical plan for a query on its owning shard
// without executing it.
func (s *DB) Explain(src string) (plan string, err error) {
	start := time.Now()
	defer func() { s.observe(opExplain, start, 0, storage.AccessStats{}, err) }()
	defer recoverPanic(&err)
	_, i, err := s.routeQuery(src)
	if err != nil {
		return "", err
	}
	v, _ := s.view(i)
	plan, err = v.Engine(nil, nil).Explain(src)
	return plan, err
}

// SimilarityJoin evaluates a Query 3-style join on the shard holding both
// documents, best-first.
func (s *DB) SimilarityJoin(spec db.SimilarityJoinSpec) ([]db.JoinedResult, error) {
	return s.SimilarityJoinContext(context.Background(), spec)
}

// SimilarityJoinContext is SimilarityJoin with panic recovery and an
// up-front cancellation check. The algebra path evaluates over xmltree
// values in one non-streaming pass, so cancellation is only observed at
// entry; use the extended-XQuery join shape (QueryContext) for
// cooperatively cancellable joins.
func (s *DB) SimilarityJoinContext(ctx context.Context, spec db.SimilarityJoinSpec) (results []db.JoinedResult, err error) {
	start := time.Now()
	defer func() { s.observe(opJoin, start, len(results), storage.AccessStats{}, err) }()
	defer recoverPanic(&err)
	if cerr := ctx.Err(); cerr != nil {
		if errors.Is(cerr, context.DeadlineExceeded) {
			return nil, exec.ErrDeadlineExceeded
		}
		return nil, exec.ErrCanceled
	}
	i, err := s.routeDocs(spec.LeftDoc, spec.RightDoc)
	if err != nil {
		return nil, err
	}
	results, err = s.segs[i].SimilarityJoin(spec)
	return results, err
}
