package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/scoring"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/xq"
)

// Replay layers, from the replica facade down.
const (
	layerShard    = "shard"    // the replica facade call, its cache purged; and each shard worker
	layerDB       = "db"       // Segment(i) facade call (/query only)
	layerExec     = "exec"     // the operator over the segment's Index() and accessor
	layerXQ       = "xq"       // xq.Parse plus evaluation over the segment
	layerPostings = "postings" // full cursor walk of the request's posting lists
)

// ladder is one request replayed one layer lower at a time: the replica
// facade with its cache purged (the fan-out), then on every segment it
// touched what the facade runs there, the operator (or, for /query,
// xq.Parse and evaluation) alone, and a full walk of the posting lists it
// reads. For /terms and /phrase the facade runs a shard worker on each
// segment — the exec operator over Index() with a guarded accessor, then
// the rewrite to global document ids — and never calls the Segment(i)
// facade; only /query goes through Segment(i).QueryLimited. Every rung
// runs alone, after the timed phases and after one untimed facade call.
type ladder struct {
	fam       family
	facade    int64   // ns in the replica facade call
	segs      []int   // segments the request fans out to
	seg       []int64 // ns per segment: shard worker, or Segment(i) call for /query
	op        []int64 // ns per operator run (exec, or xq evaluation)
	walk      []int64 // ns per posting-list walk
	parse     int64   // ns in xq.Parse (/query)
	postings  int64   // postings walked, all segments
	emitted   int     // operator emissions before top-k
	returned  int     // results after top-k
	acc       storage.AccessStats
	failedErr error // a replay failed or panicked
}

// critical returns the index (into segs) of the slowest segment call.
func (l *ladder) critical() int {
	c := 0
	for i, v := range l.seg {
		if v > l.seg[c] {
			c = i
		}
	}
	return c
}

// globalIDs rebuilds each segment's local-to-global document id table,
// the one the shard workers rewrite their results through, from the
// public name lookups.
func globalIDs(d *shard.DB) [][]storage.DocID {
	global := map[string]storage.DocID{}
	for g := 0; g < d.AllocatedDocIDs(); g++ {
		if name := d.DocName(storage.DocID(g)); name != "" {
			global[name] = storage.DocID(g)
		}
	}
	out := make([][]storage.DocID, d.Shards())
	for i := range out {
		for _, doc := range d.Segment(i).Store().Docs() {
			for int(doc.ID) >= len(out[i]) {
				out[i] = append(out[i], 0)
			}
			out[i][doc.ID] = global[doc.Name]
		}
	}
	return out
}

// replay runs the ladder for one read on replica d, whose segments map
// their document ids to global ones through ids. The shard worker rungs
// mirror shard.DB's: Store() then Index(), one guard on a cancellable
// context with the replicas' zero limits, accessors attached to it. A
// panic in any step is recorded as a failed replay.
func replay(d *shard.DB, ids [][]storage.DocID, r *request, t *tracer, req uint64) (l *ladder) {
	l = &ladder{fam: r.fam}
	defer func() {
		if p := recover(); p != nil {
			l.failedErr = fmt.Errorf("replay panicked: %v", p)
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	segs := make([]int, 0, d.Shards())
	if r.fam == famQuery {
		i, ok := d.ShardOf(r.doc)
		if !ok {
			l.failedErr = fmt.Errorf("document %s not loaded", r.doc)
			return l
		}
		segs = append(segs, i)
	} else {
		for i := 0; i < d.Shards(); i++ {
			segs = append(segs, i)
		}
	}
	l.segs = segs
	mark := func(layer, op string, i int, start time.Time) int64 {
		ns := int64(time.Since(start))
		if t != nil {
			end := t.now()
			t.add(span{Req: req, Layer: layer, Op: op, Replica: i, Start: end - ns, End: end})
		}
		return ns
	}
	name := familyNames[r.fam]
	// Purging makes the facade call a miss; the run's cache metrics are
	// read before the replays. One untimed call first warms the CPU caches
	// for the request's data, so the facade rung is not the only cold one.
	d.ResultCache().Purge()
	if err := direct(ctx, d, r); err != nil {
		l.failedErr = err
		return l
	}
	d.ResultCache().Purge()
	start := time.Now()
	if err := direct(ctx, d, r); err != nil {
		l.failedErr = err
		return l
	}
	l.facade = mark(layerShard, name, 0, start)
	// One guard for all segments, as the facade shares one across its
	// workers.
	guard := exec.NewGuard(ctx, exec.Limits{})
	for _, i := range segs {
		seg := d.Segment(i)
		var idx *index.Index
		var err error
		switch r.fam {
		case famTerms, famComplex:
			worker := time.Now()
			acc := guard.NewAccessor(seg.Store())
			idx = seg.Index()
			tj := &exec.TermJoin{
				Index: idx,
				Acc:   acc,
				Query: exec.TermQuery{Terms: r.terms, Complex: r.fam == famComplex, Scorer: exec.DefaultScorer{
					SimpleFn: scoring.SimpleScorer{}, ComplexFn: scoring.ComplexScorer{},
				}},
				ChildCounts: exec.ChildCountNavigate,
				Guard:       guard,
			}
			tk := exec.NewTopK(topK)
			emit := tk.Emit()
			start = time.Now()
			err = tj.Run(func(n exec.ScoredNode) { l.emitted++; emit(n) })
			out := tk.Results()
			l.op = append(l.op, mark(layerExec, name, i, start))
			for j := range out {
				out[j].Doc = ids[i][out[j].Doc]
			}
			l.seg = append(l.seg, mark(layerShard, "worker", i, worker))
			l.returned += len(out)
			l.acc.Add(acc.Stats)
		case famPhrase:
			worker := time.Now()
			idx = seg.Index()
			pf := &exec.PhraseFinder{Index: idx, Phrase: r.terms, Guard: guard}
			start = time.Now()
			var out []exec.PhraseMatch
			out, err = exec.CollectPhrase(pf.Run)
			l.op = append(l.op, mark(layerExec, name, i, start))
			for j := range out {
				out[j].Doc = ids[i][out[j].Doc]
			}
			l.seg = append(l.seg, mark(layerShard, "worker", i, worker))
		case famQuery:
			start = time.Now()
			_, err = seg.QueryLimited(ctx, r.query, exec.Limits{})
			l.seg = append(l.seg, mark(layerDB, name, i, start))
			if err != nil {
				break
			}
			idx = seg.Index()
			start = time.Now()
			var q *xq.Query
			q, err = xq.Parse(r.query)
			l.parse = mark(layerXQ, "parse", i, start)
			if err == nil {
				start = time.Now()
				e := &xq.Engine{Store: seg.Store(), Index: idx, Stats: &l.acc, Guard: exec.NewGuard(ctx, exec.Limits{})}
				_, err = e.Eval(q)
				l.op = append(l.op, mark(layerXQ, "eval", i, start))
			}
		}
		if err != nil {
			l.failedErr = err
			return l
		}

		start = time.Now()
		l.postings += walk(idx, r.terms)
		l.walk = append(l.walk, mark(layerPostings, name, i, start))
	}
	return l
}

// walk decodes every posting of the terms' lists with a cursor and returns
// how many it read.
func walk(idx *index.Index, terms []string) int64 {
	var n int64
	tok := idx.Tokenizer()
	for _, term := range terms {
		for c := idx.List(tok.Normalize(term)).Cursor(); c.Valid(); c.Advance() {
			n++
		}
	}
	return n
}
