package main

import (
	"sort"
	"time"
)

// traceReq is one traced request with its spans.
type traceReq struct {
	s        sample
	server   *span  // the handler span
	main     *span  // the fleet call: the read, or the mutation
	mat      int64  // ns in fleet Materialize/NameOf calls
	replicas []span // replica calls: read attempts (hedges, retries), or the per-replica mutation
	winner   *span  // the first successful read attempt
	hit      int8   // the winner's cache outcome: 1 hit, 0 miss, -1 unknown
	warm     bool   // from the traced warm-up pass, not the timed phase
}

// assemble groups spans by request. Spans without a request id —
// Materialize/NameOf and mutations, which take no context — go to the
// request whose handler window contains them: a mutation to the write
// being handled (writes are applied one at a time), a materialization to
// the read between the end of its fleet call and the end of its handler.
// At most conns handlers run at once; a materialization inside two
// windows is split evenly between them.
func assemble(spans []span, warm, traced []sample) map[uint64]*traceReq {
	reqs := map[uint64]*traceReq{}
	for i, set := range [][]sample{warm, traced} {
		for _, s := range set {
			if s.req != 0 {
				reqs[s.req] = &traceReq{s: s, hit: -1, warm: i == 0}
			}
		}
	}
	var orphans []span
	for i := range spans {
		sp := &spans[i]
		r := reqs[sp.Req]
		if r == nil {
			if sp.Req == 0 {
				orphans = append(orphans, *sp)
			}
			continue
		}
		switch sp.Layer {
		case layerServer:
			r.server = sp
		case layerFleet:
			r.main = sp
		case layerReplica:
			r.replicas = append(r.replicas, *sp)
		}
	}

	// Handler windows, by start time.
	type window struct {
		start, end int64
		r          *traceReq
	}
	var reads, writes []window
	for _, r := range reqs {
		if r.server == nil {
			continue
		}
		if r.s.op.write != nil {
			writes = append(writes, window{r.server.Start, r.server.End, r})
		} else if r.main != nil {
			reads = append(reads, window{r.main.End, r.server.End, r})
		}
	}
	byStart := func(ws []window) {
		sort.Slice(ws, func(i, j int) bool { return ws[i].start < ws[j].start })
	}
	byStart(reads)
	byStart(writes)
	containing := func(ws []window, sp span) []*traceReq {
		i := sort.Search(len(ws), func(i int) bool { return ws[i].start > sp.Start })
		var out []*traceReq
		for j := i - 1; j >= 0 && j >= i-2*conns; j-- {
			if ws[j].start <= sp.Start && sp.End <= ws[j].end {
				out = append(out, ws[j].r)
			}
		}
		return out
	}
	for _, sp := range orphans {
		if sp.Op == "materialize" {
			in := containing(reads, sp)
			for _, r := range in {
				r.mat += sp.dur() / int64(len(in))
			}
			continue
		}
		for _, r := range containing(writes, sp) {
			if sp.Layer == layerFleet {
				cp := sp
				r.main = &cp
			} else {
				r.replicas = append(r.replicas, sp)
			}
		}
	}

	for _, r := range reqs {
		if r.s.op.read == nil {
			continue
		}
		for i := range r.replicas {
			sp := &r.replicas[i]
			if !sp.Err && (r.winner == nil || sp.End < r.winner.End) {
				r.winner = sp
			}
		}
		if r.winner != nil {
			r.hit = r.winner.Hit
		}
	}
	return reqs
}

// complete reports whether a request has the spans its rollup needs.
func (r *traceReq) complete() bool {
	if r.server == nil || r.main == nil || r.s.failed {
		return false
	}
	return r.s.op.write != nil || r.winner != nil
}

// shareLayers are the layers request time is split over, in reporting
// order; "unattributed" is the remainder.
var shareLayers = []string{"http", "server", "materialize", "fleet", "rescache", "shard", "db", "xq", "exec", "postings", "unattributed"}

// split attributes one request's client-observed service time to layers
// as self time: each layer's span minus the part its children cover. A
// hit's replica time is the cache's. A replayed miss's replica time is
// split in the proportions of its ladder — facade minus slowest segment
// (shard), segment minus operator (db for /query's Segment(i) call; shard
// for the /terms and /phrase workers, whose only work besides the
// operator is the id rewrite), operator minus posting walk (exec or xq),
// walk (postings) — each rung clamped to the one above. Replica time of a
// miss without a replay stays unattributed.
func (r *traceReq) split(l *ladder) map[string]int64 {
	out := map[string]int64{}
	total := int64(r.s.service())
	h, b := r.server.dur(), r.main.dur()
	out["http"] = max(0, total-h)
	if r.s.op.write != nil {
		var sum int64
		for _, sp := range r.replicas {
			sum += sp.dur()
		}
		sum = min(sum, b)
		out["server"] = max(0, h-b)
		out["fleet"] = b - sum
		out["db"] = sum
	} else {
		w := min(r.winner.dur(), b)
		out["server"] = max(0, h-b-r.mat)
		out["materialize"] = min(r.mat, max(0, h-b))
		out["fleet"] = max(0, b-w-r.winner.ProbeNs)
		switch {
		case r.hit == 1:
			out["rescache"] = w
		case l != nil:
			// The live replica call ran under load, the replays alone: the
			// live time is split in the proportions of the replayed rungs.
			c := l.critical()
			f := l.facade
			seg := min(l.seg[c], f)
			op := l.op[c]
			if l.fam == famQuery {
				op += l.parse
			}
			op = min(op, seg)
			post := min(l.walk[c], op)
			scale := func(ns int64) int64 { return int64(float64(ns) * float64(w) / float64(f)) }
			out["shard"] = scale(f - seg)
			if l.fam == famQuery {
				out["db"] = scale(seg - op)
			} else {
				out["shard"] += scale(seg - op)
			}
			out["postings"] = scale(post)
			if l.fam == famQuery {
				out["xq"] = scale(op - post)
			} else {
				out["exec"] = scale(op - post)
			}
		}
	}
	var attributed int64
	for _, v := range out {
		attributed += v
	}
	out["unattributed"] = total - attributed
	return out
}

// report turns the traced run's spans, ladders and replays into the
// per-layer metrics.
func (ls *layerStats) report(rep *report, reqs map[uint64]*traceReq, sampled []*traceReq) {
	var serverSelf, materialize, respBytes, fleetSelf, hitUs, keyUs, writeUs []float64
	var replicaCalls, reads int
	for _, r := range reqs {
		if !r.complete() || r.warm {
			continue
		}
		serverSelf = append(serverSelf, us64(time.Duration(max(0, r.server.dur()-r.main.dur()-r.mat))))
		respBytes = append(respBytes, float64(r.server.Bytes))
		if r.s.op.write != nil {
			for _, sp := range r.replicas {
				writeUs = append(writeUs, us64(time.Duration(sp.dur())))
			}
			continue
		}
		reads++
		replicaCalls += len(r.replicas)
		if f := r.s.op.read.fam; f != famQuery {
			materialize = append(materialize, us64(time.Duration(r.mat)))
		}
		fleetSelf = append(fleetSelf, us64(time.Duration(max(0, r.main.dur()-r.winner.dur()-r.winner.ProbeNs))))
		if r.hit == 1 {
			hitUs = append(hitUs, us64(time.Duration(r.winner.dur())))
		}
		if r.hit >= 0 {
			keyUs = append(keyUs, us64(time.Duration(r.winner.KeyNs)))
		}
	}
	rep.add("server.self_p50_us", "us", quantile(serverSelf, 0.5))
	rep.add("server.self_p99_us", "us", quantile(serverSelf, 0.99))
	rep.add("server.materialize_p50_us", "us", quantile(materialize, 0.5))
	rep.add("server.resp_bytes_p50", "B", quantile(respBytes, 0.5))
	rep.add("fleet.self_p50_us", "us", quantile(fleetSelf, 0.5))
	rep.add("fleet.replica_calls_per_req", "ratio", ratio(float64(replicaCalls), float64(reads)))
	rep.add("rescache.hit_p50_us", "us", quantile(hitUs, 0.5))
	rep.add("rescache.key_p50_us", "us", quantile(keyUs, 0.5))

	// The ladders: shard fan-out and skew need the live replica span.
	var fanout, skew, dbRead, dbOver, tj, tjc, phr, parse, eval, walkUs, storeNodes, storeNav, storeText []float64
	var walkNs, postings, emitted, returned int64
	for _, l := range ls.wins {
		fanout = append(fanout, us64(time.Duration(max(0, l.facade-l.seg[l.critical()]))))
		if len(l.seg) > 1 {
			var sum float64
			for _, v := range l.seg {
				sum += float64(v)
			}
			skew = append(skew, float64(l.seg[l.critical()])/(sum/float64(len(l.seg))))
		}
		for i, v := range l.seg {
			// Only /query calls the Segment(i) facade on the served path.
			if l.fam == famQuery {
				dbRead = append(dbRead, ms64(time.Duration(v)))
				dbOver = append(dbOver, us64(time.Duration(max(0, v-l.op[i]-l.parse))))
			}
			switch l.fam {
			case famTerms:
				tj = append(tj, ms64(time.Duration(l.op[i])))
			case famComplex:
				tjc = append(tjc, ms64(time.Duration(l.op[i])))
			case famPhrase:
				phr = append(phr, ms64(time.Duration(l.op[i])))
			case famQuery:
				eval = append(eval, ms64(time.Duration(l.op[i])))
			}
			walkUs = append(walkUs, us64(time.Duration(l.walk[i])))
			walkNs += l.walk[i]
		}
		if l.fam == famQuery {
			parse = append(parse, us64(time.Duration(l.parse)))
		}
		postings += l.postings
		emitted += int64(l.emitted)
		returned += int64(l.returned)
		if l.fam != famPhrase {
			storeNodes = append(storeNodes, float64(l.acc.NodeReads))
			storeNav = append(storeNav, float64(l.acc.NavSteps))
			storeText = append(storeText, float64(l.acc.TextReads))
		}
	}
	rep.add("shard.fanout_p50_us", "us", quantile(fanout, 0.5))
	rep.add("shard.skew_p50", "ratio", quantile(skew, 0.5))
	rep.add("db.read_p50_ms", "ms", quantile(dbRead, 0.5))
	rep.add("db.overhead_p50_us", "us", quantile(dbOver, 0.5))
	rep.add("xq.parse_p50_us", "us", quantile(parse, 0.5))
	rep.add("xq.eval_p50_ms", "ms", quantile(eval, 0.5))
	rep.add("exec.termjoin_p50_ms", "ms", quantile(tj, 0.5))
	rep.add("exec.termjoin_complex_p50_ms", "ms", quantile(tjc, 0.5))
	rep.add("exec.phrase_p50_ms", "ms", quantile(phr, 0.5))
	rep.add("exec.matches_per_result", "ratio", ratio(float64(emitted), float64(returned)))
	rep.add("postings.walk_p50_us", "us", quantile(walkUs, 0.5))
	rep.add("postings.per_query", "count", ratio(float64(postings), float64(len(ls.wins))))
	rep.add("postings.ns_per_posting", "ns", ratio(float64(walkNs), float64(postings)))
	rep.add("storage.node_reads_per_query", "count", mean(storeNodes))
	rep.add("storage.nav_steps_per_query", "count", mean(storeNav))
	rep.add("storage.text_reads_per_query", "count", mean(storeText))
	rep.add("index.backlog_max", "count", float64(ls.backlogMax))
	rep.add("index.bytes_per_posting", "B", ls.bytesPer)
	rep.add("index.bitmap_terms", "count", float64(ls.bitmaps))
	if rep.b.w.writeEvery > 0 {
		rep.add("db.write_p50_us", "us", quantile(writeUs, 0.5))
		rep.add("index.snapshot_p50_ms", "ms", quantile(ls.snapshotMs, 0.5))
		rep.add("xmltree.parse_p50_us", "us", quantile(ls.parseUs, 0.5))
		rep.add("tokenize.doc_p50_us", "us", quantile(ls.tokenizeUs, 0.5))
	}

	// Shares of request time, over the sampled traced requests.
	sums := map[string]int64{}
	var total int64
	for _, r := range sampled {
		parts := r.split(ls.wins[r.s.req])
		for k, v := range parts {
			sums[k] += v
		}
		total += int64(r.s.service())
	}
	for _, layer := range shareLayers {
		rep.add("share."+layer+"_pct", "%", 100*ratio(float64(sums[layer]), float64(total)))
	}
}
