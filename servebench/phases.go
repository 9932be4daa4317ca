package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/rescache"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// tracedShare is the share of a traced run's time in each of its two
// open-loop phases, untraced and traced.
const tracedShare = 0.5

// untraced measures the end-to-end metrics: an open-loop phase at the
// workload's rate, then a closed-loop phase on the same connections. Each
// timed phase starts right after a forced GC, so the collector's cycles
// fall at the same points of the phase in every run: the hot path
// allocates enough that GC sets the latency tail.
func (b *bench) untraced() (*report, error) {
	runtime.GC()
	open := b.cl.openLoop(b.stream(2).take(b.openOps(b.w.open)), b.w.rate)
	runtime.GC()
	fleetBefore := b.fleetCounters()
	closed, elapsed := b.cl.closedLoop(b.stream(3).next, b.phase(1-b.w.open))
	fleetAfter := b.fleetCounters()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	rep := newReport(b)
	rep.addSamples(b.warmSamples, open, closed)
	rep.add("setup_s", "s", median(seconds(b.setups)))
	rep.add("live_heap_mb", "MiB", float64(ms.HeapAlloc)/(1<<20))
	rep.add("peak_ops_per_s", "ops/s", float64(succeeded(closed))/elapsed.Seconds())
	reads, writes := split(open)
	rep.add("read_p50_ms", "ms", quantile(latencyMs(reads), 0.5))
	rep.add("read_p99_ms", "ms", quantile(latencyMs(reads), 0.99))
	// Family medians are service times (send to last byte): a cheap read
	// queued behind an expensive one on a busy connection would otherwise
	// carry that one's cost, and the families would move together.
	for f := family(0); f < numFamilies; f++ {
		rep.add(familyNames[f]+"_p50_ms", "ms", quantile(serviceMs(ofFamily(reads, f)), 0.5))
	}
	if b.w.writeEvery > 0 {
		rep.add("write_p50_ms", "ms", quantile(latencyMs(writes), 0.5))
		rep.add("write_p99_ms", "ms", quantile(latencyMs(writes), 0.99))
		rep.add("error_rate", "ratio", ratio(float64(rep.failed), float64(rep.attempted)))
	}
	logf("open loop: %d reads, %d writes; closed loop: %d ops in %.2fs, %d hedges, %d retries",
		len(reads), len(writes), len(closed), elapsed.Seconds(), fleetAfter[0]-fleetBefore[0], fleetAfter[2]-fleetBefore[2])
	return rep, nil
}

func (b *bench) phase(share float64) time.Duration {
	return time.Duration(share * b.o.seconds * float64(time.Second))
}

// openOps is the operation count of an open-loop phase. Cold phases send
// whole blocks of the cell cycle, so every run sends every cell equally
// often.
func (b *bench) openOps(share float64) int {
	n := max(1, int(b.w.rate*share*b.o.seconds))
	if b.w.cold {
		block := len(b.coldPop)
		n = max(block, n/block*block)
	}
	return n
}

// traced measures the per-layer metrics: an untraced open-loop phase
// (counters, runtime and the overhead baseline), then the same schedule
// traced, then ladder replays of the traced misses.
func (b *bench) traced() (*report, error) {
	rep := newReport(b)
	var before, after runtime.MemStats
	cacheBefore := b.cacheStats()
	fleetBefore := b.fleetCounters()
	runtime.GC()
	runtime.ReadMemStats(&before)
	plain := b.cl.openLoop(b.stream(2).take(b.openOps(tracedShare)), b.w.rate)
	runtime.ReadMemStats(&after)
	cacheAfter := b.cacheStats()
	fleetAfter := b.fleetCounters()

	b.tr.on.Store(true)
	b.cl.traced = true
	var layers layerStats
	b.cl.onWrite = layers.afterWrite(b)
	runtime.GC()
	traced := b.cl.openLoop(b.stream(3).take(b.openOps(tracedShare)), b.w.rate)
	b.cl.traced = false
	b.cl.onWrite = nil
	spans := b.tr.take()

	rep.addSamples(b.warmSamples, plain, traced)
	plainReads, _ := split(plain)
	tracedReads, _ := split(traced)

	// Runtime and counters, from the untraced phase.
	ops := float64(len(plain))
	rep.add("go.allocs_per_op", "count", float64(after.Mallocs-before.Mallocs)/ops)
	rep.add("go.bytes_per_op", "B", float64(after.TotalAlloc-before.TotalAlloc)/ops)
	rep.add("go.gc_cycles", "count", float64(after.NumGC-before.NumGC))
	rep.add("go.gc_pause_max_ms", "ms", maxPauseMs(&before, &after))
	rep.add("client.lateness_p99_ms", "ms", quantile(latenessMs(plain), 0.99))
	p50plain := quantile(latencyMs(plainReads), 0.5)
	p50traced := quantile(latencyMs(tracedReads), 0.5)
	rep.add("trace.overhead_pct", "%", 100*(p50traced-p50plain)/p50plain)
	rep.add("server.shed", "count", float64(countStatus(plain, 429, 503)+countStatus(traced, 429, 503)))
	hedges, wins, retries := fleetAfter[0]-fleetBefore[0], fleetAfter[1]-fleetBefore[1], fleetAfter[2]-fleetBefore[2]
	rep.add("fleet.hedges", "count", float64(hedges))
	rep.add("fleet.hedge_win_ratio", "ratio", ratio(float64(wins), float64(hedges)))
	rep.add("fleet.retries", "count", float64(retries))
	hits, misses := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
	rep.add("rescache.hit_rate", "ratio", ratio(float64(hits), float64(hits+misses)))
	rep.add("rescache.genmiss", "count", float64(cacheAfter.GenMiss-cacheBefore.GenMiss))
	rep.add("rescache.evictions", "count", float64(cacheAfter.Evictions-cacheBefore.Evictions))
	rep.add("rescache.bytes", "B", float64(cacheAfter.Bytes))

	// Spans of the traced phase and of the traced warm-up pass.
	reqs := assemble(spans, b.warmSamples, traced)
	sampled := layers.ladders(b, reqs, traced)
	layers.indexStats(b)
	layers.writeBodies(traced)
	layers.report(rep, reqs, sampled)

	spans = append(spans, b.tr.take()...) // with the replays' spans
	path := filepath.Join(".bench_build", "spans", b.w.name+".jsonl")
	if err := dumpSpans(path, spans); err != nil {
		return nil, err
	}
	logf("%d spans dumped to %s", len(spans), path)
	return rep, nil
}

// cacheStats sums the replicas' cache counters.
func (b *bench) cacheStats() rescache.Stats {
	var sum rescache.Stats
	for _, d := range b.st.replicas {
		st := d.ResultCache().Stats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.GenMiss += st.GenMiss
		sum.Evictions += st.Evictions
		sum.Bytes += st.Bytes
	}
	return sum
}

// fleetCounters reads the fleet's hedge, hedge-win and retry counters
// over every operation.
func (b *bench) fleetCounters() [3]int64 {
	var out [3]int64
	for _, op := range []string{"terms", "phrase", "query"} {
		lbl := `{op="` + op + `"}`
		out[0] += b.st.reg.Counter("tix_fleet_hedges_total" + lbl).Value()
		out[1] += b.st.reg.Counter("tix_fleet_hedge_wins_total" + lbl).Value()
		out[2] += b.st.reg.Counter("tix_fleet_retries_total" + lbl).Value()
	}
	return out
}

// maxPauseMs is the longest GC pause among the cycles that ended between
// the two snapshots.
func maxPauseMs(before, after *runtime.MemStats) float64 {
	var worst uint64
	n := after.NumGC - before.NumGC
	if n > uint32(len(after.PauseNs)) {
		n = uint32(len(after.PauseNs))
	}
	for i := uint32(0); i < n; i++ {
		if p := after.PauseNs[(after.NumGC-1-i)%uint32(len(after.PauseNs))]; p > worst {
			worst = p
		}
	}
	return float64(worst) / 1e6
}

// checkIngest verifies the end state of ingest-mix: the live-document
// count is the initial count plus adds minus deletes, every surviving
// written document is found by its marker, and no deleted one is.
func (b *bench) checkIngest(rep *report) {
	k := b.check
	k.mu.Lock()
	want := k.docs
	live := make([]int, 0, len(k.live))
	for d := range k.live {
		live = append(live, d)
	}
	var deleted []int
	for d := range k.deleted {
		deleted = append(deleted, d)
	}
	k.mu.Unlock()
	var buf bytes.Buffer
	fail := func(format string, args ...any) {
		rep.endFailures = append(rep.endFailures, fmt.Sprintf(format, args...))
	}
	if got := b.st.fleet.DocumentCount(); got != want {
		fail("%d live documents, want %d initial + adds - deletes", got, want)
	}
	probe := func(doc, want int) {
		r := &request{fam: famPhrase, path: "/phrase", terms: []string{marker(doc)}, want: -1}
		r.body = mustJSON(map[string]any{"phrase": r.terms})
		s := b.cl.send(0, op{read: r}, &buf, time.Now(), 0)
		var resp struct {
			Count int `json:"count"`
		}
		switch {
		case s.failed:
			fail("marker of document %d: %s", doc, s.errText)
		case json.Unmarshal(buf.Bytes(), &resp) != nil || resp.Count != want:
			fail("marker of document %d found %d times, want %d", doc, resp.Count, want)
		}
	}
	for _, d := range live {
		probe(d, 1)
	}
	for _, d := range deleted {
		probe(d, 0)
	}
	logf("ingest end state: %d documents, %d written documents live, %d deleted", want, len(live), len(deleted))
}

// ---- per-layer metrics ----------------------------------------------

// layerStats gathers the per-layer samples of a traced run.
type layerStats struct {
	snapshotMs []float64 // Segment(i).Index() right after a write
	backlogMax int
	wins       map[uint64]*ladder // request id -> its replay
	parseUs    []float64          // xmltree parse of write bodies
	tokenizeUs []float64          // tokenization of write bodies
	bytesPer   float64
	bitmaps    int
}

// afterWrite returns the hook the client runs after each acknowledged
// write: time publishing the new index snapshot on every segment of the
// first replica, and sample the fleet's compaction backlog.
func (ls *layerStats) afterWrite(b *bench) func(*writeOp) {
	d := b.st.replicas[0]
	return func(*writeOp) {
		var worst time.Duration
		for i := 0; i < d.Shards(); i++ {
			start := time.Now()
			d.Segment(i).Index()
			worst = max(worst, time.Since(start))
		}
		ls.snapshotMs = append(ls.snapshotMs, ms64(worst))
		ls.backlogMax = max(ls.backlogMax, b.st.fleet.CompactionBacklog())
	}
}

// maxLadders bounds the replays of a traced run, which happen after the
// traced phase and so add to its wall time.
const maxLadders = 160

// ladders picks every k-th traced operation as the sample the time shares
// are computed over, with k chosen so at most maxLadders/2 of the sample
// are misses, and replays the sampled misses plus every fourth read of the
// traced warm-up pass (all misses) up to maxLadders. It returns the
// sample.
func (ls *layerStats) ladders(b *bench, reqs map[uint64]*traceReq, traced []sample) []*traceReq {
	ls.wins = map[uint64]*ladder{}
	miss := func(r *traceReq) bool { return r != nil && r.complete() && r.s.op.read != nil && r.hit == 0 }
	misses := 0
	for _, s := range traced {
		if miss(reqs[s.req]) {
			misses++
		}
	}
	k := max(1, (misses+maxLadders/2-1)/(maxLadders/2))
	var sampled, replays []*traceReq
	for i := 0; i < len(traced); i += k {
		if r := reqs[traced[i].req]; r != nil && r.complete() {
			sampled = append(sampled, r)
			if miss(r) {
				replays = append(replays, r)
			}
		}
	}
	for i := 0; i < len(b.warmSamples) && len(replays) < maxLadders; i += 4 {
		if r := reqs[b.warmSamples[i].req]; miss(r) {
			replays = append(replays, r)
		}
	}
	d := b.st.replicas[0]
	ids := globalIDs(d)
	for _, r := range replays {
		l := replay(d, ids, r.s.op.read, b.tr, r.s.req)
		if l.failedErr != nil {
			logf("replay of %s %s: %v", r.s.op.read.path, r.s.op.read.body, l.failedErr)
			continue
		}
		ls.wins[r.s.req] = l
	}
	logf("%d ladder replays; %d of %d traced operations sampled for time shares (%d misses)",
		len(ls.wins), len(sampled), len(traced), misses)
	return sampled
}

// indexStats reads the first replica's postings footprint.
func (ls *layerStats) indexStats(b *bench) {
	d := b.st.replicas[0]
	var postings, bytes int64
	for i := 0; i < d.Shards(); i++ {
		ms := d.Segment(i).Index().MemStats()
		postings += ms.Postings
		bytes += ms.EncodedBytes
		ls.bitmaps += ms.BitmapTerms
	}
	ls.bytesPer = ratio(float64(bytes), float64(postings))
}

// writeBodies replays the parse and tokenization of the traced phase's
// write bodies.
func (ls *layerStats) writeBodies(traced []sample) {
	tok := tokenize.NewStemming()
	for _, s := range traced {
		if s.op.write == nil || s.op.write.xml == "" {
			continue
		}
		start := time.Now()
		root, err := xmltree.ParseString(s.op.write.xml)
		ls.parseUs = append(ls.parseUs, us64(time.Since(start)))
		if err != nil {
			continue
		}
		start = time.Now()
		root.Walk(func(n *xmltree.Node) bool {
			if n.Kind == xmltree.Text {
				tok.Tokenize(n.Text)
			}
			return true
		})
		ls.tokenizeUs = append(ls.tokenizeUs, us64(time.Since(start)))
	}
}
