// Command servebench is the repository's benchmark: it drives the served
// stack — loopback HTTP → server → fleet (2 replicas) → shard.DB (2
// segments each) → db segments — with one of three traffic mixes over an
// INEX-like corpus, checks every answer, and prints every metric by name
// with its unit, ending with one JSON line.
//
//	bash servebench/run.sh --workload hot-cached --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// wraps each layer boundary in a span-recording decorator (trace.go),
// replays cache misses one layer lower at a time (ladder.go) and reports
// the per-layer metrics. See README.md for the metric table.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/shard"
)

// workload is one traffic mix.
type workload struct {
	name string
	rate float64 // open-loop rate, ops/s
	// open is the share of an untraced run's time in the open-loop phase;
	// the closed-loop phase gets the rest.
	open float64
	cold bool // reads from the large stratified population
	// writeEvery makes every k-th operation a write (0 = read-only).
	writeEvery int
}

var workloads = []workload{
	{name: "hot-cached", rate: 400, open: 0.5},
	{name: "cold-ranked", rate: 25, open: 0.7, cold: true},
	{name: "ingest-mix", rate: 60, open: 0.6, writeEvery: 5},
}

// Workload sizes.
const (
	hotSize     = 512  // hot population
	hotZipfS    = 1.0  // popularity skew over the hot population
	corpusDocs  = 5000 // single-article documents in the corpus
	coldPerCell = 64   // cold population: requests per (family, strata pair) cell
	writePool   = 256  // distinct write bodies, reused with fresh markers
)

type options struct {
	workload   string
	seed       int64
	corpusSeed int64
	seconds    float64
	trace      int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "hot-cached", "traffic mix: hot-cached, cold-ranked or ingest-mix")
	flag.Int64Var(&o.seed, "seed", 1, "request-stream seed: which requests are sent, in which order")
	flag.Int64Var(&o.corpusSeed, "corpus-seed", 42, "corpus and population seed (43 is the re-check seed)")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured time per run, split over the run's phases")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
}

// run executes one benchmark run and reports whether every answer was
// correct. An error means the run could not be made at all.
func run(o options) (bool, error) {
	var w workload
	for _, cand := range workloads {
		if cand.name == o.workload {
			w = cand
		}
	}
	if w.name == "" {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return false, fmt.Errorf("need positive --seconds")
	}
	logf("workload %s, stream seed %d, corpus seed %d, %g s, trace %d", w.name, o.seed, o.corpusSeed, o.seconds, o.trace)

	start := time.Now()
	c, err := generateCorpus(corpusDocs, o.corpusSeed)
	if err != nil {
		return false, err
	}
	logf("corpus: %d documents, %d nodes, %d words, %.1f MB of XML (%.1fs)",
		len(c.docs), c.nodes, c.words, float64(c.bytes)/1e6, time.Since(start).Seconds())

	b := &bench{o: o, w: w, c: c, cl: newClient(), check: newChecker(c)}
	defer b.cl.close()
	if w.cold {
		b.coldPop = coldPopulation(c, coldPerCell, o.corpusSeed+1)
	} else {
		b.hotPop = hotPopulation(c, hotSize, o.corpusSeed+1)
	}
	if w.writeEvery > 0 {
		bodies, err := writeBodies(writePool, o.corpusSeed+2)
		if err != nil {
			return false, err
		}
		b.plan = &writePlan{rng: rand.New(rand.NewSource(o.seed + 1)), bodies: bodies}
		b.check.exactWords = false
		b.cl.writes = newWriteSeq()
	}
	b.cl.check = b.check
	if o.trace == 1 {
		b.tr = newTracer()
	}
	if err := b.setup(); err != nil {
		return false, err
	}
	defer func() {
		if err := b.st.close(); err != nil {
			logf("shutdown: %v", err)
		}
	}()
	if err := b.warm(); err != nil {
		return false, err
	}
	var rep *report
	if o.trace == 1 {
		rep, err = b.traced()
	} else {
		rep, err = b.untraced()
	}
	if err != nil {
		return false, err
	}
	if w.writeEvery > 0 {
		b.checkIngest(rep)
	}
	rep.print(os.Stdout)
	return rep.correct(), nil
}

// bench holds one run's state.
type bench struct {
	o       options
	w       workload
	c       *corpus
	cl      *client
	check   *checker
	tr      *tracer
	hotPop  []*request
	coldPop [][]*request
	plan    *writePlan
	st      *stack
	setups  []time.Duration
	// warmSamples are the warm-up's operations: the hot population's
	// first answers, or the cold warm-up reads.
	warmSamples []sample
}

// setups is how many times an untraced run sets the stack up; setup_s is
// the median.
const setups = 3

// setup builds the stack setups times (once when traced), keeping the
// last, and records each set-up time: from handing over the generated
// XML to /readyz answering ready.
func (b *bench) setup() error {
	n := setups
	if b.tr != nil {
		n = 1
	}
	for i := 0; i < n; i++ {
		runtime.GC()
		st, d, err := buildStack(b.c, b.tr, b.cl.http[0])
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.setups = append(b.setups, d)
		logf("setup %d: %.3fs", i+1, d.Seconds())
		if i < n-1 {
			if err := st.close(); err != nil {
				return fmt.Errorf("setup teardown: %w", err)
			}
			b.cl.close()
			continue
		}
		b.st = st
		b.cl.base = st.base
	}
	// The replicas hold the corpus now; drop the generated XML so it does
	// not count in the live heap.
	for i := range b.c.docs {
		b.c.docs[i].xml = ""
	}
	return nil
}

// stream returns a fresh operation stream for the workload; the salt
// keeps the warm-up and each phase on their own draws of the one seed.
func (b *bench) stream(salt int64) *stream {
	rng := rand.New(rand.NewSource(b.o.seed*1000 + salt))
	s := &stream{rng: rng, every: b.w.writeEvery, plan: b.plan}
	if b.w.cold {
		s.read = coldReads(b.coldPop)
	} else {
		s.read = hotReads(b.hotPop, hotZipfS, rand.New(rand.NewSource(b.o.seed*1000+salt+500)))
	}
	return s
}

// warm brings the stack to its steady state before timing.
func (b *bench) warm() error {
	start := time.Now()
	if b.w.cold {
		if err := b.fillCaches(); err != nil {
			return err
		}
		// Warm connections and the fleet's per-replica latency
		// histograms on reads of the same mix: the hedge delay adapts to
		// their p95 only past 20 samples per replica, and until then
		// every read slower than the 25ms floor is hedged.
		b.warmSamples = b.cl.openLoop(b.stream(1).take(int(4*b.w.rate)), b.w.rate)
	} else if err := b.warmHot(); err != nil {
		return err
	}
	logf("warm-up: %.1fs", time.Since(start).Seconds())
	return nil
}

// warmHot sends every hot-population request once over HTTP on the empty
// caches, checks and records each first, uncached answer, then loads the
// population into every replica's cache directly, so both replicas hit.
func (b *bench) warmHot() error {
	if b.tr != nil {
		b.tr.on.Store(true)
		b.cl.traced = true
	}
	var buf bytes.Buffer
	for _, r := range b.hotPop {
		s := b.cl.send(0, op{read: r}, &buf, time.Now(), 0)
		b.warmSamples = append(b.warmSamples, s)
		if !s.failed && b.w.writeEvery == 0 {
			b.check.record(r, buf.Bytes())
		}
	}
	if b.tr != nil {
		b.tr.on.Store(false)
		b.cl.traced = false
	}
	ctx := context.Background()
	for i, d := range b.st.replicas {
		for _, r := range b.hotPop {
			if err := direct(ctx, d, r); err != nil {
				return fmt.Errorf("warm replica %d: %w", i, err)
			}
		}
		st := d.ResultCache().Stats()
		if st.Entries < int64(len(b.hotPop)) || st.Evictions > 0 {
			return fmt.Errorf("replica %d cache holds %d of %d hot requests (%d evictions, %d bytes of %d): the budget must hold the population",
				i, st.Entries, len(b.hotPop), st.Evictions, st.Bytes, int64(cacheBytes))
		}
	}
	return nil
}

// direct issues a request to a replica facade with exactly the arguments
// the server passes, so it is cached under the same key.
func direct(ctx context.Context, d *shard.DB, r *request) error {
	var err error
	switch r.fam {
	case famTerms, famComplex:
		_, err = d.TermSearchContext(ctx, r.terms, db.TermSearchOptions{TopK: topK, Complex: r.fam == famComplex})
	case famPhrase:
		_, err = d.PhraseSearchContext(ctx, r.terms)
	case famQuery:
		_, err = d.QueryContext(ctx, r.query)
	}
	return err
}

// fillCaches fills every replica's cache to its budget with entries no
// workload request asks for (term searches under a distinct limit, which
// is part of the key), so the cold phases evict from their first miss.
func (b *bench) fillCaches() error {
	ctx := context.Background()
	fill := db.TermSearchOptions{TopK: 1000, Limits: exec.Limits{MaxAccesses: 1 << 62}}
	words := append(append([]string(nil), b.c.strata[stTail]...), b.c.strata[stMid]...)
	for i, d := range b.st.replicas {
		c := d.ResultCache()
		for _, w := range words {
			st := c.Stats()
			if st.Evictions > 0 || st.Bytes >= cacheBytes*9/10 {
				break
			}
			if _, err := d.TermSearchContext(ctx, []string{w}, fill); err != nil {
				return fmt.Errorf("fill replica %d: %w", i, err)
			}
		}
		st := c.Stats()
		logf("replica %d cache filled: %d entries, %d bytes", i, st.Entries, st.Bytes)
	}
	return nil
}
