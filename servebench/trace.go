package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/rescache"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/xmltree"
	"repro/internal/xq"
)

// reqHeader carries the load generator's request id to the traced handler.
const reqHeader = "X-Servebench-Req"

// Span layers: the decorators below record one span per call across each
// boundary, and the ladder replays record the layers beneath the replica.
const (
	layerServer  = "server"  // HTTP handler: decode, admission, encode, middleware
	layerFleet   = "fleet"   // server.Backend calls into the fleet
	layerReplica = "replica" // fleet.Backend calls into one replica (shard.DB facade)
)

// span is one timed call. Times are nanoseconds since the tracer started.
// Req is the request id the client sent; calls that take no context
// (Materialize, NameOf, the mutations) carry 0 and are attributed to the
// request whose handler window contains them.
type span struct {
	Req     uint64 `json:"req"`
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	Replica int    `json:"replica,omitempty"` // the segment, for replay layers
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Err     bool   `json:"err,omitempty"`
	// Hit is the replica's result-cache outcome: 1 hit, 0 miss, -1 not
	// cacheable.
	Hit   int8  `json:"hit,omitempty"`
	KeyNs int64 `json:"keyNs,omitempty"`
	// ProbeNs is the trace's own cache probe (key minting plus a Get),
	// run just before the span starts; it is the benchmark's cost, not
	// the replica's, and the rollup leaves it unattributed.
	ProbeNs int64 `json:"probeNs,omitempty"`
	// Bytes and Status describe a server span's response.
	Bytes  int `json:"bytes,omitempty"`
	Status int `json:"status,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing and its decorators return the layers undecorated.
type tracer struct {
	t0 time.Time
	// on switches recording: off, the decorators only forward, so one
	// stack serves both the untraced and the traced phase of a run.
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns and clears the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

type reqKey struct{}

func reqOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqKey{}).(uint64)
	return id
}

// ---- http.Handler around server.Handler() ----------------------------

// handler wraps the server's handler tree. Requests without the id header
// (probes, end-of-run checks) pass through untraced.
func (t *tracer) handler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		start := t.now()
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), reqKey{}, id)))
		t.add(span{Req: id, Layer: layerServer, Op: r.Method + " " + r.URL.Path, Start: start, End: t.now(), Bytes: cw.n, Status: cw.status})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n      int
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// ---- server.Backend around the fleet ---------------------------------

// backend wraps the fleet as the server's Backend. It forwards every
// optional surface the server type-asserts (ingestion, readiness,
// compaction backlog), so the traced stack behaves as the untraced one.
func (t *tracer) backend(f *fleet.Fleet) server.Backend {
	if t == nil {
		return f
	}
	return &tracedFleet{t: t, f: f}
}

type tracedFleet struct {
	t *tracer
	f *fleet.Fleet
}

var (
	_ server.Backend  = (*tracedFleet)(nil)
	_ server.Ingestor = (*tracedFleet)(nil)
)

func (b *tracedFleet) timed(req uint64, op string, start int64, err error) {
	b.t.add(span{Req: req, Layer: layerFleet, Op: op, Start: start, End: b.t.now(), Err: err != nil})
}

func (b *tracedFleet) Stats() db.Stats                    { return b.f.Stats() }
func (b *tracedFleet) DocumentCount() int                 { return b.f.DocumentCount() }
func (b *tracedFleet) MetricsRegistry() *metrics.Registry { return b.f.MetricsRegistry() }
func (b *tracedFleet) Explain(src string) (string, error) { return b.f.Explain(src) }
func (b *tracedFleet) Generation() uint64                 { return b.f.Generation() }
func (b *tracedFleet) CompactionBacklog() int             { return b.f.CompactionBacklog() }
func (b *tracedFleet) Ready() (bool, string)              { return b.f.Ready() }
func (b *tracedFleet) HealthyReplicas() int               { return b.f.HealthyReplicas() }
func (b *tracedFleet) Add(name, src string) (err error) {
	return b.write("add", func() error { return b.f.Add(name, src) })
}
func (b *tracedFleet) Update(name, src string) (err error) {
	return b.write("update", func() error { return b.f.Update(name, src) })
}
func (b *tracedFleet) Delete(name string) (err error) {
	return b.write("delete", func() error { return b.f.Delete(name) })
}

func (b *tracedFleet) write(op string, fn func() error) error {
	start := b.t.now()
	err := fn()
	b.timed(0, op, start, err)
	return err
}

func (b *tracedFleet) QueryContext(ctx context.Context, src string) ([]xq.Result, error) {
	start := b.t.now()
	res, err := b.f.QueryContext(ctx, src)
	b.timed(reqOf(ctx), "query", start, err)
	return res, err
}

func (b *tracedFleet) TermSearchContext(ctx context.Context, terms []string, opts db.TermSearchOptions) ([]exec.ScoredNode, error) {
	start := b.t.now()
	res, err := b.f.TermSearchContext(ctx, terms, opts)
	b.timed(reqOf(ctx), "terms", start, err)
	return res, err
}

func (b *tracedFleet) PhraseSearchContext(ctx context.Context, phrase []string) ([]exec.PhraseMatch, error) {
	start := b.t.now()
	res, err := b.f.PhraseSearchContext(ctx, phrase)
	b.timed(reqOf(ctx), "phrase", start, err)
	return res, err
}

func (b *tracedFleet) Materialize(doc storage.DocID, ord int32) *xmltree.Node {
	start := b.t.now()
	n := b.f.Materialize(doc, ord)
	b.timed(0, "materialize", start, nil)
	return n
}

func (b *tracedFleet) NameOf(n exec.ScoredNode) string {
	start := b.t.now()
	name := b.f.NameOf(n)
	b.timed(0, "materialize", start, nil)
	return name
}

// ---- fleet.Backend around each replica --------------------------------

// replica wraps one replica as the fleet sees it. Besides the Backend
// surface it forwards ingestion, the id-allocation repair surface
// (AllocatedDocIDs/BurnDocID), Generation and CompactionBacklog, which
// the fleet type-asserts.
func (t *tracer) replica(i int, d *shard.DB) fleet.Backend {
	if t == nil {
		return d
	}
	return &tracedReplica{t: t, i: i, d: d}
}

type tracedReplica struct {
	t *tracer
	i int
	d *shard.DB
}

var (
	_ fleet.Backend  = (*tracedReplica)(nil)
	_ fleet.Ingestor = (*tracedReplica)(nil)
)

func (r *tracedReplica) Stats() db.Stats                    { return r.d.Stats() }
func (r *tracedReplica) DocumentCount() int                 { return r.d.DocumentCount() }
func (r *tracedReplica) MetricsRegistry() *metrics.Registry { return r.d.MetricsRegistry() }
func (r *tracedReplica) Explain(src string) (string, error) { return r.d.Explain(src) }
func (r *tracedReplica) Generation() uint64                 { return r.d.Generation() }
func (r *tracedReplica) CompactionBacklog() int             { return r.d.CompactionBacklog() }
func (r *tracedReplica) AllocatedDocIDs() int               { return r.d.AllocatedDocIDs() }
func (r *tracedReplica) BurnDocID() error                   { return r.d.BurnDocID() }
func (r *tracedReplica) Add(name, src string) error {
	return r.write("add", func() error { return r.d.Add(name, src) })
}
func (r *tracedReplica) Update(name, src string) error {
	return r.write("update", func() error { return r.d.Update(name, src) })
}
func (r *tracedReplica) Delete(name string) error {
	return r.write("delete", func() error { return r.d.Delete(name) })
}

func (r *tracedReplica) write(op string, fn func() error) error {
	start := r.t.now()
	err := fn()
	r.t.add(span{Layer: layerReplica, Op: op, Replica: r.i, Start: start, End: r.t.now(), Err: err != nil})
	return err
}

// peek reports whether the replica's result cache holds the key the
// facade is about to look up, how long minting the key took, and how long
// the whole probe took. The probe is one extra cache Get: it moves the
// entry to the front of its LRU list exactly as the facade's own lookup
// does next, but it also counts in the cache's hit and miss counters,
// which is why the rescache metrics come from the untraced phase.
func (r *tracedReplica) peek(key func(gen uint64) rescache.Key) (hit int8, keyNs, probeNs int64) {
	c := r.d.ResultCache()
	gen, ok := r.d.CacheToken()
	if c == nil || !ok || !r.t.on.Load() {
		return -1, 0, 0
	}
	start := time.Now()
	k := key(gen)
	keyNs = int64(time.Since(start))
	hit = 0
	if _, found := c.Get(k); found {
		hit = 1
	}
	return hit, keyNs, int64(time.Since(start))
}

// read runs one replica read. The span starts after the cache probe, so
// it covers only the replica's own call.
func (r *tracedReplica) read(ctx context.Context, op string, key func(gen uint64) rescache.Key, fn func() error) {
	hit, keyNs, probeNs := r.peek(key)
	start := r.t.now()
	err := fn()
	r.t.add(span{Req: reqOf(ctx), Layer: layerReplica, Op: op, Replica: r.i, Start: start, End: r.t.now(), Err: err != nil, Hit: hit, KeyNs: keyNs, ProbeNs: probeNs})
}

// The keys below mirror the facade's: the replicas run with zero default
// limits (tixserve without -max-accesses), so the effective limits are
// the call's own.

func (r *tracedReplica) TermSearchContext(ctx context.Context, terms []string, opts db.TermSearchOptions) (res []exec.ScoredNode, err error) {
	r.read(ctx, "terms", func(gen uint64) rescache.Key {
		return rescache.TermKey(gen, terms, rescache.TermOpts{
			Complex: opts.Complex, TopK: opts.TopK, MinScore: opts.MinScore,
			Weights: opts.Weights, Limits: opts.Limits,
		})
	}, func() error {
		res, err = r.d.TermSearchContext(ctx, terms, opts)
		return err
	})
	return res, err
}

func (r *tracedReplica) PhraseSearchContext(ctx context.Context, phrase []string) (res []exec.PhraseMatch, err error) {
	r.read(ctx, "phrase", func(gen uint64) rescache.Key {
		return rescache.PhraseKey(gen, phrase, exec.Limits{})
	}, func() error {
		res, err = r.d.PhraseSearchContext(ctx, phrase)
		return err
	})
	return res, err
}

func (r *tracedReplica) QueryContext(ctx context.Context, src string) (res []xq.Result, err error) {
	r.read(ctx, "query", func(gen uint64) rescache.Key {
		return rescache.QueryKey(gen, src, exec.Limits{})
	}, func() error {
		res, err = r.d.QueryContext(ctx, src)
		return err
	})
	return res, err
}

func (r *tracedReplica) Materialize(doc storage.DocID, ord int32) *xmltree.Node {
	return r.d.Materialize(doc, ord)
}

func (r *tracedReplica) NameOf(n exec.ScoredNode) string { return r.d.NameOf(n) }

// dumpSpans writes spans as JSON lines.
func dumpSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
