package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/xmltree"
	"repro/internal/xq"
)

// fakeBackend is a scriptable replica: per-call error injection, fixed
// latency, and a served counter for routing assertions.
type fakeBackend struct {
	id     int
	served atomic.Int64
	// failFor returns the error for the n-th QueryContext call (1-based);
	// nil means success. Nil failFor always succeeds.
	failFor func(call int64) error
	delay   time.Duration
}

func (f *fakeBackend) query(ctx context.Context) error {
	n := f.served.Add(1)
	if f.delay > 0 {
		if err := Sleep(ctx, f.delay); err != nil {
			return exec.ErrCanceled
		}
	}
	if f.failFor != nil {
		return f.failFor(n)
	}
	return nil
}

func (f *fakeBackend) QueryContext(ctx context.Context, src string) ([]xq.Result, error) {
	if err := f.query(ctx); err != nil {
		return nil, err
	}
	return []xq.Result{{Doc: storage.DocID(f.id), Score: 1}}, nil
}

func (f *fakeBackend) TermSearchContext(ctx context.Context, terms []string, opts db.TermSearchOptions) ([]exec.ScoredNode, error) {
	if err := f.query(ctx); err != nil {
		return nil, err
	}
	return nil, nil
}

func (f *fakeBackend) PhraseSearchContext(ctx context.Context, phrase []string) ([]exec.PhraseMatch, error) {
	if err := f.query(ctx); err != nil {
		return nil, err
	}
	return nil, nil
}

func (f *fakeBackend) Stats() db.Stats                    { return db.Stats{Documents: 1} }
func (f *fakeBackend) DocumentCount() int                 { return 1 }
func (f *fakeBackend) MetricsRegistry() *metrics.Registry { return metrics.NewRegistry() }
func (f *fakeBackend) Explain(src string) (string, error) { return "plan", nil }
func (f *fakeBackend) NameOf(n exec.ScoredNode) string    { return "node" }
func (f *fakeBackend) Materialize(doc storage.DocID, ord int32) *xmltree.Node {
	return nil
}

// newTestFleet builds a fleet over the given backends with fast breaker
// and retry tunings and an isolated registry.
func newTestFleet(t *testing.T, cfg Config, backends ...*fakeBackend) *Fleet {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Breaker == (BreakerConfig{}) {
		cfg.Breaker = BreakerConfig{
			Window:         8,
			MinSamples:     2,
			FailureRatio:   0.5,
			OpenFor:        20 * time.Millisecond,
			HalfOpenProbes: 1,
		}
	}
	if cfg.Backoff == (Backoff{}) {
		cfg.Backoff = Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}
	}
	bs := make([]Backend, len(backends))
	for i, b := range backends {
		b.id = i
		bs[i] = b
	}
	f, err := New(cfg, bs...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFleetRequiresReplicas(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("New with no backends = %v, want ErrNoReplicas", err)
	}
}

func TestFleetServesFromHealthyReplica(t *testing.T) {
	a, b := &fakeBackend{}, &fakeBackend{}
	f := newTestFleet(t, Config{HedgeAfter: -1}, a, b)
	for i := 0; i < 10; i++ {
		if _, err := f.QueryContext(context.Background(), "q"); err != nil {
			t.Fatalf("query %d failed: %v", i, err)
		}
	}
	// Round-robin spreads load over both replicas.
	if a.served.Load() == 0 || b.served.Load() == 0 {
		t.Errorf("round-robin skipped a replica: a=%d b=%d", a.served.Load(), b.served.Load())
	}
}

func TestFleetRetriesReplicaFaultOnTwin(t *testing.T) {
	sick := &fakeBackend{failFor: func(int64) error { return storage.ErrInjectedFault }}
	well := &fakeBackend{}
	f := newTestFleet(t, Config{HedgeAfter: -1}, sick, well)
	for i := 0; i < 10; i++ {
		if _, err := f.QueryContext(context.Background(), "q"); err != nil {
			t.Fatalf("query %d surfaced a replica fault: %v", i, err)
		}
	}
	if well.served.Load() == 0 {
		t.Fatal("healthy twin never served")
	}
	reg := f.cfg.Metrics
	if got := reg.Counter(`tix_fleet_retries_total{op="query"}`).Value(); got == 0 {
		t.Error("retries_total = 0, want > 0")
	}
	if got := reg.Counter(`tix_fleet_replica_errors_total{replica="0"}`).Value(); got == 0 {
		t.Error("replica_errors_total{replica=0} = 0, want > 0")
	}
}

func TestFleetBreakerEjectsSickReplica(t *testing.T) {
	sick := &fakeBackend{failFor: func(int64) error { return exec.ErrPanic }}
	well := &fakeBackend{}
	f := newTestFleet(t, Config{HedgeAfter: -1}, sick, well)
	for i := 0; i < 20; i++ {
		if _, err := f.QueryContext(context.Background(), "q"); err != nil {
			t.Fatalf("query %d failed: %v", i, err)
		}
	}
	if got := f.BreakerState(0); got != StateOpen {
		t.Fatalf("sick replica breaker = %v, want open", got)
	}
	// With the breaker open, traffic flows only to the twin.
	before := sick.served.Load()
	for i := 0; i < 10; i++ {
		if _, err := f.QueryContext(context.Background(), "q"); err != nil {
			t.Fatal(err)
		}
	}
	if sick.served.Load() != before {
		t.Errorf("open-breaker replica still served %d requests", sick.served.Load()-before)
	}
}

func TestFleetBreakerRecovers(t *testing.T) {
	var healed atomic.Bool
	flaky := &fakeBackend{failFor: func(int64) error {
		if healed.Load() {
			return nil
		}
		return storage.ErrInjectedFault
	}}
	well := &fakeBackend{}
	f := newTestFleet(t, Config{HedgeAfter: -1}, flaky, well)

	for i := 0; i < 20; i++ {
		if _, err := f.QueryContext(context.Background(), "q"); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.BreakerState(0); got != StateOpen {
		t.Fatalf("flaky replica breaker = %v, want open", got)
	}

	healed.Store(true)
	time.Sleep(25 * time.Millisecond) // past OpenFor → half-open probes
	deadline := time.Now().Add(2 * time.Second)
	for f.BreakerState(0) != StateClosed && time.Now().Before(deadline) {
		if _, err := f.QueryContext(context.Background(), "q"); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.BreakerState(0); got != StateClosed {
		t.Fatalf("healed replica breaker = %v, want closed", got)
	}
	// The transitions were published to metrics.
	reg := f.cfg.Metrics
	for _, to := range []string{"open", "half_open", "closed"} {
		name := fmt.Sprintf(`tix_fleet_breaker_transitions_total{replica="0",to="%s"}`, to)
		if reg.Counter(name).Value() == 0 {
			t.Errorf("transition counter %s = 0, want > 0", name)
		}
	}
}

func TestFleetClientErrorsAreNotRetried(t *testing.T) {
	parseErr := errors.New("xq: parse error")
	sick := &fakeBackend{failFor: func(int64) error { return parseErr }}
	f := newTestFleet(t, Config{HedgeAfter: -1}, sick, sick)
	_, err := f.QueryContext(context.Background(), "q(")
	if !errors.Is(err, parseErr) {
		t.Fatalf("err = %v, want the parse error surfaced verbatim", err)
	}
	if got := sick.served.Load(); got != 1 {
		t.Fatalf("client-class error was retried: %d attempts, want 1", got)
	}
	if got := f.cfg.Metrics.Counter(`tix_fleet_retries_total{op="query"}`).Value(); got != 0 {
		t.Errorf("retries_total = %d, want 0", got)
	}
	// The breaker saw no fault: deterministic errors are the request's
	// problem, not the replica's.
	if got := f.BreakerState(0); got != StateClosed {
		t.Errorf("breaker = %v after client errors, want closed", got)
	}
}

func TestFleetHedgesSlowPrimary(t *testing.T) {
	slow := &fakeBackend{delay: 200 * time.Millisecond}
	fast := &fakeBackend{}
	f := newTestFleet(t, Config{HedgeAfter: 5 * time.Millisecond}, slow, fast)

	start := time.Now()
	hedged := false
	// Round-robin decides which replica goes first; run a few queries so
	// at least one lands on the slow primary and must hedge to win fast.
	for i := 0; i < 4; i++ {
		if _, err := f.QueryContext(context.Background(), "q"); err != nil {
			t.Fatal(err)
		}
	}
	if time.Since(start) > 400*time.Millisecond {
		t.Errorf("4 queries took %v; hedging should mask the slow replica", time.Since(start))
	}
	reg := f.cfg.Metrics
	if reg.Counter(`tix_fleet_hedges_total{op="query"}`).Value() > 0 &&
		reg.Counter(`tix_fleet_hedge_wins_total{op="query"}`).Value() > 0 {
		hedged = true
	}
	if !hedged {
		t.Error("no hedge fired or won against a 200ms-slow primary")
	}
}

func TestFleetExhaustedRetriesSurfaceLastError(t *testing.T) {
	sick := &fakeBackend{failFor: func(int64) error { return storage.ErrInjectedFault }}
	f := newTestFleet(t, Config{HedgeAfter: -1, MaxRetries: 1}, sick)
	_, err := f.QueryContext(context.Background(), "q")
	if !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("err = %v, want ErrInjectedFault after retry budget", err)
	}
}

func TestFleetHonorsCallerContext(t *testing.T) {
	slow := &fakeBackend{delay: time.Second}
	f := newTestFleet(t, Config{HedgeAfter: -1}, slow)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.QueryContext(ctx, "q")
	if !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want exec.ErrDeadlineExceeded", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("fleet held the request long past the caller's deadline")
	}
}

func TestFleetReadiness(t *testing.T) {
	sick := &fakeBackend{failFor: func(int64) error { return storage.ErrInjectedFault }}
	f := newTestFleet(t, Config{HedgeAfter: -1, MaxRetries: 0}, sick)
	if ok, _ := f.Ready(); !ok {
		t.Fatal("fresh fleet not ready")
	}
	for i := 0; i < 20; i++ {
		f.QueryContext(context.Background(), "q") //nolint:errcheck — driving the breaker open
	}
	if got := f.BreakerState(0); got != StateOpen {
		t.Fatalf("breaker = %v, want open", got)
	}
	ok, reason := f.Ready()
	if ok {
		t.Fatal("fleet with every breaker open reported ready")
	}
	if reason == "" {
		t.Error("not-ready fleet gave no reason")
	}
	if f.HealthyReplicas() != 0 {
		t.Errorf("HealthyReplicas = %d, want 0", f.HealthyReplicas())
	}
}

func TestFleetDeterministicReadsPreferHealthy(t *testing.T) {
	a, b := &fakeBackend{}, &fakeBackend{}
	f := newTestFleet(t, Config{HedgeAfter: -1}, a, b)
	if got := f.DocumentCount(); got != 1 {
		t.Fatalf("DocumentCount = %d, want 1", got)
	}
	if plan, err := f.Explain("q"); err != nil || plan != "plan" {
		t.Fatalf("Explain = %q, %v", plan, err)
	}
	if st := f.Stats(); st.Documents != 1 {
		t.Fatalf("Stats.Documents = %d, want 1", st.Documents)
	}
}
