package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/fixture"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/storage"
)

func getReadyz(t *testing.T, url string) (int, ReadyzResponse) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body ReadyzResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /readyz body: %v", err)
	}
	return resp.StatusCode, body
}

func TestReadyzSingleBackend(t *testing.T) {
	_, ts, _ := newIsolatedServer(t)
	status, body := getReadyz(t, ts.URL)
	if status != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", status)
	}
	if body.Status != "ready" {
		t.Errorf("status = %q, want ready", body.Status)
	}
	if body.HealthyReplicas != -1 {
		t.Errorf("healthyReplicas = %d for unreplicated backend, want -1", body.HealthyReplicas)
	}
}

// newFleetServer builds a server over a 2-replica fleet loaded with the
// fixture corpus, with fast breaker tunings for drills.
func newFleetServer(t *testing.T) (*Server, *fleet.Fleet, []*shard.DB, string) {
	t.Helper()
	reg := metrics.NewRegistry()
	var replicas []*shard.DB
	var backends []fleet.Backend
	for i := 0; i < 2; i++ {
		d := shard.New(shard.Options{Metrics: metrics.NewRegistry()})
		for _, doc := range []struct{ name, xml string }{
			{"articles.xml", fixture.ArticlesXML},
			{"reviews.xml", fixture.ReviewsXML},
		} {
			if err := d.LoadString(doc.name, doc.xml); err != nil {
				t.Fatal(err)
			}
		}
		d.Stats() // force the index so fault drills don't hit the build path
		replicas = append(replicas, d)
		backends = append(backends, d)
	}
	f, err := fleet.New(fleet.Config{
		HedgeAfter: -1,
		MaxRetries: 2,
		Metrics:    reg,
		Breaker: fleet.BreakerConfig{
			Window: 8, MinSamples: 2, FailureRatio: 0.5,
			OpenFor: 20 * time.Millisecond, HalfOpenProbes: 1,
		},
	}, backends...)
	if err != nil {
		t.Fatal(err)
	}
	s := New(f)
	s.Metrics = reg
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, f, replicas, ts.URL
}

func TestReadyzFleetDegradesToUnavailable(t *testing.T) {
	_, f, replicas, url := newFleetServer(t)

	status, body := getReadyz(t, url)
	if status != http.StatusOK || body.HealthyReplicas != 2 {
		t.Fatalf("/readyz = %d healthy=%d, want 200 with 2", status, body.HealthyReplicas)
	}

	// Kill both replicas and drive traffic until every breaker opens.
	for _, d := range replicas {
		d.SetFaults(&storage.FaultInjector{FailEvery: 1})
	}
	for i := 0; i < 30; i++ {
		f.TermSearchContext(context.Background(), []string{"search"}, db.TermSearchOptions{}) //nolint:errcheck — driving breakers open
		if f.HealthyReplicas() == 0 {
			break
		}
	}
	if f.HealthyReplicas() != 0 {
		t.Fatalf("breakers did not open: %d healthy", f.HealthyReplicas())
	}

	status, body = getReadyz(t, url)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with all breakers open = %d, want 503", status)
	}
	if body.Status != "unavailable" || body.Reason == "" {
		t.Errorf("body = %+v, want unavailable with reason", body)
	}
}

// backloggedBackend overrides the compaction backlog for threshold tests.
type backloggedBackend struct {
	Backend
	backlog int
}

func (b *backloggedBackend) CompactionBacklog() int { return b.backlog }

func TestReadyzCompactionBacklogThreshold(t *testing.T) {
	s, ts, _ := newIsolatedServer(t)
	bb := &backloggedBackend{Backend: s.DB, backlog: 100}
	s.DB = bb
	s.EnableIngest = true
	s.MaxCompactionBacklog = 8

	status, body := getReadyz(t, ts.URL)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz over backlog threshold = %d, want 503", status)
	}
	if body.CompactionBacklog != 100 {
		t.Errorf("compactionBacklog = %d, want 100", body.CompactionBacklog)
	}

	// Backlog drains below the threshold: ready again.
	bb.backlog = 3
	if status, _ = getReadyz(t, ts.URL); status != http.StatusOK {
		t.Fatalf("/readyz after drain = %d, want 200", status)
	}

	// Without ingestion the backlog gate is moot (nothing mutates).
	bb.backlog = 100
	s.EnableIngest = false
	if status, _ = getReadyz(t, ts.URL); status != http.StatusOK {
		t.Fatalf("/readyz read-only = %d, want 200", status)
	}
}
