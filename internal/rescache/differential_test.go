package rescache_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/rescache"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/xmltree"
	"repro/internal/xq"
)

// The differential suite proves the tentpole property end to end: with
// the result cache enabled, every cached query family returns results
// byte-identical to an uncached oracle database driven through the exact
// same mutation history, at every generation — after bulk build, adds,
// updates, deletes, and compaction. Each family is issued twice per
// stage on the cached database so the second call is answered from the
// cache (asserted via the hit counter), which is the path that would
// expose a stale or corrupted entry.

// backend is the facade surface the suite drives.
type backend interface {
	LoadString(name, src string) error
	Warm()
	Add(name, src string) error
	Update(name, src string) error
	Delete(name string) error
	CompactNow()
	WaitCompaction()
	TermSearchContext(ctx context.Context, terms []string, opts db.TermSearchOptions) ([]exec.ScoredNode, error)
	PhraseSearchContext(ctx context.Context, phrase []string) ([]exec.PhraseMatch, error)
	QueryContext(ctx context.Context, src string) ([]xq.Result, error)
	ResultCache() *rescache.Cache
}

func diffDocName(i int) string { return fmt.Sprintf("doc%06d.xml", i) }

// diffDocSrc plants a guaranteed phrase ("alpha beta") in every document
// and spreads terms over residues so queries hit overlapping subsets.
func diffDocSrc(i int) string {
	return fmt.Sprintf("<d><t>common w%d q%d</t><s>alpha beta w%d</s></d>", i%97, i%13, i%7)
}

// diffQuery exercises the full pipeline (Score, Pick, Sortby, Threshold)
// against one document, the per-document-routed family the shard facade
// supports. Doc 3 is never updated or deleted by the stages below, so
// the query stays valid at every generation.
func diffQuery(name string) string {
	return fmt.Sprintf(`
		For $a in document(%q)//d/descendant-or-self::*
		Score $a using ScoreFoo($a, {"alpha beta"}, {"common"})
		Pick $a using PickFoo($a, 0.1)
		Sortby(score)
		Threshold $a/@score stop after 10`, name)
}

// qsig projects an xq.Result into a comparable value so results from two
// independent database instances can be compared byte-for-byte (the Node
// pointers differ across instances; their serialized form must not).
type qsig struct {
	Doc         storage.DocID
	Ord         int32
	Score       float64
	Sim         float64
	Node, Right string
}

func qsigs(rs []xq.Result) []qsig {
	xs := func(n *xmltree.Node) string {
		if n == nil {
			return ""
		}
		return xmltree.XMLString(n)
	}
	out := make([]qsig, len(rs))
	for i, r := range rs {
		out[i] = qsig{Doc: r.Doc, Ord: r.Ord, Score: r.Score, Sim: r.Sim, Node: xs(r.Node), Right: xs(r.Right)}
	}
	return out
}

// diffFamilies returns every query family the cache covers, each
// producing a cross-instance-comparable projection.
func diffFamilies() []struct {
	name string
	run  func(ctx context.Context, b backend) (any, error)
} {
	return []struct {
		name string
		run  func(ctx context.Context, b backend) (any, error)
	}{
		{"terms-simple", func(ctx context.Context, b backend) (any, error) {
			return b.TermSearchContext(ctx, []string{"common", "w3"}, db.TermSearchOptions{})
		}},
		{"terms-complex-topk", func(ctx context.Context, b backend) (any, error) {
			return b.TermSearchContext(ctx, []string{"common", "alpha"}, db.TermSearchOptions{Complex: true, TopK: 10})
		}},
		{"terms-weights-minscore", func(ctx context.Context, b backend) (any, error) {
			return b.TermSearchContext(ctx, []string{"w3", "q7"}, db.TermSearchOptions{
				TopK: 25, MinScore: 0.0001, Weights: []float64{2, 0.5},
			})
		}},
		{"phrase", func(ctx context.Context, b backend) (any, error) {
			return b.PhraseSearchContext(ctx, []string{"alpha", "beta"})
		}},
		{"query", func(ctx context.Context, b backend) (any, error) {
			rs, err := b.QueryContext(ctx, diffQuery(diffDocName(3)))
			if err != nil {
				return nil, err
			}
			return qsigs(rs), nil
		}},
	}
}

// diffStages is the generation ladder both databases climb in lockstep.
func diffStages() []struct {
	name  string
	apply func(t *testing.T, b backend)
} {
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	return []struct {
		name  string
		apply func(t *testing.T, b backend)
	}{
		{"build", func(t *testing.T, b backend) {
			for i := 0; i < 30; i++ {
				must(t, b.LoadString(diffDocName(i), diffDocSrc(i)))
			}
			b.Warm()
		}},
		{"adds", func(t *testing.T, b backend) {
			for i := 30; i < 40; i++ {
				must(t, b.Add(diffDocName(i), diffDocSrc(i)))
			}
		}},
		{"updates", func(t *testing.T, b backend) {
			for i := 5; i < 10; i++ {
				must(t, b.Update(diffDocName(i), diffDocSrc(i+1000)))
			}
		}},
		{"deletes", func(t *testing.T, b backend) {
			for i := 10; i < 15; i++ {
				must(t, b.Delete(diffDocName(i)))
			}
		}},
		{"compaction", func(t *testing.T, b backend) {
			b.CompactNow()
			b.WaitCompaction()
		}},
	}
}

// runDifferential climbs the generation ladder on a cached backend and
// its uncached oracle twin, requiring byte-identical results from the
// computed (first) and cached (second) call of every family at every
// stage, and that the cache genuinely served the repeats.
func runDifferential(t *testing.T, cached, oracle backend) {
	t.Helper()
	ctx := context.Background()
	c := cached.ResultCache()
	if c == nil {
		t.Fatal("cached backend has no result cache")
	}
	if oracle.ResultCache() != nil {
		t.Fatal("oracle backend unexpectedly has a result cache")
	}
	fams := diffFamilies()
	for _, st := range diffStages() {
		st.apply(t, cached)
		st.apply(t, oracle)
		for _, fam := range fams {
			want, err := fam.run(ctx, oracle)
			if err != nil {
				t.Fatalf("%s/%s: oracle: %v", st.name, fam.name, err)
			}
			if reflect.ValueOf(want).Len() == 0 {
				t.Fatalf("%s/%s: oracle returned no results; family is vacuous", st.name, fam.name)
			}
			before := c.Stats()
			got1, err := fam.run(ctx, cached)
			if err != nil {
				t.Fatalf("%s/%s: cached (compute): %v", st.name, fam.name, err)
			}
			got2, err := fam.run(ctx, cached)
			if err != nil {
				t.Fatalf("%s/%s: cached (hit): %v", st.name, fam.name, err)
			}
			after := c.Stats()
			if after.Hits <= before.Hits {
				t.Errorf("%s/%s: repeat call not served from cache (hits %d -> %d)",
					st.name, fam.name, before.Hits, after.Hits)
			}
			if !reflect.DeepEqual(got1, want) {
				t.Errorf("%s/%s: computed result diverges from oracle:\n got  %v\n want %v",
					st.name, fam.name, got1, want)
			}
			if !reflect.DeepEqual(got2, want) {
				t.Errorf("%s/%s: cached result diverges from oracle:\n got  %v\n want %v",
					st.name, fam.name, got2, want)
			}
		}
	}
	if st := c.Stats(); st.GenMiss != 0 {
		t.Errorf("stale-generation lookups served a miss path %d times; keys must make this impossible", st.GenMiss)
	}
}

func TestDifferentialMonolithic(t *testing.T) {
	cached := shard.New(shard.Options{CacheBytes: 1 << 20, Metrics: metrics.NewRegistry()})
	defer cached.Close()
	oracle := shard.New(shard.Options{Metrics: metrics.NewRegistry()})
	runDifferential(t, cached, oracle)
}

func TestDifferentialSharded(t *testing.T) {
	cached := shard.New(shard.Options{Shards: 3, CacheBytes: 1 << 20, Metrics: metrics.NewRegistry()})
	defer cached.Close()
	oracle := shard.New(shard.Options{Shards: 3, Metrics: metrics.NewRegistry()})
	runDifferential(t, cached, oracle)
}

// TestDifferentialShardedVsMonolithic closes the triangle on a static
// corpus: the cached 3-segment facade must agree with an uncached
// one-segment oracle (global-id rewriting happens before results enter
// the cache, so cached entries must already be in facade coordinates).
func TestDifferentialShardedVsMonolithic(t *testing.T) {
	cached := shard.New(shard.Options{Shards: 3, CacheBytes: 1 << 20, Metrics: metrics.NewRegistry()})
	defer cached.Close()
	oracle := shard.New(shard.Options{Metrics: metrics.NewRegistry()})
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		for _, b := range []backend{cached, oracle} {
			if err := b.LoadString(diffDocName(i), diffDocSrc(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cached.Warm()
	oracle.Warm()
	c := cached.ResultCache()
	for _, fam := range diffFamilies() {
		want, err := fam.run(ctx, oracle)
		if err != nil {
			t.Fatalf("%s: oracle: %v", fam.name, err)
		}
		before := c.Stats()
		got1, err := fam.run(ctx, cached)
		if err != nil {
			t.Fatalf("%s: cached (compute): %v", fam.name, err)
		}
		got2, err := fam.run(ctx, cached)
		if err != nil {
			t.Fatalf("%s: cached (hit): %v", fam.name, err)
		}
		if after := c.Stats(); after.Hits <= before.Hits {
			t.Errorf("%s: repeat call not served from cache", fam.name)
		}
		if !reflect.DeepEqual(got1, want) || !reflect.DeepEqual(got2, want) {
			t.Errorf("%s: sharded cached results diverge from the one-segment oracle", fam.name)
		}
	}
}

// TestDifferentialIngestWhileQuerying is the concurrent variant, modeled
// on db.TestIngestWhileQueryingMatchesBuild: readers hammer the cached
// database with a fixed set of repeat queries (so the cache is serving
// hits continuously) while a writer streams in 100k documents. Every
// result a reader observes must be error-free; after the dust settles
// the cached database must agree with a scratch bulk build, and the
// stale-generation counter must be zero — no reader ever saw a result
// from a dead generation.
func TestDifferentialIngestWhileQuerying(t *testing.T) {
	nDocs := 100_000
	if testing.Short() {
		nDocs = 2_000
	}
	cached := shard.New(shard.Options{CacheBytes: 8 << 20, Metrics: metrics.NewRegistry()})
	defer cached.Close()
	// Seed one document and warm so the live index (and with it the
	// cache's generation token) exists before readers start.
	if err := cached.LoadString(diffDocName(0), diffDocSrc(0)); err != nil {
		t.Fatal(err)
	}
	cached.Warm()

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	readerErr := make(chan error, 4)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch (i + r) % 3 {
				case 0:
					_, err = cached.TermSearchContext(ctx, []string{"w3", "q7"}, db.TermSearchOptions{TopK: 25})
				case 1:
					_, err = cached.TermSearchContext(ctx, []string{"common"}, db.TermSearchOptions{Complex: true, TopK: 10})
				case 2:
					_, err = cached.PhraseSearchContext(ctx, []string{"alpha", "beta"})
				}
				if err != nil {
					select {
					case readerErr <- fmt.Errorf("reader %d iter %d: %w", r, i, err):
					default:
					}
					return
				}
			}
		}(r)
	}
	for i := 1; i < nDocs; i++ {
		if err := cached.Add(diffDocName(i), diffDocSrc(i)); err != nil {
			close(stop)
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}
	cached.WaitCompaction()

	scratch := shard.New(shard.Options{Metrics: metrics.NewRegistry()})
	for i := 0; i < nDocs; i++ {
		if err := scratch.LoadString(diffDocName(i), diffDocSrc(i)); err != nil {
			t.Fatal(err)
		}
	}
	scratch.Warm()

	probes := []struct {
		terms []string
		opts  db.TermSearchOptions
	}{
		{[]string{"w3", "q7"}, db.TermSearchOptions{TopK: 25}},
		{[]string{"common"}, db.TermSearchOptions{Complex: true, TopK: 10}},
	}
	for _, p := range probes {
		want, err := scratch.TermSearchContext(ctx, p.terms, p.opts)
		if err != nil {
			t.Fatal(err)
		}
		// Twice: once computed at the final generation, once from cache.
		for pass := 0; pass < 2; pass++ {
			got, err := cached.TermSearchContext(ctx, p.terms, p.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("terms %v pass %d: %d results diverge from scratch build (%d)", p.terms, pass, len(got), len(want))
			}
		}
	}
	wantPh, err := scratch.PhraseSearchContext(ctx, []string{"alpha", "beta"})
	if err != nil {
		t.Fatal(err)
	}
	gotPh, err := cached.PhraseSearchContext(ctx, []string{"alpha", "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPh, wantPh) {
		t.Fatalf("phrase results diverge from scratch build: %d vs %d", len(gotPh), len(wantPh))
	}

	st := cached.ResultCache().Stats()
	if st.GenMiss != 0 {
		t.Errorf("readers touched %d dead-generation entries; generation keying failed", st.GenMiss)
	}
	if st.Hits == 0 {
		t.Error("no cache hits during concurrent ingest; the test exercised nothing")
	}
	t.Logf("ingest-while-querying cache stats: %+v", st)
}
