package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/xmltree"
)

// TestRoutedIngestMatchesBulkLoad grows a sharded database one Add at a
// time and checks it answers exactly like one bulk-loaded from the same
// corpus: ByHash placement depends only on names, and global ids follow
// insertion order in both paths.
func TestRoutedIngestMatchesBulkLoad(t *testing.T) {
	names, roots := corpusDocs(t, 9, 404)
	for _, n := range equivShardCounts {
		bulk := newSharded(t, n, ByHash, names, roots)
		bulk.Warm()

		grown := New(Options{Shards: n, Strategy: ByHash})
		grown.Warm() // live from the start: every Add is incremental
		for i, name := range names {
			if err := grown.Add(name, xmltree.XMLString(roots[i])); err != nil {
				t.Fatal(err)
			}
		}

		for _, terms := range [][]string{{"ctla"}, {"ctla", "ctlb"}, {"ctlc"}} {
			label := fmt.Sprintf("shards=%d terms=%v", n, terms)
			want, err := bulk.TermSearch(terms, db.TermSearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := grown.TermSearch(terms, db.TermSearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameScored(t, label, got, want)
		}
		if got, want := grown.DocumentCount(), bulk.DocumentCount(); got != want {
			t.Fatalf("shards=%d: DocumentCount = %d, want %d", n, got, want)
		}
	}
}

func TestShardUpdateDelete(t *testing.T) {
	s := New(Options{Shards: 3, Strategy: ByHash})
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("doc%d.xml", i)
		if err := s.Add(name, fmt.Sprintf(`<d><t>stable filler%d</t></d>`, i)); err != nil {
			t.Fatal(err)
		}
	}
	gen := s.Generation()

	// Duplicate add is a conflict.
	if err := s.Add("doc0.xml", `<d><t>dup</t></d>`); !errors.Is(err, db.ErrDocumentExists) {
		t.Fatalf("duplicate Add err = %v, want ErrDocumentExists", err)
	}

	// Update keeps the global id but swaps content.
	oldName := s.DocName(2)
	if err := s.Update(oldName, `<d><t>stable replaced</t></d>`); err != nil {
		t.Fatal(err)
	}
	if got := s.DocName(2); got != oldName {
		t.Fatalf("Update changed the global id mapping: DocName(2) = %q", got)
	}
	res, err := s.TermSearch([]string{"replaced"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("updated content not searchable")
	}
	for _, n := range res {
		if n.Doc != 2 {
			t.Fatalf("updated content surfaced under global id %d, want 2", n.Doc)
		}
	}
	if res, _ := s.TermSearch([]string{"filler2"}, db.TermSearchOptions{}); len(res) != 0 {
		t.Fatalf("old content of an updated document still searchable: %v", res)
	}

	// Delete removes the document everywhere.
	if err := s.Delete("doc4.xml"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("doc4.xml"); !errors.Is(err, db.ErrDocumentNotFound) {
		t.Fatalf("double Delete err = %v, want ErrDocumentNotFound", err)
	}
	if res, _ := s.TermSearch([]string{"filler4"}, db.TermSearchOptions{}); len(res) != 0 {
		t.Fatalf("deleted document still searchable: %v", res)
	}
	if got := s.DocumentCount(); got != 5 {
		t.Fatalf("DocumentCount = %d after delete, want 5", got)
	}
	if s.Generation() == gen {
		t.Fatal("mutations did not advance the generation")
	}

	// The retired name is available again and routes stably.
	if err := s.Add("doc4.xml", `<d><t>stable reborn</t></d>`); err != nil {
		t.Fatal(err)
	}
	res, err = s.TermSearch([]string{"reborn"}, db.TermSearchOptions{})
	if err != nil || len(res) == 0 {
		t.Fatalf("re-added document not searchable: %v, %v", res, err)
	}
	for _, n := range res {
		if n.Doc == 4 {
			t.Fatal("re-added document reused its retired global id")
		}
	}
}

// TestShardIngestWhileQuerying races routed Adds against term searches;
// run under -race this is the shard-level smoke test for the LSM layer's
// snapshot isolation.
func TestShardIngestWhileQuerying(t *testing.T) {
	s := New(Options{Shards: 2, Strategy: ByHash})
	if err := s.Add("seed.xml", `<d><t>stable seed</t></d>`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.TermSearch([]string{"stable"}, db.TermSearchOptions{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 80; i++ {
		if err := s.Add(fmt.Sprintf("live%03d.xml", i), fmt.Sprintf(`<d><t>stable w%d</t></d>`, i%7)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	s.WaitCompaction()
	res, err := s.TermSearch([]string{"stable"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results after concurrent ingest")
	}
}

// nameOnShard returns a document name with the given prefix that ByHash
// places on shard i of n.
func nameOnShard(prefix string, i, n int) string {
	for k := 0; ; k++ {
		if name := fmt.Sprintf("%s%d.xml", prefix, k); hashShard(name, n) == i {
			return name
		}
	}
}

// TestShardViewPinsStoreAndIndex lands an Add to a segment inside each
// worker's window between pinning its view and running the operator — the
// window in which a store and an index of different generations could be
// paired. The worker must read one generation: no panic, the new
// documents absent from that query, present in the next one.
func TestShardViewPinsStoreAndIndex(t *testing.T) {
	const shards = 2
	s := New(Options{Shards: shards, Strategy: ByHash})
	for i := 0; i < shards; i++ {
		if err := s.Add(nameOnShard("seed", i, shards), `<d><t>stable seed</t></d>`); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	added := map[int]bool{}
	s.afterView = func(i int) {
		mu.Lock()
		defer mu.Unlock()
		if added[i] {
			return
		}
		added[i] = true
		if err := s.Add(nameOnShard("late", i, shards), `<d><t>stable late</t><t>stable</t></d>`); err != nil {
			t.Error(err)
		}
	}
	lateDocs := func(res []exec.ScoredNode) int {
		n := 0
		for _, r := range res {
			if strings.HasPrefix(s.DocName(r.Doc), "late") {
				n++
			}
		}
		return n
	}

	first, err := s.TermSearch([]string{"stable"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatalf("query racing the adds: %v", err)
	}
	if len(added) != shards {
		t.Fatalf("hook ran on %d of %d shards", len(added), shards)
	}
	if n := lateDocs(first); n != 0 || len(first) == 0 {
		t.Fatalf("query racing the adds saw %d results from late documents (of %d)", n, len(first))
	}
	s.afterView = nil
	next, err := s.TermSearch([]string{"stable"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lateDocs(next) == 0 {
		t.Fatal("late documents missing from the next query")
	}

	// The routed query path: an Update of the queried document lands
	// after the view is pinned. The query resolves the name through the
	// view, so it answers from the version the view holds.
	name := nameOnShard("seed", 0, shards)
	src := fmt.Sprintf(`For $a in document(%q)//t Score $a using ScoreFoo($a, {"seed"}, {}) Sortby(score)`, name)
	s.afterView = func(int) {
		s.afterView = nil
		if err := s.Update(name, `<d><t>fresh</t><t>fresh</t><t>fresh</t></d>`); err != nil {
			t.Error(err)
		}
	}
	res, err := s.Query(src)
	if err != nil {
		t.Fatalf("query racing an update: %v", err)
	}
	if len(res) != 1 || res[0].Score <= 0 || res[0].Node.AllText() != "stable seed" {
		t.Fatalf("query racing an update answered %+v, want the pre-update <t>stable seed</t>", res)
	}
	if res, err = s.Query(src); err != nil || len(res) != 3 {
		t.Fatalf("query after the update: %d results, %v; want 3", len(res), err)
	}
}

// TestShardUpdateKeepsGlobalOrder: Update keeps a document's global id but
// gives it a fresh, larger segment-local id, so segment-local order is no
// longer global order. Phrase matches must still arrive in (doc, pos)
// order, and a top-k cut through a score tie must keep the same elements
// as one segment bulk-loaded with the final corpus in global-id order.
func TestShardUpdateKeepsGlobalOrder(t *testing.T) {
	src := func(v string) string {
		return fmt.Sprintf(`<d><t>alpha beta %s</t><t>gamma alpha beta</t></d>`, v)
	}
	names := []string{"doc0.xml", "doc1.xml", "doc2.xml", "doc3.xml", "doc4.xml", "doc5.xml"}
	final := map[string]string{"doc0.xml": src("new"), "doc3.xml": src("newer")}
	s := New(Options{Shards: 2, Strategy: RoundRobin})
	for _, name := range names {
		if err := s.Add(name, src("old")); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"doc0.xml", "doc3.xml"} {
		if err := s.Update(name, final[name]); err != nil {
			t.Fatal(err)
		}
	}
	oracle := db.New(db.Options{})
	for _, name := range names {
		body, ok := final[name]
		if !ok {
			body = src("old")
		}
		if err := oracle.LoadString(name, body); err != nil {
			t.Fatal(err)
		}
	}

	phrase := []string{"alpha", "beta"}
	got, err := s.PhraseSearch(phrase)
	if err != nil {
		t.Fatal(err)
	}
	want := oraclePhrase(t, oracle, phrase)
	if len(got) != len(want) {
		t.Fatalf("%d phrase matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phrase match %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	twig := exec.Twig("d", exec.Twig("t"))
	refs, err := s.TwigRefsContext(context.Background(), twig)
	if err != nil {
		t.Fatal(err)
	}
	if wantRefs := oracleTwig(t, oracle, twig); !reflect.DeepEqual(refs, wantRefs) {
		t.Fatalf("twig refs %v, want %v", refs, wantRefs)
	}
	for k := 1; k <= 2*len(names); k++ {
		for _, complex := range []bool{false, true} {
			opts := db.TermSearchOptions{TopK: k, Complex: complex}
			got, err := s.TermSearch([]string{"alpha"}, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameScored(t, fmt.Sprintf("top-%d complex=%v", k, complex), got, oracleTermSearch(t, oracle, []string{"alpha"}, opts))
		}
	}
}
