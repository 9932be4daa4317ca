package db_test

import (
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/shard"
)

func TestQueryRecordsMetrics(t *testing.T) {
	d, reg := newMeteredFixtureDB(t)
	_, err := d.Query(`
		For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet"})
		Sortby(score)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(`tix_queries_total{op="query"}`).Value(); got != 1 {
		t.Errorf("queries_total = %d, want 1", got)
	}
	if got := reg.Counter(`tix_query_results_total{op="query"}`).Value(); got == 0 {
		t.Error("query produced no recorded results")
	}
	if got := reg.Counter(`tix_access_node_reads_total{op="query"}`).Value(); got == 0 {
		t.Error("query recorded no node reads (engine stats sink not wired)")
	}
	if got := reg.Histogram(`tix_query_seconds{op="query"}`).Count(); got != 1 {
		t.Errorf("latency observations = %d, want 1", got)
	}

	// Errors count separately and do not record results.
	if _, err := d.Query("garbage !!"); err == nil {
		t.Fatal("bad query did not error")
	}
	if got := reg.Counter(`tix_query_errors_total{op="query"}`).Value(); got != 1 {
		t.Errorf("query_errors_total = %d, want 1", got)
	}
}

func TestTermAndPhraseSearchRecordMetrics(t *testing.T) {
	d, reg := newMeteredFixtureDB(t)
	// Reshard keeps the registry, so both fan-out widths record into it.
	par, err := d.Reshard(2, shard.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*shard.DB{d, par} {
		if _, err := f.TermSearch([]string{"search", "engine"}, db.TermSearchOptions{TopK: 5}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(`tix_queries_total{op="terms"}`).Value(); got != 2 {
		t.Errorf("terms total = %d, want 2", got)
	}
	// Both the one-segment and the fanned-out path must surface access
	// stats.
	if got := reg.Counter(`tix_access_node_reads_total{op="terms"}`).Value(); got == 0 {
		t.Error("term search recorded no node reads")
	}

	if _, err := d.PhraseSearch([]string{"information", "retrieval"}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram(`tix_query_seconds{op="phrase"}`).Count(); got != 1 {
		t.Errorf("phrase latency observations = %d, want 1", got)
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `tix_query_seconds_bucket{op="terms",le="+Inf"} 2`) {
		t.Errorf("exposition missing terms histogram:\n%s", b.String())
	}
}
