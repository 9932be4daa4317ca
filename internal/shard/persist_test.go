package shard

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/db"
	"repro/internal/exec"
)

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	names, roots := corpusDocs(t, 7, 42)
	for _, n := range []int{1, 3, 8} {
		s := newSharded(t, n, ByHash, names, roots)
		s.Warm()
		want, err := s.TermSearch([]string{"ctla", "ctlb"}, db.TermSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("shards=%d: save: %v", n, err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("shards=%d: load: %v", n, err)
		}
		if loaded.Shards() != n || loaded.Strategy() != ByHash {
			t.Fatalf("shards=%d: loaded layout = %d/%s", n, loaded.Shards(), loaded.Strategy())
		}
		if loaded.DocumentCount() != len(names) {
			t.Fatalf("shards=%d: loaded %d documents, want %d", n, loaded.DocumentCount(), len(names))
		}
		for gid, name := range names {
			if got := loaded.names[gid]; got != name {
				t.Fatalf("shards=%d: doc %d = %q, want %q", n, gid, got, name)
			}
		}
		got, err := loaded.TermSearch([]string{"ctla", "ctlb"}, db.TermSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameScored(t, "after round trip", got, want)
	}
}

func TestShardedLoadRejectsCorruption(t *testing.T) {
	names, roots := corpusDocs(t, 5, 9)
	s := newSharded(t, 3, ByHash, names, roots)
	s.Warm()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Any single flipped bit anywhere in the payload or trailer must be
	// rejected (sampled positions across the whole file).
	for _, pos := range []int{9, len(good) / 4, len(good) / 2, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x40
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Errorf("flipped bit at %d of %d accepted", pos, len(bad))
		}
	}
	// Truncations at the container level and inside a segment.
	for _, cut := range []int{4, len(good) / 2, len(good) - 3} {
		if _, err := Load(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation at %d of %d accepted", cut, len(good))
		}
	}
	// Trailing garbage after the trailer.
	if _, err := Load(bytes.NewReader(append(append([]byte(nil), good...), 'x'))); !errors.Is(err, db.ErrCorruptSnapshot) {
		t.Errorf("trailing garbage: err = %v, want ErrCorruptSnapshot", err)
	}
	// A bare segment snapshot is not a database file.
	var segment bytes.Buffer
	if err := s.Segment(0).Save(&segment); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(segment.Bytes())); err == nil {
		t.Error("bare segment snapshot accepted by Load")
	}
	// The intact file still loads (the corruption loop must not have
	// depended on shared state).
	if _, err := Load(bytes.NewReader(good)); err != nil {
		t.Fatalf("intact file rejected: %v", err)
	}
}

// TestLoadFileAcceptsOnlyTheContainer: the container is the one database
// file format. LoadFile opens it; a bare segment file, a short file and a
// missing file are errors.
func TestLoadFileAcceptsOnlyTheContainer(t *testing.T) {
	dir := t.TempDir()
	names, roots := corpusDocs(t, 5, 4)

	path := filepath.Join(dir, "db.tix")
	s := newSharded(t, 2, RoundRobin, names, roots)
	s.Warm()
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	d, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	got, err := d.TermSearch([]string{"ctla", "ctlb"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameScored(t, "LoadFile", got, oracleTermSearch(t, newOracle(t, names, roots), []string{"ctla", "ctlb"}, db.TermSearchOptions{}))
	// The reopened facade rejects duplicate names.
	if err := d.LoadTree(names[0], roots[0]); err == nil {
		t.Error("duplicate load accepted")
	}

	var seg bytes.Buffer
	if err := s.Segment(0).Save(&seg); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "segment.tix")
	if err := os.WriteFile(segPath, seg.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{segPath, short, filepath.Join(dir, "missing.tix")} {
		if _, err := LoadFile(bad); err == nil {
			t.Errorf("LoadFile(%s) accepted", filepath.Base(bad))
		}
	}
}

func TestReshardPreservesResults(t *testing.T) {
	names, roots := corpusDocs(t, 6, 13)
	s := newSharded(t, 2, ByHash, names, roots)
	want, err := s.TermSearch([]string{"ctla", "ctlb"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 8} {
		r, err := s.Reshard(n, RoundRobin)
		if err != nil {
			t.Fatalf("reshard to %d: %v", n, err)
		}
		if r.Shards() != n || r.Strategy() != RoundRobin {
			t.Fatalf("resharded layout = %d/%s", r.Shards(), r.Strategy())
		}
		if r.DocumentCount() != s.DocumentCount() {
			t.Fatalf("reshard to %d: %d documents, want %d", n, r.DocumentCount(), s.DocumentCount())
		}
		got, err := r.TermSearch([]string{"ctla", "ctlb"}, db.TermSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameScored(t, "after reshard", got, want)
	}
}

// TestSaveAfterDeleteAndUpdate: a snapshot taken after routed mutations
// lists only the live documents, in the order each segment file holds
// them, so it reopens and answers like the database that wrote it. Global
// ids are renumbered densely on reload, so answers are compared by
// document name.
func TestSaveAfterDeleteAndUpdate(t *testing.T) {
	body := func(i int, v string) string {
		return fmt.Sprintf(`<d><t>alpha beta w%d %s</t><u>beta gamma %s</u></d>`, i, v, v)
	}
	for _, n := range []int{1, 3} {
		s := New(Options{Shards: n, Strategy: RoundRobin})
		for i := 0; i < 7; i++ {
			if err := s.Add(fmt.Sprintf("doc%d.xml", i), body(i, "old")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Delete("doc2.xml"); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"doc1.xml", "doc4.xml"} {
			if err := s.Update(name, body(9, "alpha new")); err != nil {
				t.Fatal(err)
			}
		}
		s.Warm()
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("shards=%d: save: %v", n, err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("shards=%d: load: %v", n, err)
		}
		if got := loaded.DocumentCount(); got != 6 {
			t.Fatalf("shards=%d: reloaded %d documents, want 6", n, got)
		}
		if _, ok := loaded.ShardOf("doc2.xml"); ok {
			t.Fatalf("shards=%d: deleted document reloaded", n)
		}
		s.CompactNow() // drop the tombstoned postings Stats would still count
		if got, want := loaded.Stats(), s.Stats(); got != want {
			t.Fatalf("shards=%d: stats %+v, want %+v", n, got, want)
		}
		for _, terms := range [][]string{{"alpha"}, {"beta", "gamma"}, {"new"}} {
			label := fmt.Sprintf("shards=%d terms=%v", n, terms)
			want, err := s.TermSearch(terms, db.TermSearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.TermSearch(terms, db.TermSearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := scoredByName(loaded, got), scoredByName(s, want); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: reloaded %v, want %v", label, g, w)
			}
		}
		phrase := []string{"alpha", "beta"}
		want, err := s.PhraseSearch(phrase)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.PhraseSearch(phrase)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := phraseByName(loaded, got), phraseByName(s, want); !reflect.DeepEqual(g, w) {
			t.Fatalf("shards=%d phrase: reloaded %v, want %v", n, g, w)
		}
		// The reopened database saves and reopens again.
		buf.Reset()
		if err := loaded.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("shards=%d: second reload: %v", n, err)
		}
	}
}

// scoredByName renders scored results as sorted "name/ord/score" keys.
func scoredByName(s *DB, rs []exec.ScoredNode) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = fmt.Sprintf("%s/%d/%.9g", s.DocName(r.Doc), r.Ord, r.Score)
	}
	sort.Strings(out)
	return out
}

// phraseByName renders phrase matches as sorted "name/node/pos" keys.
func phraseByName(s *DB, ms []exec.PhraseMatch) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = fmt.Sprintf("%s/%d/%d", s.DocName(m.Doc), m.Node, m.Pos)
	}
	sort.Strings(out)
	return out
}
