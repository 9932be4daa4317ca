package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/db"
	"repro/internal/shard"
)

// TestDeleteSaveOpen drives the documented retire-a-document workflow,
// `tixdb -open db.tix -delete a.xml -save db.tix`, on one and on three
// shards: the rewritten file reopens without the deleted document.
func TestDeleteSaveOpen(t *testing.T) {
	for _, shards := range []int{0, 3} {
		dir := t.TempDir()
		var loads []string
		for i := 0; i < 4; i++ {
			path := filepath.Join(dir, fmt.Sprintf("d%d.xml", i))
			src := fmt.Sprintf("<doc><p>shared text w%d</p></doc>", i)
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			loads = append(loads, path)
		}
		file := filepath.Join(dir, "db.tix")
		if err := run(loads, nil, "", "", "", 10, false, false, false, true, file, "", shards, false, 0); err != nil {
			t.Fatalf("shards=%d: load and save: %v", shards, err)
		}
		if err := run(nil, []string{"d1.xml"}, "", "", "", 10, false, false, false, true, file, file, 0, false, 0); err != nil {
			t.Fatalf("shards=%d: open, delete and save: %v", shards, err)
		}
		d, err := shard.LoadFile(file)
		if err != nil {
			t.Fatalf("shards=%d: reopen after delete: %v", shards, err)
		}
		if got := d.DocumentCount(); got != 3 {
			t.Fatalf("shards=%d: %d documents after delete, want 3", shards, got)
		}
		if _, ok := d.ShardOf("d1.xml"); ok {
			t.Fatalf("shards=%d: deleted document still present", shards)
		}
		rs, err := d.TermSearch([]string{"shared"}, db.TermSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 6 { // <doc> and <p> of each surviving document
			t.Fatalf("shards=%d: %d results for a term in every document, want 6", shards, len(rs))
		}
	}
}
