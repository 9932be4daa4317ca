package db

import (
	"bytes"
	"testing"

	"repro/internal/fixture"
)

// FuzzLoad drives the snapshot loader over corrupted byte streams. Load
// must either return a database or an error — never panic, hang, or
// allocate unboundedly from a lying length prefix. Seeds cover the valid
// snapshot (with and without its integrity trailer, with and without an index section), its prefixes, and the
// bare magic, so mutation starts from structurally interesting inputs.
func FuzzLoad(f *testing.F) {
	d := New(Options{Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		f.Fatal(err)
	}
	if err := d.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		f.Fatal(err)
	}
	d.Index()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	unindexed := New(Options{})
	if err := unindexed.LoadString("a.xml", "<a>hello world</a>"); err != nil {
		f.Fatal(err)
	}
	var bufNoIndex bytes.Buffer
	if err := unindexed.Save(&bufNoIndex); err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-trailerLen]) // no trailer
	f.Add(valid[:len(valid)/2])
	f.Add(bufNoIndex.Bytes()) // no index section
	f.Add([]byte(fileMagic))
	f.Add(valid[:len(fileMagic)+1]) // magic and options byte
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Load(bytes.NewReader(data))
		if err == nil && db == nil {
			t.Fatal("Load returned neither a database nor an error")
		}
	})
}
