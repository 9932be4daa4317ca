package db

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/postings"
	"repro/internal/synth"
)

// The segment snapshot (TIXDB2) persists the block-compressed postings
// verbatim. These tests pin its magic, its compression across a reload,
// and the block-level corruption defenses behind the checksum.

func TestSaveWritesV2Magic(t *testing.T) {
	data := savedFixture(t)
	if !bytes.HasPrefix(data, []byte(fileMagic)) || fileMagic != "TIXDB2\n" {
		t.Fatalf("Save wrote magic %q, want %q", data[:len(fileMagic)], "TIXDB2\n")
	}
}

// reseal appends a valid integrity trailer to payload, as a writer that
// produced damaged blocks would: the checksum then passes, and the
// loader's structural checks and block validation are the only defense.
func reseal(payload []byte) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_, _ = w.Write(payload)
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// synthDB builds a database over a mid-sized synthetic corpus — long
// enough posting lists that block compression actually pays, unlike the
// tiny two-document fixture.
func synthDB(t *testing.T) *DB {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Articles = 30
	cfg.Seed = 61
	cfg.ControlTerms = map[string]int{"needle": 900, "haystack": 400}
	corpus, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := New(Options{})
	if err := d.LoadTree("corpus.xml", corpus.Root); err != nil {
		t.Fatal(err)
	}
	d.Index()
	return d
}

func TestV2ReloadKeepsCompression(t *testing.T) {
	d := synthDB(t)
	want := d.Index().MemStats()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := d2.Index().MemStats()
	if got != want {
		t.Errorf("reloaded MemStats = %+v, want %+v", got, want)
	}
	// The acceptance bar: block compression at least halves the postings
	// memory against the raw 16-byte representation.
	if got.Ratio < 2 {
		t.Errorf("reloaded compression ratio %.2f, want >= 2", got.Ratio)
	}
}

// TestV2TrailerlessCorruption: a snapshot without its trailer is rejected
// as corrupt; and damage to the postings section near the end of the
// payload, resealed with a matching checksum, must be caught by the
// per-block validation in NewBlockList — every flip either errors (never
// panics) or produces a database that passed validation cleanly.
func TestV2TrailerlessCorruption(t *testing.T) {
	data := savedFixture(t)
	payload := data[:len(data)-trailerLen]
	if _, err := Load(bytes.NewReader(payload)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("trailerless snapshot: err = %v, want ErrCorruptSnapshot", err)
	}
	rejected := 0
	// The index section sits at the tail of the payload; walk flips across
	// it.
	start := len(payload) * 3 / 4
	for at := start; at < len(payload); at += 7 {
		mut := bytes.Clone(payload)
		mut[at] ^= 0xFF
		db, err := Load(bytes.NewReader(reseal(mut)))
		if err == nil {
			if db == nil {
				t.Fatalf("flip at %d: no database and no error", at)
			}
			continue
		}
		rejected++
	}
	if rejected == 0 {
		t.Error("no tail-section flip was rejected; block validation appears inert")
	}
}

// TestV2TrailerlessTruncation: cutting a snapshot inside the index section
// and resealing it must fail the index decode or block validation.
func TestV2TrailerlessTruncation(t *testing.T) {
	data := savedFixture(t)
	payload := data[:len(data)-trailerLen]
	for _, cut := range []int{len(payload) - 2, len(payload) - 9, len(payload) * 9 / 10} {
		_, err := Load(bytes.NewReader(reseal(payload[:cut])))
		if err == nil {
			t.Errorf("resealed truncation at %d of %d accepted", cut, len(payload))
		}
	}
}

// TestV2CorruptSkipMetadata mangles bytes across the index tail — term
// headers, per-block metadata varints, block payloads — of a resealed
// snapshot. Rejections must be typed: either the loader's structural
// checks (ErrCorruptSnapshot) or the block validator (postings.ErrCorrupt,
// wrapped in ErrCorruptSnapshot), and the block validator must fire for at
// least one mutation.
func TestV2CorruptSkipMetadata(t *testing.T) {
	data := savedFixture(t)
	payload := data[:len(data)-trailerLen]
	sawBlockErr := false
	for at := len(payload) / 2; at < len(payload); at++ {
		mut := bytes.Clone(payload)
		mut[at] = 0xFF // force a multi-byte/overflowing varint mid-structure
		_, err := Load(bytes.NewReader(reseal(mut)))
		if err != nil && errors.Is(err, postings.ErrCorrupt) {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("flip at %d: block error %v not wrapped in ErrCorruptSnapshot", at, err)
			}
			sawBlockErr = true
		}
	}
	if !sawBlockErr {
		t.Error("no corruption surfaced through postings.ErrCorrupt block validation")
	}
}
