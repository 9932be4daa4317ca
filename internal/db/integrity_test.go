package db

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/fixture"
)

// savedFixture returns the serialized bytes of the fixture database with
// its index, ending in the integrity trailer.
func savedFixture(t *testing.T) []byte {
	t.Helper()
	d := New(Options{Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		t.Fatal(err)
	}
	d.Index()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const trailerLen = len(sumMagic) + 4

func TestSnapshotRoundTripWithTrailer(t *testing.T) {
	data := savedFixture(t)
	if len(data) < trailerLen || !bytes.Contains(data[len(data)-trailerLen:], []byte(sumMagic)) {
		t.Fatalf("saved file does not end in a %q trailer", sumMagic)
	}
	d, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Documents != 2 || st.Terms == 0 {
		t.Errorf("reloaded stats = %+v", st)
	}
}

// TestSnapshotLegacyWithoutTrailer: the trailer is mandatory. A file
// without one (simulated by stripping it) is rejected as corrupt — so a
// truncation that lands exactly on the payload boundary is caught too.
func TestSnapshotLegacyWithoutTrailer(t *testing.T) {
	data := savedFixture(t)
	legacy := data[:len(data)-trailerLen]
	if _, err := Load(bytes.NewReader(legacy)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("trailerless file: err = %v, want ErrCorruptSnapshot", err)
	}
}

func TestSnapshotTruncation(t *testing.T) {
	data := savedFixture(t)
	payload := len(data) - trailerLen
	// Cut points spread across the payload plus every partial-trailer
	// length; all must be rejected with an error (payload cuts fail the
	// decode, partial trailers fail the integrity check).
	cuts := []int{1, 3, payload / 4, payload / 2, payload - 1, payload}
	for i := 1; i < trailerLen; i++ {
		cuts = append(cuts, payload+i)
	}
	for _, cut := range cuts {
		_, err := Load(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Errorf("truncation at %d of %d accepted", cut, len(data))
			continue
		}
		if cut >= payload && !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("partial trailer at %d: err = %v, want ErrCorruptSnapshot", cut, err)
		}
	}
}

// TestSnapshotBitFlip: corrupting a payload byte that still decodes (a
// letter inside document text) is caught only by the checksum.
func TestSnapshotBitFlip(t *testing.T) {
	data := bytes.Clone(savedFixture(t))
	at := bytes.Index(data, []byte("Internet"))
	if at < 0 {
		t.Fatal("marker text not found in snapshot")
	}
	data[at] ^= 0x20 // 'I' -> 'i': still well-formed XML, different bytes
	_, err := Load(bytes.NewReader(data))
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("err = %v, want ErrCorruptSnapshot (checksum mismatch)", err)
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("error does not name the checksum: %v", err)
	}
}

func TestSnapshotTrailingGarbage(t *testing.T) {
	data := savedFixture(t)
	// After the trailer.
	withExtra := append(bytes.Clone(data), 'x')
	if _, err := Load(bytes.NewReader(withExtra)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Errorf("byte after trailer: err = %v, want ErrCorruptSnapshot", err)
	}
	// Instead of the trailer: 12+ bytes that are not the trailer magic.
	legacy := data[:len(data)-trailerLen]
	bad := append(bytes.Clone(legacy), []byte("not a trailer!")...)
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Errorf("garbage instead of trailer: err = %v, want ErrCorruptSnapshot", err)
	}
}

func TestSnapshotCorruptTrailerChecksumBytes(t *testing.T) {
	data := bytes.Clone(savedFixture(t))
	data[len(data)-1] ^= 0xff // flip the checksum itself
	_, err := Load(bytes.NewReader(data))
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
	}
}
