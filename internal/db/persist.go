package db

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/index"
	"repro/internal/postings"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Segment file format (TIXDB2):
//
//	magic   "TIXDB2\n"
//	options stemming byte (0/1), uvarint stopword count, stopwords
//	docs    uvarint count; per doc: name, serialized XML
//	index   presence byte; if 1 the index section
//	trailer "TIXSUM1\n" + 4-byte little-endian IEEE CRC32 of every byte
//	        before the trailer
//
// The index section stores each term's encoded blocks verbatim, so loading
// adopts the bytes without re-encoding: uvarint term count; per term: the
// term, uvarint posting count, uvarint block count, then per block the
// skip entry as uvarints (posting count in block, payload byte length,
// first doc, last doc − first doc, last pos, max per-doc frequency),
// followed by the concatenated block payloads. Every block is fully
// validated by postings.NewBlockList at load.
//
// Strings are uvarint length + bytes. The XML serialization round-trips
// through the same parser used at load time, so the region encoding and
// node ordinals of a reloaded segment are identical to the original's.
//
// The trailer is mandatory: a missing or partial trailer, a checksum
// mismatch, or bytes after the trailer are rejected with an error wrapping
// ErrCorruptSnapshot. The sharded container (internal/shard) embeds one
// segment file per shard and frames itself with the same Writer/Reader.
const fileMagic = "TIXDB2\n"

// sumMagic introduces the integrity trailer.
const sumMagic = "TIXSUM1\n"

// ErrCorruptSnapshot marks snapshot integrity failures: a truncated or
// missing trailer, a checksum mismatch, trailing garbage, an implausible
// count, or an invalid encoded posting block. Test with errors.Is.
var ErrCorruptSnapshot = errors.New("snapshot: corrupt database file")

// Writer frames one snapshot: every byte written through it is hashed,
// and Close appends the CRC32 trailer. Write errors latch in the buffer
// and surface from Close.
type Writer struct {
	w  io.Writer
	h  hash.Hash32
	bw *bufio.Writer
}

// NewWriter starts a snapshot frame on w.
func NewWriter(w io.Writer) *Writer {
	h := crc32.NewIEEE()
	return &Writer{w: w, h: h, bw: bufio.NewWriter(io.MultiWriter(w, h))}
}

// Write writes p verbatim.
func (w *Writer) Write(p []byte) (int, error) { return w.bw.Write(p) }

// Byte writes one byte.
func (w *Writer) Byte(b byte) { _ = w.bw.WriteByte(b) }

// Uvarint writes v as a uvarint.
func (w *Writer) Uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, _ = w.bw.Write(buf[:n])
}

// String writes s as a uvarint length and its bytes.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	_, _ = w.bw.WriteString(s)
}

// Close flushes the frame and appends the trailer, which stays outside
// its own sum.
func (w *Writer) Close() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	var tr [len(sumMagic) + 4]byte
	copy(tr[:], sumMagic)
	binary.LittleEndian.PutUint32(tr[len(sumMagic):], w.h.Sum32())
	_, err := w.w.Write(tr[:])
	return err
}

// Reader reads one snapshot frame, hashing exactly the bytes its consumer
// reads. It wraps the buffered reader (not the other way round), so
// bufio's readahead cannot pull trailer bytes into the payload hash.
type Reader struct {
	raw *bufio.Reader
	h   hash.Hash32
}

// NewReader starts reading a snapshot frame from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{raw: bufio.NewReader(r), h: crc32.NewIEEE()}
}

// Read implements io.Reader over the hashed payload.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.raw.Read(p)
	r.h.Write(p[:n])
	return n, err
}

// ReadByte implements io.ByteReader over the hashed payload.
func (r *Reader) ReadByte() (byte, error) {
	b, err := r.raw.ReadByte()
	if err == nil {
		r.h.Write([]byte{b})
	}
	return b, err
}

// Magic reads len(want) bytes and checks them against want.
func (r *Reader) Magic(want string) error {
	magic := make([]byte, len(want))
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("snapshot: load: %w", err)
	}
	if string(magic) != want {
		return fmt.Errorf("snapshot: load: bad magic %q", magic)
	}
	return nil
}

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	b, err := r.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("snapshot: load: %w", err)
	}
	return b, nil
}

// Uvarint reads a uvarint.
func (r *Reader) Uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("snapshot: load: %w", err)
	}
	return v, nil
}

// Bytes reads exactly n bytes in bounded chunks: a lying length on a
// corrupted file must not force a giant up-front allocation before the
// short read surfaces.
func (r *Reader) Bytes(n uint64) ([]byte, error) {
	const chunk = 1 << 16
	buf := make([]byte, 0, min(n, chunk))
	for remaining := n; remaining > 0; {
		k := min(remaining, chunk)
		start := len(buf)
		buf = append(buf, make([]byte, k)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, fmt.Errorf("snapshot: load: %w", err)
		}
		remaining -= k
	}
	return buf, nil
}

// String reads a uvarint-length-prefixed string.
func (r *Reader) String() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	const maxString = 1 << 30
	if n > maxString {
		return "", fmt.Errorf("snapshot: load: implausible string length %d: %w", n, ErrCorruptSnapshot)
	}
	buf, err := r.Bytes(n)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// Close checks the integrity trailer once the payload has been fully
// consumed (and hashed), and that nothing follows it.
func (r *Reader) Close() error {
	tr := make([]byte, len(sumMagic)+4)
	if n, err := io.ReadFull(r.raw, tr); err != nil {
		return fmt.Errorf("snapshot: load: truncated or missing integrity trailer (%d of %d bytes): %w", n, len(tr), ErrCorruptSnapshot)
	}
	if string(tr[:len(sumMagic)]) != sumMagic {
		return fmt.Errorf("snapshot: load: unexpected data after payload (missing %q trailer): %w", sumMagic, ErrCorruptSnapshot)
	}
	want := binary.LittleEndian.Uint32(tr[len(sumMagic):])
	if got := r.h.Sum32(); got != want {
		return fmt.Errorf("snapshot: load: checksum mismatch (file %08x, payload %08x): %w", want, got, ErrCorruptSnapshot)
	}
	if _, err := r.raw.ReadByte(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("snapshot: load: data after integrity trailer: %w", ErrCorruptSnapshot)
	}
	return nil
}

// persistViewLocked resolves the mutable live layer into a persistable
// (documents, flat index) pair. Caller holds d.mu, so the view is a
// consistent point-in-time cut: no mutation can land mid-save.
//
//   - Never indexed: just the documents, no index section.
//   - Mutated without deletes: fold memtables and segments into one flat
//     segment (document ids are already dense), then save its blocks
//     verbatim.
//   - With deletes: reload renumbers documents densely, so the sparse
//     surviving ids cannot be written as-is. Rebuild a fresh store holding
//     only visible documents (re-densifying ids in original order) and
//     index it from scratch.
func (d *DB) persistViewLocked() ([]*storage.Document, *index.Index, error) {
	if d.live == nil {
		return d.store.Docs(), nil, nil
	}
	if d.live.DeadCount() == 0 {
		d.live.Compact()
		return d.store.Docs(), d.live.Snapshot(), nil
	}
	fresh := storage.NewStore()
	for _, doc := range d.store.Docs() {
		if d.live.IsDead(doc.ID) {
			continue
		}
		if _, err := fresh.AddTree(doc.Name, doc.Root); err != nil {
			return nil, nil, fmt.Errorf("db: save: %w", err)
		}
	}
	idx, err := index.BuildChecked(fresh, d.tok)
	if err != nil {
		return nil, nil, fmt.Errorf("db: save: %w", err)
	}
	return fresh.Docs(), idx, nil
}

// Save writes the segment — documents, options and the inverted index
// with its encoded posting blocks verbatim — to w, followed by the CRC32
// integrity trailer.
func (d *DB) Save(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	docs, idx, err := d.persistViewLocked()
	if err != nil {
		return err
	}
	fw := NewWriter(w)
	_, _ = fw.Write([]byte(fileMagic))
	stem := byte(0)
	if d.opts.Stemming {
		stem = 1
	}
	fw.Byte(stem)
	fw.Uvarint(uint64(len(d.opts.Stopwords)))
	for _, sw := range d.opts.Stopwords {
		fw.String(sw)
	}
	fw.Uvarint(uint64(len(docs)))
	for _, doc := range docs {
		fw.String(doc.Name)
		fw.String(xmltree.XMLString(doc.Root))
	}
	if idx == nil {
		fw.Byte(0)
		return fw.Close()
	}
	fw.Byte(1)
	if err := writeIndex(fw, idx); err != nil {
		return err
	}
	return fw.Close()
}

// writeIndex emits the block-compressed index section: skip tables as
// uvarints, block payloads verbatim — no re-encode at load.
func writeIndex(fw *Writer, idx *index.Index) error {
	terms := idx.TermsByFreq()
	fw.Uvarint(uint64(len(terms)))
	for _, term := range terms {
		fw.String(term)
		bl := idx.BlockList(term)
		if bl == nil {
			// persistViewLocked always hands over a flat index; a merged
			// list here is an invariant violation, not a user error.
			return fmt.Errorf("db: save: no flat block list for %q", term)
		}
		skips := bl.Skips()
		payload := bl.Payload()
		fw.Uvarint(uint64(bl.Len()))
		fw.Uvarint(uint64(len(skips)))
		prevEnd := uint32(0)
		for bi, sk := range skips {
			blockEnd := len(payload)
			if bi+1 < len(skips) {
				blockEnd = int(skips[bi+1].Off)
			}
			fw.Uvarint(uint64(sk.End - prevEnd))
			fw.Uvarint(uint64(blockEnd) - uint64(sk.Off))
			fw.Uvarint(uint64(sk.FirstDoc))
			fw.Uvarint(uint64(sk.LastDoc - sk.FirstDoc))
			fw.Uvarint(uint64(sk.LastPos))
			fw.Uvarint(uint64(sk.MaxFreq))
			prevEnd = sk.End
		}
		_, _ = fw.Write(payload)
	}
	return nil
}

// Load reads a segment written by Save, verifying the integrity trailer.
func Load(r io.Reader) (*DB, error) {
	br := NewReader(r)
	if err := br.Magic(fileMagic); err != nil {
		return nil, err
	}
	stem, err := br.Byte()
	if err != nil {
		return nil, err
	}
	nStop, err := br.Uvarint()
	if err != nil {
		return nil, err
	}
	opts := Options{Stemming: stem == 1}
	for i := uint64(0); i < nStop; i++ {
		sw, err := br.String()
		if err != nil {
			return nil, err
		}
		opts.Stopwords = append(opts.Stopwords, sw)
	}
	d := New(opts)

	nDocs, err := br.Uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nDocs; i++ {
		name, err := br.String()
		if err != nil {
			return nil, err
		}
		xmlSrc, err := br.String()
		if err != nil {
			return nil, err
		}
		if err := d.LoadString(name, xmlSrc); err != nil {
			return nil, err
		}
	}

	hasIndex, err := br.Byte()
	if err != nil {
		return nil, err
	}
	if hasIndex != 0 {
		if err := loadIndex(d, br); err != nil {
			return nil, err
		}
	}
	if err := br.Close(); err != nil {
		return nil, err
	}
	return d, nil
}

// loadIndex reads the block-compressed index section: skip tables are
// reconstructed from their uvarint deltas and the payload bytes adopted
// verbatim; postings.NewBlockList fully validates every block, so a
// malformed section is rejected here rather than during query decode.
func loadIndex(d *DB, br *Reader) error {
	nTerms, err := br.Uvarint()
	if err != nil {
		return err
	}
	lists := make(map[string]*postings.BlockList, min(nTerms, 1<<16))
	for i := uint64(0); i < nTerms; i++ {
		term, err := br.String()
		if err != nil {
			return err
		}
		nPost, err := br.Uvarint()
		if err != nil {
			return err
		}
		const sanity = 1 << 31
		if nPost > sanity {
			return fmt.Errorf("db: load: implausible posting count %d for %q: %w", nPost, term, ErrCorruptSnapshot)
		}
		nBlocks, err := br.Uvarint()
		if err != nil {
			return err
		}
		if nBlocks > nPost {
			return fmt.Errorf("db: load: %d blocks for %d postings of %q: %w", nBlocks, nPost, term, ErrCorruptSnapshot)
		}
		skips := make([]postings.Skip, 0, min(nBlocks, 1<<16))
		var off, end uint64
		for b := uint64(0); b < nBlocks; b++ {
			var v [6]uint64
			for k := range v {
				if v[k], err = br.Uvarint(); err != nil {
					return err
				}
			}
			cnt, byteLen, firstDoc, docSpan, lastPos, maxFreq := v[0], v[1], v[2], v[3], v[4], v[5]
			if cnt < 1 || cnt > postings.BlockSize {
				return fmt.Errorf("db: load: block %d of %q holds %d postings: %w", b, term, cnt, ErrCorruptSnapshot)
			}
			end += cnt
			if end > nPost {
				return fmt.Errorf("db: load: blocks of %q cover more than %d postings: %w", term, nPost, ErrCorruptSnapshot)
			}
			if byteLen == 0 || off+byteLen > math.MaxUint32 {
				return fmt.Errorf("db: load: implausible block payload length %d for %q: %w", byteLen, term, ErrCorruptSnapshot)
			}
			if firstDoc+docSpan >= math.MaxInt32 {
				return fmt.Errorf("db: load: implausible document range for %q: %w", term, ErrCorruptSnapshot)
			}
			if lastPos > math.MaxUint32 || maxFreq > cnt {
				return fmt.Errorf("db: load: implausible skip entry for %q: %w", term, ErrCorruptSnapshot)
			}
			skips = append(skips, postings.Skip{
				FirstDoc: storage.DocID(firstDoc),
				LastDoc:  storage.DocID(firstDoc + docSpan),
				LastPos:  uint32(lastPos),
				MaxFreq:  uint32(maxFreq),
				Off:      uint32(off),
				End:      uint32(end),
			})
			off += byteLen
		}
		if end != nPost {
			return fmt.Errorf("db: load: blocks of %q cover %d of %d postings: %w", term, end, nPost, ErrCorruptSnapshot)
		}
		payload, err := br.Bytes(off)
		if err != nil {
			return err
		}
		bl, err := postings.NewBlockList(int(nPost), skips, payload)
		if err != nil {
			return fmt.Errorf("db: load: postings for %q: %w: %w", term, ErrCorruptSnapshot, err)
		}
		lists[term] = bl
	}
	// The adopted index restarts the generation counter; the segment has
	// served no query yet, so nothing keyed on the old counter exists.
	d.mu.Lock()
	d.live = index.LiveFromIndex(index.RestoreBlocks(d.store, d.tok, lists), d.opts.Ingest)
	d.mu.Unlock()
	return nil
}
