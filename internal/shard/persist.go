package shard

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/db"
	"repro/internal/storage"
)

// Database file format (TIXSHD1), the one snapshot format:
//
//	magic    "TIXSHD1\n"
//	layout   strategy byte, uvarint shard count
//	docs     uvarint count; per doc (global order): name, uvarint shard
//	segments per shard: uvarint byte length, then a complete TIXDB2
//	         segment file (db.Save output, its own "TIXSUM1\n"+CRC32
//	         trailer intact)
//	trailer  "TIXSUM1\n" + 4-byte little-endian IEEE CRC32 of every byte
//	         before the trailer
//
// Integrity is two-layer: the container trailer covers the whole file,
// and each embedded segment still carries (and re-verifies through
// db.Load) its own trailer, so a flipped bit is attributed to the shard
// it corrupted. The container is framed with the segment format's own
// db.Writer/db.Reader, and corruption at either layer wraps
// db.ErrCorruptSnapshot.
const fileMagic = "TIXSHD1\n"

// maxShards bounds the shard count a container may declare — far above
// any real deployment, low enough that a corrupted count cannot drive
// allocations.
const maxShards = 1 << 16

// Save writes the sharded database — layout, document placement, and one
// complete db.Save snapshot per segment — to w, followed by the container
// integrity trailer. It holds the routing lock throughout, so no routed
// mutation lands between the placement and the segments it describes.
//
// A segment snapshot holds only its live documents, renumbered densely in
// local order, so the placement lists exactly those: deleted documents and
// the superseded versions of updated ones are left out. Load renumbers
// the global ids densely in placement order.
func (s *DB) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for gid, ref := range s.docs {
		if ref.shard < 0 {
			return fmt.Errorf("shard: save: global id %d is a burned slot (drifted replica; re-sync from a healthy copy instead of saving)", gid)
		}
	}
	placement := s.livePlacementLocked()
	fw := db.NewWriter(w)
	_, _ = fw.Write([]byte(fileMagic))
	fw.Byte(byte(s.opts.Strategy))
	fw.Uvarint(uint64(len(s.segs)))
	fw.Uvarint(uint64(len(placement)))
	for _, gid := range placement {
		fw.String(s.names[gid])
		fw.Uvarint(uint64(s.docs[gid].shard))
	}
	for _, seg := range s.segs {
		var buf bytes.Buffer
		if err := seg.Save(&buf); err != nil {
			return err
		}
		fw.Uvarint(uint64(buf.Len()))
		_, _ = fw.Write(buf.Bytes())
	}
	return fw.Close()
}

// livePlacementLocked lists the global ids of the live documents so that
// each segment's documents appear in local order — the order its snapshot
// writes them in — merged across segments by global id (an Update gives a
// document a larger local id but keeps its global one, so one segment's
// run need not be sorted by global id). Caller holds s.mu.
func (s *DB) livePlacementLocked() []storage.DocID {
	runs := make([][]storage.DocID, len(s.segs))
	total := 0
	for i, globals := range s.globalOf {
		for local, gid := range globals {
			ref := s.docs[gid]
			if ref.shard != i || int(ref.local) != local {
				continue // a superseded version of an updated document
			}
			if live, ok := s.byName[s.names[gid]]; !ok || live != gid {
				continue // deleted
			}
			runs[i] = append(runs[i], gid)
		}
		total += len(runs[i])
	}
	out := make([]storage.DocID, 0, total)
	for len(out) < total {
		pick := -1
		for i, run := range runs {
			if len(run) > 0 && (pick < 0 || run[0] < runs[pick][0]) {
				pick = i
			}
		}
		out = append(out, runs[pick][0])
		runs[pick] = runs[pick][1:]
	}
	return out
}

// SaveFile writes the sharded database to path.
func (s *DB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a sharded database written by Save, verifying the container
// trailer and every segment's own trailer, and rebuilding the global
// document numbering. The declared placement is cross-checked against
// each segment's actual contents.
func Load(r io.Reader) (*DB, error) {
	br := db.NewReader(r)
	if err := br.Magic(fileMagic); err != nil {
		return nil, err
	}
	strat, err := br.Byte()
	if err != nil {
		return nil, err
	}
	nShards, err := br.Uvarint()
	if err != nil {
		return nil, err
	}
	if nShards < 1 || nShards > maxShards {
		return nil, fmt.Errorf("shard: load: implausible shard count %d: %w", nShards, db.ErrCorruptSnapshot)
	}
	nDocs, err := br.Uvarint()
	if err != nil {
		return nil, err
	}
	if nDocs > 1<<31 {
		return nil, fmt.Errorf("shard: load: implausible document count %d: %w", nDocs, db.ErrCorruptSnapshot)
	}
	type placement struct {
		name  string
		shard int
	}
	placements := make([]placement, 0, min(nDocs, 1<<16))
	for i := uint64(0); i < nDocs; i++ {
		name, err := br.String()
		if err != nil {
			return nil, err
		}
		sh, err := br.Uvarint()
		if err != nil {
			return nil, err
		}
		if sh >= nShards {
			return nil, fmt.Errorf("shard: load: document %q placed on shard %d of %d: %w",
				name, sh, nShards, db.ErrCorruptSnapshot)
		}
		placements = append(placements, placement{name: name, shard: int(sh)})
	}
	segs := make([]*db.DB, nShards)
	for i := range segs {
		segLen, err := br.Uvarint()
		if err != nil {
			return nil, err
		}
		if segLen > 1<<31 {
			return nil, fmt.Errorf("shard: load: implausible segment length %d: %w", segLen, db.ErrCorruptSnapshot)
		}
		seg, err := db.Load(io.LimitReader(br, int64(segLen)))
		if err != nil {
			return nil, fmt.Errorf("shard: load: segment %d: %w", i, err)
		}
		segs[i] = seg
	}
	if err := br.Close(); err != nil {
		return nil, err
	}

	// Rebuild the facade: segment options drive the shard options, and
	// the declared placement must match what each segment actually holds,
	// in order.
	base := segs[0].Options()
	s := New(Options{
		Shards:    int(nShards),
		Strategy:  Strategy(strat),
		Stemming:  base.Stemming,
		Stopwords: base.Stopwords,
	})
	s.segs = segs
	cursors := make([]int, nShards)
	for _, p := range placements {
		segDocs := segs[p.shard].Store().Docs()
		k := cursors[p.shard]
		if k >= len(segDocs) || segDocs[k].Name != p.name {
			return nil, fmt.Errorf("shard: load: placement of %q does not match segment %d contents: %w",
				p.name, p.shard, db.ErrCorruptSnapshot)
		}
		cursors[p.shard]++
		if _, dup := s.byName[p.name]; dup {
			return nil, fmt.Errorf("shard: load: duplicate document %q: %w", p.name, db.ErrCorruptSnapshot)
		}
		s.track(p.name, p.shard, segDocs[k].ID)
	}
	for i, seg := range segs {
		if cursors[i] != seg.Store().NumDocs() {
			return nil, fmt.Errorf("shard: load: segment %d holds %d documents, placement lists %d: %w",
				i, seg.Store().NumDocs(), cursors[i], db.ErrCorruptSnapshot)
		}
	}
	return s, nil
}

// LoadFile reads a sharded database file written by SaveFile.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Reshard redistributes the corpus across n shards under the given
// strategy, reusing the already-parsed document trees of the live
// documents. Indexes are rebuilt lazily (or via Warm) on the new instance.
func (s *DB) Reshard(n int, strategy Strategy) (*DB, error) {
	out := New(Options{
		Shards:    n,
		Strategy:  strategy,
		Stemming:  s.opts.Stemming,
		Stopwords: s.opts.Stopwords,
		Metrics:   s.opts.Metrics,
		Limits:    s.opts.Limits,
	})
	for gid, ref := range s.docs {
		if live, ok := s.byName[s.names[gid]]; !ok || int(live) != gid {
			continue // deleted, or a burned slot
		}
		doc := s.segs[ref.shard].Store().Doc(ref.local)
		if doc == nil {
			return nil, fmt.Errorf("shard: reshard: document %q missing from segment %d", s.names[gid], ref.shard)
		}
		if err := out.LoadTree(doc.Name, doc.Root); err != nil {
			return nil, fmt.Errorf("shard: reshard: %w", err)
		}
	}
	return out, nil
}
