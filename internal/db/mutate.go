package db

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/xmltree"
)

// Document mutation API: Add/Update/Delete run against the live index —
// an LSM layer of memtables and immutable block segments — so documents
// become queryable (or disappear) without a rebuild, concurrently with
// readers. Updates and re-adds allocate fresh document ids; the old id is
// tombstoned and never reused.
//
// Mutations record metrics per operation:
//
//	tix_ingest_seconds{op=add|update|delete}       latency histogram
//	tix_ingest_total{op=...}                       mutations attempted
//	tix_ingest_errors_total{op=...}                mutations that failed
//	tix_index_generation                           current mutation generation

// ErrDocumentExists marks an Add whose document name is already loaded
// (use Update to replace it).
var ErrDocumentExists = errors.New("db: document already exists")

// ErrDocumentNotFound marks an Update or Delete naming a document that is
// not loaded (or already deleted).
var ErrDocumentNotFound = errors.New("db: document not found")

const (
	opAdd    = "add"
	opUpdate = "update"
	opDelete = "delete"
)

// observeIngest records one mutation's latency and outcome.
func (d *DB) observeIngest(op string, start time.Time, err error) {
	reg := d.MetricsRegistry()
	lbl := `{op="` + op + `"}`
	reg.Histogram("tix_ingest_seconds" + lbl).Observe(time.Since(start).Seconds())
	reg.Counter("tix_ingest_total" + lbl).Inc()
	if err != nil {
		reg.Counter("tix_ingest_errors_total" + lbl).Inc()
	}
	reg.Gauge("tix_index_generation").Set(int64(d.Generation()))
}

// Generation returns the live index's mutation generation (0 before the
// index is first built). Equal generations imply an identical visible
// corpus, so clients can use it to detect staleness cheaply.
func (d *DB) Generation() uint64 {
	g, _ := d.CacheToken()
	return g
}

// CacheToken returns the generation token result-cache keys are minted
// under, with ok=false while the segment cannot produce a stable one: no
// live index exists yet (bulk loading), and store appends do not advance
// any generation counter.
func (d *DB) CacheToken() (uint64, bool) {
	d.mu.Lock()
	l := d.live
	d.mu.Unlock()
	if l == nil {
		return 0, false
	}
	return l.Generation(), true
}

// Add parses src and ingests it under name into the live index. The
// document is queryable as soon as Add returns. Adding a name that is
// already loaded fails with ErrDocumentExists.
func (d *DB) Add(name, src string) (err error) {
	start := time.Now()
	defer func() { d.observeIngest(opAdd, start, err) }()
	root, err := xmltree.ParseString(src)
	if err != nil {
		return fmt.Errorf("db: add %s: %w", name, err)
	}
	return d.AddTree(name, root)
}

// AddTree ingests an already-parsed tree under name into the live index.
func (d *DB) AddTree(name string, root *xmltree.Node) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.store.DocByName(name) != nil {
		return fmt.Errorf("%w: %q", ErrDocumentExists, name)
	}
	live := d.liveLocked()
	id, err := d.store.AddTree(name, root)
	if err != nil {
		return err
	}
	if err := live.IndexDoc(d.store.Doc(id)); err != nil {
		// The document was tombstoned by the live index; release the name
		// so a corrected version can be re-added.
		d.store.ReleaseName(name)
		return fmt.Errorf("db: add %s: %w", name, err)
	}
	return nil
}

// Update replaces the named document with a fresh parse of src: the old
// version is tombstoned and the new one ingested under a new document id,
// atomically with respect to other mutations. Readers switch from old to
// new at snapshot granularity.
func (d *DB) Update(name, src string) (err error) {
	start := time.Now()
	defer func() { d.observeIngest(opUpdate, start, err) }()
	root, err := xmltree.ParseString(src)
	if err != nil {
		return fmt.Errorf("db: update %s: %w", name, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.store.DocByName(name)
	if old == nil {
		return fmt.Errorf("%w: %q", ErrDocumentNotFound, name)
	}
	live := d.liveLocked()
	live.Delete(old.ID)
	d.store.ReleaseName(name)
	id, err := d.store.AddTree(name, root)
	if err != nil {
		return fmt.Errorf("db: update %s: %w", name, err)
	}
	if err := live.IndexDoc(d.store.Doc(id)); err != nil {
		d.store.ReleaseName(name)
		return fmt.Errorf("db: update %s: %w", name, err)
	}
	return nil
}

// Delete tombstones the named document: its postings stop flowing out of
// every cursor immediately and its store space is reclaimed by the next
// full compaction (or a Save, which persists only live documents). The
// name becomes available for a future Add.
func (d *DB) Delete(name string) (err error) {
	start := time.Now()
	defer func() { d.observeIngest(opDelete, start, err) }()
	d.mu.Lock()
	defer d.mu.Unlock()
	doc := d.store.DocByName(name)
	if doc == nil {
		return fmt.Errorf("%w: %q", ErrDocumentNotFound, name)
	}
	live := d.liveLocked()
	live.Delete(doc.ID)
	d.store.ReleaseName(name)
	return nil
}

// AllocatedDocIDs returns the document-id allocation cursor: the number
// of ids ever handed out, live or tombstoned. Ids are allocated
// sequentially and never reused, so two replicas that loaded the same
// corpus in the same order number documents identically exactly when
// their cursors stay equal; the replicated fleet compares cursors to
// detect and repair numbering drift after a partial replicated mutation.
func (d *DB) AllocatedDocIDs() int {
	return d.store.NumDocs()
}

// BurnDocID consumes one document id without making a document visible:
// a placeholder record is appended to the store and immediately
// tombstoned in the live index, so the next Add allocates the id after
// it. The replicated fleet burns ids on replicas that a partially-failed
// mutation never reached, re-aligning the numbering with the replicas
// that consumed an id before the failure (see fleet.Fleet.Add). Burned
// ids never appear in query results and, like all tombstones, are
// dropped by Save.
func (d *DB) BurnDocID() error {
	root, err := xmltree.ParseString("<burned/>")
	if err != nil {
		return fmt.Errorf("db: burn doc id: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	live := d.liveLocked()
	name := fmt.Sprintf("\x00burned\x00%d", d.store.NumDocs())
	id, err := d.store.AddTree(name, root)
	if err != nil {
		return fmt.Errorf("db: burn doc id: %w", err)
	}
	live.Delete(id)
	d.store.ReleaseName(name)
	return nil
}

// CompactNow synchronously folds the live index's memtables and segments
// into a single fresh segment, dropping tombstoned postings. Queries stay
// consistent throughout; afterwards a mutation-free database serves flat,
// block-max-prunable lists again.
func (d *DB) CompactNow() {
	d.liveIndex().Compact()
}

// WaitCompaction blocks until any in-flight background compaction
// finishes — deterministic shutdown and test hook.
func (d *DB) WaitCompaction() {
	d.mu.Lock()
	l := d.live
	d.mu.Unlock()
	if l != nil {
		l.WaitCompaction()
	}
}

// CompactionBacklog returns the live index's outstanding compaction work
// (sealed memtables plus surplus segments; see index.Live.Backlog), or 0
// before the index is first built. Readiness probes use it to report
// not-ready when ingestion has outrun folding.
func (d *DB) CompactionBacklog() int {
	d.mu.Lock()
	l := d.live
	d.mu.Unlock()
	if l == nil {
		return 0
	}
	return l.Backlog()
}
