package shard

import (
	"repro/internal/rescache"
)

// Result caching. The cache lives on the facade only, so one logical
// query is cached once, after the per-shard merge and the local→global id
// translation: TermSearchContext, PhraseSearchContext and QueryLimited
// consult it before evaluating, keyed by (canonicalized request,
// effective limits, generation token). Only successful evaluations are
// cached; hits still flow through the normal per-op metrics with zero
// store accesses. Cached slices are copied on both put and get, so
// in-place id rewrites can never corrupt a cached master.
//
// The generation token gates coherence. While a segment has no live index
// yet (bulk loading before the first query), store appends do not advance
// any generation counter, so two different corpus states would share a
// token; CacheToken reports ok=false for that phase and caching is
// skipped. Once every live index exists, every mutation advances a
// segment generation, and the token identifies the visible corpus
// (DESIGN.md §13).

// CacheToken returns the generation token facade cache keys are minted
// under: the sum of the segment generations, which advances on every
// routed mutation. ok=false while any segment lacks a live index (bulk
// loading), when segment store appends would not move the sum.
func (s *DB) CacheToken() (uint64, bool) {
	var sum uint64
	for _, seg := range s.segs {
		g, ok := seg.CacheToken()
		if !ok {
			return 0, false
		}
		sum += g
	}
	return sum, true
}

// EnableResultCache attaches a facade result cache with the given byte
// budget. No-op when one is attached already or maxBytes is not positive.
func (s *DB) EnableResultCache(maxBytes int64) {
	c := rescache.New(rescache.Config{
		MaxBytes:   maxBytes,
		Metrics:    s.MetricsRegistry(),
		Generation: s.CacheToken,
	})
	if c == nil {
		return
	}
	if !s.cache.CompareAndSwap(nil, c) {
		c.Close()
	}
}

// ResultCache returns the attached facade cache, or nil.
func (s *DB) ResultCache() *rescache.Cache { return s.cache.Load() }

// Close releases background resources (today: the result-cache
// sweeper). The database remains usable for queries afterwards.
func (s *DB) Close() {
	if c := s.cache.Load(); c != nil {
		c.Close()
	}
}

// queryCache returns the facade cache and the token to key with, or
// ok=false when this call must bypass caching.
func (s *DB) queryCache() (*rescache.Cache, uint64, bool) {
	c := s.cache.Load()
	if c == nil {
		return nil, 0, false
	}
	tok, ok := s.CacheToken()
	if !ok {
		return nil, 0, false
	}
	return c, tok, true
}
