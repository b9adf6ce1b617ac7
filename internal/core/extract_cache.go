package core

import (
	"context"
	"slices"
	"sync"

	"repro/internal/recorder"
)

// The extraction cache shares one Extract result per trace across every
// analysis surface (conflicts, patterns, reports, SVG/CSV figures). Traces
// are immutable once recorded and FileAccesses are never mutated by
// consumers (patterns and reports build their own index slices), so sharing
// is read-only safe; see DESIGN.md §11.
//
// The cache is keyed by trace identity (the *recorder.Trace), holds at most
// extractCacheCap entries, and evicts in insertion (FIFO) order — analysis
// sweeps visit each trace in bursts and never revisit old ones, so FIFO
// behaves like LRU here without the bookkeeping.

const extractCacheCap = 32

type extractionEntry struct {
	once sync.Once
	fas  []*FileAccesses
	err  error
}

type extractionCache struct {
	mu    sync.Mutex
	byTr  map[*recorder.Trace]*extractionEntry
	order []*recorder.Trace // insertion order, for FIFO eviction
}

var extractions = extractionCache{byTr: make(map[*recorder.Trace]*extractionEntry)}

// acquire returns the trace's entry, creating (and possibly evicting) under
// the lock. The extraction itself runs outside the lock, guarded by the
// entry's once, so concurrent callers for the same trace coalesce into a
// single extraction while other traces proceed independently.
func (c *extractionCache) acquire(tr *recorder.Trace) *extractionEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byTr[tr]; ok {
		extractCacheHits.Inc()
		return e
	}
	extractCacheMisses.Inc()
	if len(c.order) >= extractCacheCap {
		evict := c.order[0]
		c.order = c.order[1:]
		delete(c.byTr, evict)
		extractCacheEvictions.Inc()
	}
	e := &extractionEntry{}
	c.byTr[tr] = e
	c.order = append(c.order, tr)
	return e
}

// drop removes tr's entry — when e is non-nil, only if the entry is still e.
func (c *extractionCache) drop(tr *recorder.Trace, e *extractionEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.byTr[tr]; !ok || (e != nil && cur != e) {
		return
	}
	delete(c.byTr, tr)
	if i := slices.Index(c.order, tr); i >= 0 {
		c.order = slices.Delete(c.order, i, i+1)
	}
}

// ExtractSharedCtx is Extract through the cache: the first call for a trace
// extracts on the given worker count and every later call returns the same
// slice. Callers must treat the result as read-only. A failed (cancelled)
// extraction is dropped from the cache so the error does not poison later
// calls.
func ExtractSharedCtx(ctx context.Context, tr *recorder.Trace, workers int) ([]*FileAccesses, error) {
	e := extractions.acquire(tr)
	e.once.Do(func() {
		e.fas, e.err = Extract(ctx, tr, workers)
		if e.err != nil {
			extractions.drop(tr, e)
		}
	})
	return e.fas, e.err
}

// ExtractShared is ExtractSharedCtx(context.Background(), tr, 1). The
// benchmark module (perfbench) still calls it; code in this module calls
// ExtractSharedCtx.
func ExtractShared(tr *recorder.Trace) []*FileAccesses {
	fas, _ := ExtractSharedCtx(context.Background(), tr, 1)
	return fas
}

// InvalidateExtraction evicts a trace's cached extraction. Benchmarks use it
// to measure the cold path; production code never needs it because traces
// are immutable.
func InvalidateExtraction(tr *recorder.Trace) { extractions.drop(tr, nil) }
