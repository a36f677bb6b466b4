package pipeline

import (
	"context"
	"sync"

	"memfp/internal/faultsim"
	"memfp/internal/platform"
)

// FleetKey identifies one cacheable synthetic fleet. Every experiment in
// the paper starts from the per-platform fleet at some (scale, seed), so
// this triple is the natural unit of sharing.
type FleetKey struct {
	Platform platform.ID
	Scale    float64
	Seed     uint64
}

// CacheStats is a FleetCache hit/miss snapshot.
type CacheStats struct {
	// Hits counts Gets served from an existing entry (including waits on
	// an in-flight generation).
	Hits int64
	// Misses counts Gets that triggered a generation.
	Misses int64
	// Bypasses counts Gets that skipped the cache because the config
	// carried non-key knobs (custom calibration or event caps).
	Bypasses int64
	// Entries is the number of fleets currently cached.
	Entries int
}

// FleetCache generates each (platform, scale, seed) fleet exactly once and
// hands the shared, immutable result to every consumer. It is safe for
// concurrent use: simultaneous Gets for the same key coalesce onto a
// single generation (singleflight), with latecomers blocking until the
// leader finishes.
//
// Cached results are shared — consumers must treat the returned
// faultsim.Result as read-only.
type FleetCache struct {
	mu       sync.Mutex
	entries  map[FleetKey]*cacheEntry
	hits     int64
	misses   int64
	bypasses int64
}

type cacheEntry struct {
	ready chan struct{} // closed once res/err are populated
	res   *faultsim.Result
	err   error
}

// NewFleetCache returns an empty cache.
func NewFleetCache() *FleetCache {
	return &FleetCache{entries: map[FleetKey]*cacheEntry{}}
}

// Shared is the process-wide default cache. Experiment runners, CLIs and
// examples route fleet generation through it unless they supply their
// own cache.
//
// The cache has no eviction: every distinct (platform, scale, seed) fleet
// is retained until process exit. That is the intended trade-off —
// sharing one immutable fleet across every consumer is the point — but
// long-lived processes sweeping many scales or seeds should use a private
// NewFleetCache per sweep to bound peak memory.
var Shared = NewFleetCache()

// Generate fetches a fleet through the Shared cache.
func Generate(ctx context.Context, cfg faultsim.Config) (*faultsim.Result, error) {
	return Shared.Get(ctx, cfg)
}

// Get returns the fleet for cfg, generating it on first use. Configs
// carrying knobs outside the cache key (a calibration override or event
// cap) bypass the cache and generate directly, so ablations can never be
// served a mismatched fleet. cfg.Workers deliberately does NOT bypass or
// key the cache: the parallel generator is byte-identical for every worker
// count, so fleets generated at different concurrency are interchangeable.
// Waiting on an in-flight generation respects ctx; the generation itself
// is charged to the first caller.
func (c *FleetCache) Get(ctx context.Context, cfg faultsim.Config) (*faultsim.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Calib != nil || cfg.MaxEventsPerDIMM != 0 {
		c.mu.Lock()
		c.bypasses++
		c.mu.Unlock()
		return faultsim.GenerateCtx(ctx, cfg)
	}
	key := FleetKey{Platform: cfg.Platform, Scale: cfg.Scale, Seed: cfg.Seed}

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		select {
		case <-e.ready:
			return e.res, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	// The leader's ctx governs the generation itself, so cancellation
	// actually stops the work; a canceled generation is dropped like any
	// other failure, and a later Get retries from scratch.
	e.res, e.err = faultsim.GenerateCtx(ctx, cfg)
	if e.err != nil {
		// Drop failed generations so a later Get can retry.
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
	}
	close(e.ready)
	return e.res, e.err
}

// Stats returns a consistent snapshot of the cache counters.
func (c *FleetCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Bypasses: c.bypasses, Entries: len(c.entries)}
}
