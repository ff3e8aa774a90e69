package core

import (
	"sync"
	"sync/atomic"
	"time"

	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/obs"
	"schemr/internal/shard"
)

// profileCache holds one precomputed match.Profile per schema ID. Profiles
// are immutable; the cache is safe for concurrent use by the parallel match
// workers. It is partitioned with the same hash the index shard group uses
// (one partition per index shard, one for an unsharded engine), so lock
// contention scales down with the shard count and a schema's profile lives
// alongside its index shard.
//
// Staleness is impossible by construction: every profile remembers the exact
// *model.Schema value it was built from, the repository replaces that value
// on any schema update, and get only returns a cached profile whose schema
// is identical (pointer equality) to the value the caller just fetched from
// the repository. The change-feed eviction in Sync/Reindex is therefore a
// memory-hygiene mechanism — it drops superseded and deleted entries — not
// the correctness mechanism, so a search racing a Sync can never score a new
// schema through an old profile no matter how the operations interleave.
type profileCache struct {
	parts []profilePart
	total atomic.Int64 // live entries across partitions, mirrored to size
	// off makes get build a fresh profile every time and keep none
	// (Options.DisableProfileCache), so the map stays empty.
	off bool

	// Observability instruments (nil-safe; nil when metrics are disabled).
	// hits/misses measure the lookup economics on the search path; evicts
	// counts change-feed invalidations and resets; build is the latency of
	// match.NewProfile, the one-time cost a miss pays; grams tracks the
	// process-wide n-gram dictionary profile builds intern into.
	hits   *obs.Counter
	misses *obs.Counter
	evicts *obs.Counter
	size   *obs.Gauge
	build  *obs.Histogram
	grams  *obs.Gauge
}

type profilePart struct {
	mu sync.RWMutex
	m  map[string]*match.Profile
}

func newProfileCache(shards int, off bool) *profileCache {
	if shards < 1 {
		shards = 1
	}
	c := &profileCache{parts: make([]profilePart, shards), off: off}
	for i := range c.parts {
		c.parts[i].m = make(map[string]*match.Profile)
	}
	return c
}

// part returns the partition owning id — shard.Partition, so the profile of
// a schema is cached next to the index shard that retrieves it.
func (c *profileCache) part(id string) *profilePart {
	return &c.parts[shard.Partition(id, len(c.parts))]
}

// instrument registers the cache's metric families on reg. Called once at
// engine construction, before any concurrent use.
func (c *profileCache) instrument(reg *obs.Registry) {
	c.hits = reg.Counter("schemr_profile_cache_hits_total", "Match-profile cache lookups served from cache.", nil)
	c.misses = reg.Counter("schemr_profile_cache_misses_total", "Match-profile cache lookups that built a profile.", nil)
	c.evicts = reg.Counter("schemr_profile_cache_evictions_total", "Match profiles evicted via the change feed or reset.", nil)
	c.size = reg.Gauge("schemr_profile_cache_size", "Match profiles currently cached.", nil)
	c.build = reg.Histogram("schemr_profile_build_seconds", "Latency of building one match profile (cache-miss cost).", nil, nil)
	c.grams = reg.Gauge("schemr_profile_gram_dictionary_size", "Distinct name n-grams interned by match profiles since process start.", nil)
	c.grams.Set(int64(match.GramDictSize()))
}

// get returns the profile for (id, s), building and caching one when the
// cached entry is missing or was built from a different schema value. A
// disabled cache builds one per call and keeps none.
func (c *profileCache) get(id string, s *model.Schema) *match.Profile {
	pt := c.part(id)
	pt.mu.RLock()
	p := pt.m[id]
	pt.mu.RUnlock()
	if p != nil && p.Schema() == s {
		c.hits.Inc()
		return p
	}
	c.misses.Inc()
	if c.build != nil {
		start := time.Now()
		p = match.NewProfile(s)
		c.build.ObserveDuration(time.Since(start))
		c.grams.Set(int64(match.GramDictSize()))
	} else {
		p = match.NewProfile(s)
	}
	if c.off {
		return p
	}
	pt.mu.Lock()
	// Keep a racing writer's profile if it is for the same schema value;
	// both are equivalent, but not replacing it lets concurrent readers of
	// the published entry keep hitting one instance.
	if cur := pt.m[id]; cur == nil || cur.Schema() != s {
		if cur == nil {
			c.total.Add(1)
		}
		pt.m[id] = p
	} else {
		p = cur
	}
	pt.mu.Unlock()
	c.size.Set(c.total.Load())
	return p
}

// put installs an eagerly built profile.
func (c *profileCache) put(id string, p *match.Profile) {
	pt := c.part(id)
	pt.mu.Lock()
	if _, ok := pt.m[id]; !ok {
		c.total.Add(1)
	}
	pt.m[id] = p
	pt.mu.Unlock()
	c.size.Set(c.total.Load())
	if c.grams != nil {
		c.grams.Set(int64(match.GramDictSize()))
	}
}

// drop evicts the given IDs (missing IDs are ignored).
func (c *profileCache) drop(ids ...string) {
	if len(ids) == 0 {
		return
	}
	for _, id := range ids {
		pt := c.part(id)
		pt.mu.Lock()
		if _, ok := pt.m[id]; ok {
			c.evicts.Inc()
			c.total.Add(-1)
			delete(pt.m, id)
		}
		pt.mu.Unlock()
	}
	c.size.Set(c.total.Load())
}

// reset empties the cache.
func (c *profileCache) reset() {
	for i := range c.parts {
		pt := &c.parts[i]
		pt.mu.Lock()
		c.evicts.Add(uint64(len(pt.m)))
		c.total.Add(-int64(len(pt.m)))
		pt.m = make(map[string]*match.Profile)
		pt.mu.Unlock()
	}
	c.size.Set(c.total.Load())
}

// count returns the number of cached profiles.
func (c *profileCache) count() int {
	return int(c.total.Load())
}
