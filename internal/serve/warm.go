package serve

import "steppingnet/internal/serve/cache"

// CachePeek returns the live cache entry for k without counting a hit
// or miss and without refreshing recency — the export half of
// affinity-aware cache warming: the cluster router reads a spilled
// key's entry off its HRW winner here to transfer it to the replica
// the spill landed on. The returned entry is shared and immutable.
// Always a miss on a cache-less server.
func (s *Server) CachePeek(k cache.Key) (*cache.Entry, bool) {
	if s.cache == nil {
		return nil, false
	}
	return s.cache.Peek(k)
}

// WarmInstall offers an entry transferred from a peer replica to the
// local cache and reports whether it was stored — the import half of
// affinity-aware warming. Replicas serve the same frozen model, so a
// peer's walk is as valid here as a local one; it competes under the
// normal widest-rung-wins and LRU rules, so warming can never evict
// hotter local work with narrower remote walks. It skips the
// admission doorkeeper (cache.Cache.Admit): a peer only transfers a
// key that is already in demand. Installed entries are
// counted in Snapshot.CacheWarmed. A no-op on a cache-less server.
func (s *Server) WarmInstall(k cache.Key, e *cache.Entry) bool {
	if s.cache == nil {
		return false
	}
	if !s.cache.Put(k, e) {
		return false
	}
	s.warmed.Add(1)
	return true
}
