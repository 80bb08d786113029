package ship

import "logicallog/internal/cache"

// CacheForTest exposes the standby's volatile apply state to tests.
func (s *Standby) CacheForTest() *cache.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mgr
}
