package lockorder

// ForwardOrder acquires strictly down the documented hierarchy.
func ForwardOrder(e *Engine, m *Manager, l *Log) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m.wgMu.Lock()
	defer m.wgMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
}

// SequentialHold releases one lock before taking the next, so no pair is
// ever held together.
func SequentialHold(m *Manager) {
	m.tableMu.Lock()
	m.tableMu.Unlock()
	m.wgMu.Lock()
	m.wgMu.Unlock()
}

// BatchThenMap is WriteBatch's nesting: the batch lock, then the object map
// for each installed entry.
func BatchThenMap(s *Store) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
}

// ReadPath pairs RLock with a deferred RUnlock.
func ReadPath(m *Manager) {
	m.tableMu.RLock()
	defer m.tableMu.RUnlock()
}
