package lockorder

// BackwardOrder takes the log mutex before the engine facade: rank 6 is
// held while rank 1 is acquired.
func BackwardOrder(l *Log, e *Engine) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.mu.Lock() // want "violates the documented lock order"
	defer e.mu.Unlock()
}

// TableBeforeGuard grabs the cache table lock and then the write-graph
// guard that is documented to come first.
func TableBeforeGuard(m *Manager) {
	m.tableMu.Lock()
	defer m.tableMu.Unlock()
	m.wgMu.Lock() // want "violates the documented lock order"
	defer m.wgMu.Unlock()
}

// MapBeforeBatch holds the stable object map and then takes the batch
// lock, which WriteBatch holds while it installs into the map.
func MapBeforeBatch(s *Store) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.batchMu.Lock() // want "violates the documented lock order"
	defer s.batchMu.Unlock()
}

// Leak never releases the lock it takes.
func Leak(e *Engine) { // leaks on any early return
	e.mu.Lock() // want "no matching Unlock"
}

// ReadLeak never releases a read lock.
func ReadLeak(m *Manager) {
	m.tableMu.RLock() // want "no matching RUnlock"
}
