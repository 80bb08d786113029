package op

// WrapAll replaces every function registered in r with wrap(id, fn), so a
// test can watch the transforms real workloads run.
func (r *Registry) WrapAll(wrap func(FuncID, TransformFunc) TransformFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, fn := range r.funcs {
		r.funcs[id] = wrap(id, fn)
	}
}
