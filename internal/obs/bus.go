package obs

// This file is the tracer's live event bus: N consumers can tail a
// Tracer's event stream while it runs. The JSON-lines writer (SetJSON) is
// conceptually subscriber zero — it receives the same events in the same
// order, synchronously under the tracer lock so the file stays
// byte-deterministic. SubscribeFunc consumers (the serving layer's
// per-job recorder) are called the same way, so they never miss or
// reorder an event.

// SubscribeFunc registers fn as a synchronous subscriber: it is invoked
// inline for every event, under the tracer lock, so it must return quickly
// and must not call back into the tracer (or anything that might). It
// never misses or reorders events — the property the per-job event
// recorders in internal/serve need. The returned cancel function
// unregisters fn; it is safe to call more than once. Returns a no-op on a
// nil tracer.
func (t *Tracer) SubscribeFunc(fn func(Event)) (cancel func()) {
	if t == nil || fn == nil {
		return func() {}
	}
	t.mu.Lock()
	if t.fns == nil {
		t.fns = make(map[int]func(Event))
	}
	id := t.fnSeq
	t.fnSeq++
	t.fns[id] = fn
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		delete(t.fns, id)
		t.mu.Unlock()
	}
}
