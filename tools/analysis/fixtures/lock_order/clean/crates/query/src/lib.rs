// Clean twin for the lock-order pass: the one nested acquisition
// follows the canonical order (cache before per_session) and the graph
// is acyclic, so the pass must stay silent.

impl Windows {
    fn record(&self, exec: &Executor) {
        let cache = exec.cache.lock();
        let mut sessions = self.per_session.write();
        sessions.insert(self.key, cache.len());
    }

    // Sequential (non-nested) acquisitions in either order are fine:
    // the first guard is gone before the second lock is taken.
    fn sequential(&self, exec: &Executor) {
        let sessions = self.per_session.read();
        drop(sessions);
        let cache = exec.cache.lock();
        let _ = cache.len();
    }
}
