// Clean twin for the lock-order pass: the one nested acquisition
// follows the canonical order (cache before per_source) and the graph
// is acyclic, so the pass must stay silent.

impl Registry {
    fn record(&self, exec: &Executor) {
        let cache = exec.cache.lock();
        let mut sources = self.per_source.write();
        sources.insert(self.key.clone(), cache.len());
    }

    // Sequential (non-nested) acquisitions in either order are fine:
    // the first guard is gone before the second lock is taken.
    fn sequential(&self, exec: &Executor) {
        let sources = self.per_source.read();
        drop(sources);
        let cache = exec.cache.lock();
        let _ = cache.len();
    }
}
