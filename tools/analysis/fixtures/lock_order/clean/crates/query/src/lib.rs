// Clean twin for the lock-order pass: the one nested acquisition
// follows the canonical order (shards before per_source) and the graph
// is acyclic, so the pass must stay silent.

impl Registry {
    fn record(&self, cache: &Cache) {
        let shard = cache.shards.lock();
        let mut sources = self.per_source.write();
        sources.insert(self.key.clone(), shard.len());
    }

    // Sequential (non-nested) acquisitions in either order are fine:
    // the first guard is gone before the second lock is taken.
    fn sequential(&self, cache: &Cache) {
        let sources = self.per_source.read();
        drop(sources);
        let shard = cache.shards.lock();
        let _ = shard.len();
    }
}
