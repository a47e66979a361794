// Seeded violations for the lock-order pass. The path mimics the real
// query crate so class names land in the canonical order's namespace
// (`query:shards`, `query:per_source`).

impl Registry {
    // BAD (canonical reversal): the canonical order ranks cache shards
    // before the metrics registry (a leaf), so taking a shard under a
    // live per_source guard runs backwards through it.
    fn record_wrong_order(&self, cache: &Cache) {
        let mut sources = self.per_source.write();
        let shard = cache.shards.lock();
        sources.insert(self.key.clone(), shard.len());
    }
}

impl Pair {
    // BAD (cycle): alpha -> beta here, beta -> alpha below; two
    // threads entering from different ends deadlock. Neither class is
    // ranked canonically — the cycle check alone must catch this.
    fn ab(&self) -> usize {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        a.len() + b.len()
    }

    fn ba(&self) -> usize {
        let b = self.beta.lock();
        let a = self.alpha.lock();
        a.len() + b.len()
    }
}
