// Seeded violations for the lock-order pass. The path mimics the real
// query crate so class names land in the canonical order's namespace
// (`query:cache`, `query:per_source`).

impl Registry {
    // BAD (canonical reversal): the canonical order ranks the cache
    // before the metrics registry (a leaf), so taking the cache under a
    // live per_source guard runs backwards through it.
    fn record_wrong_order(&self, exec: &Executor) {
        let mut sources = self.per_source.write();
        let cache = exec.cache.lock();
        sources.insert(self.key.clone(), cache.len());
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
