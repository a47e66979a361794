//! Seeded violation: the scheduler's old worker pool. Every commit was
//! serialized on the coordinator anyway, so the pool bought a
//! cross-thread ping-pong per gesture and nothing else.

pub fn run_fleet(shards: &[Vec<usize>]) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| scope.spawn(move || shard.len()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}
