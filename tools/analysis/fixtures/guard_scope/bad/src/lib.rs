// Seeded violations for the guard-scope pass: every shape here must be
// flagged (asserted by `repo-lint --self-test` and the bin's tests).
// Fixtures are text corpora for the analyzer, never compiled.

struct Cache {
    map: parking_lot::RwLock<std::collections::BTreeMap<u32, u32>>,
    queue: parking_lot::Mutex<Vec<u32>>,
    cv: parking_lot::Condvar,
}

impl Cache {
    // BAD: the `if let` scrutinee's read guard lives through the else
    // branch, so the write() self-deadlocks (the PR-5 class).
    fn get_or_insert(&self, k: u32) -> u32 {
        if let Some(v) = self.map.read().get(&k) {
            *v
        } else {
            *self.map.write().entry(k).or_insert(0)
        }
    }

    // BAD: named guard still live when the same lock is re-acquired.
    fn double_lock(&self) -> usize {
        let q = self.queue.lock();
        let extra = self.queue.lock().len();
        q.len() + extra
    }

    // BAD: `held` is not the guard the Condvar::wait releases, so it
    // stays locked for the whole blocking wait.
    fn wait_holding_other(&self) {
        let held = self.map.read();
        let mut q = self.queue.lock();
        while q.is_empty() {
            self.cv.wait(&mut q);
        }
        drop(held);
    }

    // BAD: guard held across a scheduler yield.
    fn yield_holding(&self) {
        let q = self.queue.lock();
        std::thread::yield_now();
        drop(q);
    }
}
