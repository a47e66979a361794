//! Clean counterpart: the serving facade hands the fleet to the event
//! scheduler and never spawns. (A comment mentioning thread::spawn is
//! fine — the model strips comments before the pass runs.)

pub fn run(workloads: &[usize]) -> Vec<usize> {
    // The scheduler owns the event loop; the facade just forwards.
    schedule(workloads)
}

fn schedule(workloads: &[usize]) -> Vec<usize> {
    workloads.iter().map(|w| w * 2).collect()
}
