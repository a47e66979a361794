//! Clean counterpart: the scheduler pops one event at a time and
//! handles it on the calling thread.

pub fn run_fleet(mut events: Vec<usize>) -> usize {
    let mut handled = 0;
    while let Some(_event) = events.pop() {
        handled += 1;
    }
    handled
}
