//! session-threads: the serving layer scales by scheduling, not by
//! spawning. `crates/core/src/serve.rs` once ran one OS thread per
//! mobile session, which capped fleets at a few hundred sessions and
//! made replays nondeterministic; the scheduler that replaced it
//! (`crates/core/src/sched.rs`) once fanned gesture begins out to a
//! worker pool that did no parallel work and made wall-clock figures
//! swing with thread placement. Both are gone: the scheduler is a
//! single-threaded discrete-event engine. This pass keeps either
//! pattern from creeping back: any thread spawn in the serving path
//! (façade or scheduler) is a violation.

use crate::model::SourceModel;
use crate::registry::{Pass, Violation};

pub struct SessionThreads;

/// The serving path: the `FleetBuilder` façade and the scheduler.
const SERVING_PATH: [&str; 2] = ["crates/core/src/serve.rs", "crates/core/src/sched.rs"];

/// Spawn forms the serving path must not contain: bare/qualified
/// `thread::spawn` and scoped `.spawn(` closures alike.
fn is_spawn(line: &str) -> bool {
    line.contains("thread::spawn") || line.contains(".spawn(")
}

impl Pass for SessionThreads {
    fn name(&self) -> &'static str {
        "session-threads"
    }

    fn description(&self) -> &'static str {
        "forbid thread spawns in the serving path (facade and scheduler are one thread)"
    }

    fn run(&self, model: &SourceModel) -> Vec<Violation> {
        let mut out = Vec::new();
        for fm in &model.files {
            if !SERVING_PATH.contains(&fm.path.as_str()) {
                continue;
            }
            for (li, line) in fm.code.iter().enumerate() {
                if is_spawn(line) {
                    out.push(Violation {
                        pass: self.name(),
                        file: fm.path.clone(),
                        line: li + 1,
                        message: String::from(
                            "thread spawn in the serving path; sessions are poll-able \
                             machines the scheduler (crates/core/src/sched.rs) drives one \
                             event at a time on the calling thread",
                        ),
                    });
                }
            }
        }
        out
    }
}
