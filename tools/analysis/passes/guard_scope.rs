//! guard-scope: guards that outlive the programmer's mental model.
//!
//! Two rules, both targeting the serving stack's non-reentrant
//! (parking_lot-shaped) locks:
//!
//! 1. **Same-lock re-acquisition under a live guard.** The worst shape
//!    is the `if let` scrutinee: Rust keeps a temporary born in an
//!    `if let`/`while let`/`match` scrutinee alive to the end of the
//!    *whole* statement — including the `else` branch — so
//!    `if let Some(v) = map.read().get(k) { … } else { map.write() … }`
//!    self-deadlocks (the PR-5 class). Named guards re-acquiring the
//!    same class inside their block are flagged the same way.
//!
//! 2. **Guards held across blocking points.** A guard (other than the
//!    one a `Condvar::wait` atomically releases) held across a wait,
//!    a `yield_now` spin, or an `.await` stalls every thread
//!    contending for that lock.

use crate::model::{GuardKind, SourceModel};
use crate::registry::{Pass, Violation};

pub struct GuardScope;

impl Pass for GuardScope {
    fn name(&self) -> &'static str {
        "guard-scope"
    }

    fn description(&self) -> &'static str {
        "lock guards re-acquired while live (if-let scrutinee deadlocks) or held across blocking points"
    }

    fn run(&self, model: &SourceModel) -> Vec<Violation> {
        let mut out = Vec::new();
        for fm in &model.files {
            for a in &fm.acquisitions {
                if a.kind == GuardKind::Temporary && a.extent_end == a.line {
                    continue;
                }
                // Rule 1: same class acquired again inside the extent.
                for b in &fm.acquisitions {
                    if std::ptr::eq(a, b) || b.class != a.class {
                        continue;
                    }
                    let inside = (b.line > a.line && b.line <= a.extent_end)
                        || (b.line == a.line && b.col > a.col && a.extent_end >= a.line);
                    if !inside {
                        continue;
                    }
                    let origin = match a.kind {
                        GuardKind::Scrutinee => format!(
                            "guard from the `if let`/`match` scrutinee at line {} is still \
                             live here (scrutinee temporaries last the whole statement, \
                             else-branches included)",
                            a.line
                        ),
                        GuardKind::Named => format!(
                            "guard `{}` acquired at line {} is still live here",
                            a.binding.as_deref().unwrap_or("_"),
                            a.line
                        ),
                        GuardKind::Temporary => format!(
                            "guard from the statement at line {} is still live here",
                            a.line
                        ),
                    };
                    out.push(Violation {
                        pass: self.name(),
                        file: fm.path.clone(),
                        line: b.line,
                        message: format!(
                            "`{}` on `{}` while a {origin}; these locks are non-reentrant — \
                             bind the first lookup to a local (or drop the guard) before \
                             re-acquiring",
                            b.mode.verb(),
                            b.class,
                        ),
                    });
                }
                // Rule 2: guard live across a blocking point.
                if a.kind == GuardKind::Temporary {
                    continue;
                }
                for w in &fm.waits {
                    let inside = (w.line > a.line && w.line <= a.extent_end)
                        || (w.line == a.line && w.col > a.col);
                    if !inside {
                        continue;
                    }
                    if w.what == "Condvar::wait" && a.binding.is_some() && a.binding == w.exempt {
                        continue; // the wait releases exactly this guard
                    }
                    out.push(Violation {
                        pass: self.name(),
                        file: fm.path.clone(),
                        line: w.line,
                        message: format!(
                            "guard `{}` on `{}` (line {}) held across a {}; blocking while \
                             holding the lock stalls every contending thread — drop it first",
                            a.binding.as_deref().unwrap_or("<scrutinee temporary>"),
                            a.class,
                            a.line,
                            w.what,
                        ),
                    });
                }
            }
        }
        out
    }
}
