//! The registered analysis passes. Adding a pass means: a module here,
//! a `Box::new` in [`all`], fixtures under `tools/analysis/fixtures/
//! <snake_name>/{bad,clean}/`, and (optionally) an allowlist under
//! `tools/analysis/allow/<name>.allow`.

pub mod clock;
pub mod dead_surface;
pub mod guard_scope;
pub mod lock_order;
pub mod rule_registry;
pub mod session_threads;
pub mod sync_hygiene;

use crate::registry::Pass;

/// Every pass, in reporting order.
pub fn all() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(guard_scope::GuardScope),
        Box::new(lock_order::LockOrder),
        Box::new(sync_hygiene::SyncHygiene),
        Box::new(clock::Clock),
        Box::new(rule_registry::RuleRegistry),
        Box::new(session_threads::SessionThreads),
        Box::new(dead_surface::DeadSurface),
    ]
}
