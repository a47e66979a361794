//! Synchronization primitives for the shared executor.
//!
//! The workspace standard for blocking primitives is `parking_lot`
//! (panic-free, non-poisoning; enforced by the `sync-hygiene` pass of
//! `repo-lint` and clippy's `disallowed-types`). Everything an
//! executor shared across threads locks — the semantic cache, the
//! rolling SLO windows, the slow-query log and the adaptive runtime in
//! `drugtree-query` — acquires its locks through this module instead
//! of naming `parking_lot` directly.

pub use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
