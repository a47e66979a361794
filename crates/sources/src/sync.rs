//! Loom-swappable synchronization primitives for the shared executor.
//!
//! The workspace standard for blocking primitives is `parking_lot`
//! (panic-free, non-poisoning; enforced by the `sync-hygiene` pass of
//! `repo-lint` and clippy's `disallowed-types`). Everything an
//! executor shared across threads locks — the sharded semantic cache,
//! the rolling SLO windows, the slow-query log and the adaptive
//! runtime in `drugtree-query` — acquires its locks through this
//! module instead of naming `parking_lot` directly, so that building
//! with `RUSTFLAGS="--cfg loom"` swaps in `loom`'s schedule-perturbing
//! instrumented types and the loom model check
//! (`crates/query/tests/loom_model.rs`) exercises the real code under
//! many interleavings:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p drugtree-query --test loom_model --release
//! ```

#[cfg(loom)]
pub use loom::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(loom))]
pub use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
