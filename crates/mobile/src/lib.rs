#![warn(missing_docs)]

//! Mobile interaction simulation — the other half of the paper's title.
//!
//! The original DrugTree was browsed from 2013-era mobile clients;
//! what users felt as "lag" was query latency *plus* result transfer
//! over constrained radio links. The UI itself is out of scope
//! (DESIGN.md §6), but everything the UI would drive is here:
//!
//! * [`layout`] — rectangular cladogram coordinates for the tree.
//! * [`viewport`] — pan/zoom state and visible-leaf computation.
//! * [`lod`] — level-of-detail rendering: clades too small to resolve
//!   collapse into aggregate glyphs (design decision D6).
//! * [`network`] — mobile network profiles (WiFi/4G/3G/EDGE) charging
//!   transfer time to the virtual clock.
//! * [`progressive`] — chunked result delivery, the only delivery a
//!   session makes: first usable content early, the rest streaming
//!   behind it.
//! * [`session`] — a gesture-driven interactive session tying the
//!   query executor, viewport, and network together.
//! * [`gestures`] — seeded gesture-script generation (drill-down walks
//!   with Zipf-skewed locality) for the session experiments.
//! * [`machine`] — a session as a poll-able state machine, split at
//!   the query boundary, for the fleet scheduler.
//! * [`fleet_workload`] — multi-session workload generation:
//!   per-session Zipf scripts over a shared hot-clade ranking.

pub mod error;
pub mod fleet_workload;
pub mod gestures;
pub mod layout;
pub mod lod;
pub mod machine;
pub mod network;
pub mod progressive;
pub mod session;
pub mod viewport;

pub use error::MobileError;
pub use fleet_workload::{zipf_sessions, SessionWorkload};
pub use machine::{MachineState, SessionMachine};
pub use network::NetworkProfile;
pub use session::{
    DegradedReason, Gesture, GestureStep, MobileSession, QueryOutcome, QueryPending, ViewPending,
};
pub use viewport::Viewport;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MobileError>;
