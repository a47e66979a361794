//! Poll-able session state machines for event-driven serving.
//!
//! The thread-per-session server gave every mobile session an OS
//! thread to block on; fleets of 4k–16k sessions need sessions that
//! *suspend* instead. [`SessionMachine`] wraps a [`MobileSession`] and
//! its gesture script into a resumable state machine split at the
//! query boundary:
//!
//! * [`SessionMachine::begin_next`] runs the session-local half of the
//!   next gesture (viewport move, query construction) — pure CPU over
//!   private state, so the order sessions begin in never matters;
//! * a view gesture is then committed directly, while a query gesture
//!   parks the machine in [`MachineState::AwaitingQuery`] until the
//!   scheduler resolves the query (executed, coalesced into a shared
//!   flight, shed, timed out, or failed by an outage) and resumes it
//!   with [`SessionMachine::commit_query`].
//!
//! All latency accounting stays on the virtual clock: the machine
//! accumulates each interaction's charged latency into its own virtual
//! cursor, which doubles as the session's next event deadline in the
//! fleet scheduler's priority queue.

use crate::fleet_workload::SessionWorkload;
use crate::layout::TreeLayout;
use crate::session::{
    Gesture, GestureStep, InteractionResult, MobileSession, QueryOutcome, QueryPending, ViewPending,
};
use crate::Result;
use drugtree_query::{Dataset, Executor};
use std::sync::Arc;
use std::time::Duration;

/// Where a machine sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineState {
    /// The next gesture can be begun.
    Ready,
    /// A query gesture is begun and waiting on the scheduler.
    AwaitingQuery,
    /// The script is exhausted.
    Done,
}

/// One session of a fleet as a resumable state machine.
pub struct SessionMachine<'a> {
    id: usize,
    session: MobileSession<'a>,
    script: &'a [Gesture],
    next: usize,
    state: MachineState,
    /// The session's private virtual timeline: the sum of every
    /// committed interaction's charged latency.
    cursor: Duration,
}

impl<'a> SessionMachine<'a> {
    /// Wrap one workload over the shared dataset/executor pair and a
    /// shared cladogram layout.
    pub fn new(
        dataset: &'a Dataset,
        executor: &'a Executor,
        layout: Arc<TreeLayout>,
        workload: &'a SessionWorkload,
    ) -> SessionMachine<'a> {
        let mut session = MobileSession::with_layout(dataset, executor, workload.network, layout);
        session.set_session_id(workload.session as u32);
        session.retain_log(false);
        SessionMachine {
            id: workload.session,
            session,
            script: &workload.script,
            next: 0,
            state: if workload.script.is_empty() {
                MachineState::Done
            } else {
                MachineState::Ready
            },
            cursor: Duration::ZERO,
        }
    }

    /// The workload's session index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current lifecycle state.
    pub fn state(&self) -> MachineState {
        self.state
    }

    /// Gestures not yet begun.
    pub fn remaining(&self) -> usize {
        self.script.len() - self.next
    }

    /// The session's virtual completion cursor so far: the sum of all
    /// committed charged latencies (the fleet's makespan is the
    /// maximum cursor).
    pub fn cursor(&self) -> Duration {
        self.cursor
    }

    /// The wrapped session (e.g. for viewport inspection in tests).
    pub fn session(&self) -> &MobileSession<'a> {
        &self.session
    }

    /// Begin the next gesture. Returns `None` when the script is
    /// exhausted (the machine is [`MachineState::Done`]). A `View`
    /// step should be committed immediately with
    /// [`SessionMachine::commit_view`]; a `Query` step parks the
    /// machine until [`SessionMachine::commit_query`].
    pub fn begin_next(&mut self) -> Result<Option<GestureStep>> {
        debug_assert_ne!(
            self.state,
            MachineState::AwaitingQuery,
            "begin while parked"
        );
        if self.state == MachineState::Done {
            return Ok(None);
        }
        let script = self.script;
        let Some(gesture) = script.get(self.next) else {
            self.state = MachineState::Done;
            return Ok(None);
        };
        self.next += 1;
        let step = self.session.begin_gesture(gesture)?;
        if matches!(step, GestureStep::Query(_)) {
            self.state = MachineState::AwaitingQuery;
        }
        Ok(Some(step))
    }

    /// Commit a begun view gesture and advance the virtual cursor.
    pub fn commit_view(&mut self, pending: ViewPending) -> InteractionResult {
        let result = self.session.commit_view(pending);
        self.settle(result)
    }

    /// Resume a parked machine with its query's resolution.
    pub fn commit_query(
        &mut self,
        pending: QueryPending,
        outcome: &QueryOutcome,
    ) -> InteractionResult {
        debug_assert_eq!(
            self.state,
            MachineState::AwaitingQuery,
            "commit out of turn"
        );
        let result = self.session.commit_query(pending, outcome);
        self.state = MachineState::Ready;
        self.settle(result)
    }

    fn settle(&mut self, result: InteractionResult) -> InteractionResult {
        self.cursor += result.charged_latency;
        if self.next >= self.script.len() && self.state == MachineState::Ready {
            self.state = MachineState::Done;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet_workload::zipf_sessions;
    use crate::gestures::GestureConfig;
    use crate::network::NetworkProfile;
    use drugtree_query::optimizer::{Optimizer, OptimizerConfig};
    use drugtree_sources::source::SourceCapabilities;

    fn dataset() -> Dataset {
        drugtree_query::dataset::test_fixtures::small_dataset(SourceCapabilities::full())
    }

    fn executor() -> Executor {
        Executor::new(Optimizer::new(OptimizerConfig::full()))
    }

    /// Drive one machine to completion, resolving queries inline the
    /// way `MobileSession::apply` would; returns the charged latency
    /// of every query commit.
    fn drive(
        machine: &mut SessionMachine<'_>,
        dataset: &Dataset,
        executor: &Executor,
    ) -> Vec<Duration> {
        let mut latencies = Vec::new();
        while let Some(step) = machine.begin_next().expect("begin") {
            match step {
                GestureStep::View(p) => {
                    machine.commit_view(p);
                }
                GestureStep::Query(p) => {
                    let result = Arc::new(executor.execute(dataset, &p.query).expect("execute"));
                    let outcome = QueryOutcome::Rows {
                        charged: result.metrics.charged_cost,
                        query_latency: result.metrics.virtual_cost,
                        result,
                    };
                    latencies.push(machine.commit_query(p, &outcome).charged_latency);
                }
            }
        }
        assert_eq!(machine.state(), MachineState::Done);
        latencies
    }

    #[test]
    fn machine_replay_matches_apply() {
        let d = dataset();
        let workloads = zipf_sessions(
            &d.tree,
            &d.index,
            1,
            &GestureConfig {
                len: 12,
                ..Default::default()
            },
        );

        // Inline apply() replay.
        let e1 = executor();
        let mut session = MobileSession::new(&d, &e1, NetworkProfile::CELL_4G);
        session.set_session_id(0);
        let mut applied_total = Duration::ZERO;
        let mut applied_latencies = Vec::new();
        for g in &workloads[0].script {
            let r = session.apply(g).expect("apply");
            applied_total += r.charged_latency;
            if r.cache_hit.is_some() {
                applied_latencies.push(r.charged_latency);
            }
        }

        // State-machine replay on a fresh executor.
        let e2 = executor();
        let layout = Arc::new(TreeLayout::compute(&d.tree, &d.index));
        let mut machine = SessionMachine::new(&d, &e2, layout, &workloads[0]);
        let latencies = drive(&mut machine, &d, &e2);

        assert_eq!(machine.cursor(), applied_total, "same charged total");
        assert_eq!(
            latencies, applied_latencies,
            "every query gesture charged what apply() charged"
        );
    }

    #[test]
    fn query_gestures_park_the_machine() {
        let d = dataset();
        let e = executor();
        let layout = Arc::new(TreeLayout::compute(&d.tree, &d.index));
        let clade_a = d.index.by_label("cladeA").unwrap();
        let workload = SessionWorkload {
            session: 3,
            network: NetworkProfile::WIFI,
            script: vec![Gesture::Pan { dy: 1.0 }, Gesture::Expand { node: clade_a }],
        };
        let mut machine = SessionMachine::new(&d, &e, layout, &workload);
        assert_eq!(machine.state(), MachineState::Ready);
        assert_eq!(machine.remaining(), 2);

        let step = machine.begin_next().unwrap().expect("pan");
        let GestureStep::View(p) = step else {
            panic!("pan is a view gesture")
        };
        machine.commit_view(p);
        assert_eq!(machine.state(), MachineState::Ready);

        let step = machine.begin_next().unwrap().expect("expand");
        let GestureStep::Query(p) = step else {
            panic!("expand bears a query")
        };
        assert_eq!(machine.state(), MachineState::AwaitingQuery);
        let outcome = QueryOutcome::Degraded {
            reason: crate::session::DegradedReason::Shed,
            charged: Duration::from_millis(5),
        };
        let r = machine.commit_query(p, &outcome);
        assert_eq!(r.rows, 0);
        assert_eq!(r.charged_latency, Duration::from_millis(5));
        assert_eq!(machine.state(), MachineState::Done);
        assert!(machine.begin_next().unwrap().is_none());
    }

    #[test]
    fn degraded_outcomes_preserve_the_viewport() {
        let d = dataset();
        let e = executor();
        let layout = Arc::new(TreeLayout::compute(&d.tree, &d.index));
        let clade_a = d.index.by_label("cladeA").unwrap();
        let workload = SessionWorkload {
            session: 0,
            network: NetworkProfile::CELL_4G,
            script: vec![Gesture::Expand { node: clade_a }],
        };
        let mut machine = SessionMachine::new(&d, &e, layout, &workload);
        let Some(GestureStep::Query(p)) = machine.begin_next().unwrap() else {
            panic!("expand bears a query")
        };
        // A failed query still focused the viewport (the view half
        // already ran): graceful degradation keeps the UI moving.
        machine.commit_query(
            p,
            &QueryOutcome::Degraded {
                reason: crate::session::DegradedReason::SourceOutage,
                charged: Duration::from_millis(80),
            },
        );
        assert_eq!(
            machine
                .session()
                .viewport()
                .visible_leaves(machine.session().layout()),
            d.index.interval(clade_a)
        );
    }
}
