//! The event-driven fleet scheduler (D14).
//!
//! A single-threaded discrete-event engine over *session state
//! machines* ([`drugtree_mobile::SessionMachine`]). The scheduler owns
//! every machine and a priority queue of events keyed on virtual-clock
//! deadlines `(due_ns, seq)`. A session's `due` is its private virtual
//! cursor — the sum of the charged latencies it has accumulated — so
//! the heap interleaves 4k–16k independent clients exactly as their
//! virtual timelines dictate. Events are handled strictly one at a
//! time in heap order: every gesture begin, query execution, clock
//! advance and observer emission happens on the calling thread in one
//! total order, which is what makes two replays of the same fleet
//! byte-identical. (Beginning a gesture touches only that session's
//! private state and the read-only dataset, so there is nothing a
//! second thread could do without joining that order.)
//!
//! On top of the event loop sit the production failure scenarios:
//!
//! * **Virtual-time coalescing** — a query opens a *flight* keyed on
//!   the query's identity and held open for a coalesce window of
//!   virtual time; identical queries arriving inside the window join
//!   the flight and share one execution. This is the system's only
//!   cross-session coalescing layer.
//! * **Admission control** — a bound on concurrently open flights;
//!   arrivals beyond it are *shed* with a degraded result and a
//!   [`SHED_COST`] rejection round-trip, counted per query class.
//! * **Deadlines** — a participant whose queue wait plus execution cost
//!   exceeds the client deadline (one for every class) times out with a
//!   degraded result charged exactly the deadline; completions that
//!   land past the deadline after delivery count as soft misses.
//! * **Hedged requests** — once a class has [`HEDGE_WARMUP`]
//!   observations, a flight whose execution cost exceeds the
//!   [`HEDGE_QUANTILE`] of its class's cost history is hedged against a
//!   replica: the effective cost is capped at `percentile + replica
//!   estimate`, and hedges that actually improve latency are counted as
//!   wins.
//! * **Outage storms** — an execution that fails at a source (e.g. a
//!   [`FlakySource`](drugtree_sources::flaky::FlakySource) storm
//!   window) degrades every participant with a partial result charged
//!   the failed attempt's virtual cost; the fleet keeps running. Any
//!   other query error is the script's fault and ends the run, as it
//!   ends a solo replay of the same script.

use crate::serve::ServeError;
use drugtree_mobile::layout::TreeLayout;
use drugtree_mobile::{
    DegradedReason, GestureStep, MachineState, MobileError, QueryOutcome, QueryPending,
    SessionMachine, SessionWorkload,
};
use drugtree_query::ast::Query;
use drugtree_query::obs::{QueryClass, ServeClassCounters};
use drugtree_query::{Dataset, Executor, QueryError};
use drugtree_sources::telemetry::{nanos, FixedHistogram};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Client deadlines.
///
/// `None` (the default) means a query never times out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeadlinePolicy {
    default: Option<Duration>,
}

impl DeadlinePolicy {
    /// No deadlines anywhere.
    pub fn none() -> DeadlinePolicy {
        DeadlinePolicy::default()
    }

    /// The same deadline for every class.
    pub fn uniform(deadline: Duration) -> DeadlinePolicy {
        DeadlinePolicy {
            default: Some(deadline),
        }
    }

    /// The deadline in effect, the same for every query class.
    pub fn deadline(&self) -> Option<Duration> {
        self.default
    }
}

/// Virtual cost charged to a shed query: the client's rejection
/// round-trip.
pub const SHED_COST: Duration = Duration::from_millis(5);

/// Load shedding at the scheduler's front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionControl {
    /// Maximum concurrently open (not yet dispatched) flights; `0`
    /// means unlimited. Joining an already-open flight is always
    /// admitted — it adds no server work.
    pub max_open_flights: usize,
}

impl AdmissionControl {
    /// Shed arrivals beyond `max` open flights.
    pub fn max_open(max: usize) -> AdmissionControl {
        AdmissionControl {
            max_open_flights: max,
        }
    }
}

/// Quantile of a class's observed execution-cost history at which a
/// hedge fires.
pub const HEDGE_QUANTILE: f64 = 0.95;

/// Observations a class needs before its percentile is trusted.
pub const HEDGE_WARMUP: u64 = 16;

/// Hedged requests against replicas after a learned-percentile delay
/// ([`HEDGE_QUANTILE`], after [`HEDGE_WARMUP`] observations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HedgePolicy {
    /// Whether hedging is armed at all.
    pub enabled: bool,
}

/// Counters describing one fleet run's scheduling work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Always 1: the scheduler is one thread. Inert: `benchmark/`,
    /// which this tree may not edit, gates its `core.*` rows on
    /// `workers > 0`; goes when a benchmark issue releases it.
    pub workers: usize,
    /// Heap events processed.
    pub events: u64,
    /// Flights dispatched (each is one shared execution).
    pub flights: u64,
    /// Queries that joined an already-open flight.
    pub flight_joins: u64,
    /// High-water mark of concurrently open flights.
    pub max_open_flights: u64,
    /// Always zero. Inert: `benchmark/` reads `mailbox.waits`; frozen
    /// like `workers`.
    pub mailbox: MailboxStats,
}

/// Always zero: there are no mailboxes. Inert, see
/// [`SchedStats::mailbox`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MailboxStats {
    /// Always 0.
    pub waits: u64,
}

/// Everything the scheduler needs beyond the workload itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SchedulerConfig {
    pub deadline: DeadlinePolicy,
    pub admission: AdmissionControl,
    pub hedging: HedgePolicy,
    /// Virtual time a flight stays open for joiners.
    pub coalesce_window: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            deadline: DeadlinePolicy::none(),
            admission: AdmissionControl::default(),
            hedging: HedgePolicy::default(),
            coalesce_window: Duration::from_millis(2),
        }
    }
}

/// What one fleet run produced, before the serve layer wraps it in a
/// `ServeReport`.
pub(crate) struct FleetOutcome {
    pub session_totals: Vec<Duration>,
    pub latencies: Vec<Duration>,
    pub gestures: usize,
    pub classes: Vec<ServeClassCounters>,
    pub stats: SchedStats,
}

const CLASSES: usize = QueryClass::ALL.len();

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A session's virtual cursor reached `due`: begin its next
    /// gesture.
    Session(usize),
    /// A flight's coalesce window closed: dispatch it.
    Flight(u64),
}

/// Heap entries order by `(due, seq)`; `seq` is a monotonic tiebreak
/// so same-instant events replay in submission order.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    due: u64,
    seq: u64,
    kind: EventKind,
}

struct Part {
    session: usize,
    pending: QueryPending,
    /// Fleet time (ns) the participant arrived — its queue wait is
    /// the dispatch time minus this.
    arrived: u64,
}

struct Flight {
    class: QueryClass,
    key: String,
    query: Query,
    parts: Vec<Part>,
}

/// Drive `workloads` to completion over the shared dataset/executor
/// pair. Deterministic: two calls with identical inputs produce
/// identical outcomes, clock schedules, and observer emissions.
pub(crate) fn run_fleet(
    dataset: &Dataset,
    executor: &Executor,
    workloads: &[SessionWorkload],
    config: &SchedulerConfig,
) -> Result<FleetOutcome, ServeError> {
    let layout = Arc::new(TreeLayout::compute(&dataset.tree, &dataset.index));
    let machines = workloads
        .iter()
        .map(|w| SessionMachine::new(dataset, executor, Arc::clone(&layout), w))
        .collect();
    let queries = workloads
        .iter()
        .flat_map(|w| &w.script)
        .filter(|g| g.bears_query())
        .count();
    let mut sched = Sched {
        dataset,
        executor,
        config,
        machines,
        heap: BinaryHeap::new(),
        seq: 0,
        latencies: Vec::with_capacity(queries),
        counters: QueryClass::ALL.map(|class| ServeClassCounters {
            class: class.label().to_string(),
            ..ServeClassCounters::default()
        }),
        hists: std::array::from_fn(|_| FixedHistogram::latency_buckets()),
        open_by_key: HashMap::new(),
        flights: HashMap::new(),
        next_flight: 0,
        gestures: 0,
        stats: SchedStats {
            workers: 1,
            ..SchedStats::default()
        },
    };
    sched.drive()?;
    Ok(sched.into_outcome())
}

struct Sched<'a> {
    dataset: &'a Dataset,
    executor: &'a Executor,
    config: &'a SchedulerConfig,
    /// One machine per session; its virtual cursor is the session's
    /// fleet time.
    machines: Vec<SessionMachine<'a>>,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    latencies: Vec<Duration>,
    counters: [ServeClassCounters; CLASSES],
    /// Learned per-class execution-cost history (hedging trigger).
    hists: [FixedHistogram; CLASSES],
    open_by_key: HashMap<String, u64>,
    flights: HashMap<u64, Flight>,
    next_flight: u64,
    gestures: usize,
    stats: SchedStats,
}

impl Sched<'_> {
    fn push_event(&mut self, due: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event { due, seq, kind }));
    }

    /// Schedule a session's next event at its (just advanced) cursor.
    fn reschedule(&mut self, session: usize) {
        let due = nanos(self.machines[session].cursor());
        self.push_event(due, EventKind::Session(session));
    }

    /// Resume a parked session with its query's resolution; returns
    /// the latency the session was charged.
    fn commit_query(
        &mut self,
        session: usize,
        pending: QueryPending,
        outcome: &QueryOutcome,
    ) -> Duration {
        let charged = self.machines[session]
            .commit_query(pending, outcome)
            .charged_latency;
        self.latencies.push(charged);
        self.reschedule(session);
        charged
    }

    fn drive(&mut self) -> Result<(), ServeError> {
        for s in 0..self.machines.len() {
            self.push_event(0, EventKind::Session(s));
        }
        while let Some(Reverse(event)) = self.heap.pop() {
            self.stats.events += 1;
            match event.kind {
                EventKind::Session(s) => self.begin_gesture(event.due, s)?,
                EventKind::Flight(id) => self.dispatch_flight(event.due, id)?,
            }
        }
        debug_assert!(
            self.machines
                .iter()
                .all(|m| m.state() == MachineState::Done),
            "every session ran to completion"
        );
        Ok(())
    }

    /// Begin a session's next gesture: commit a view change on the
    /// spot, hand a query to the flight layer.
    fn begin_gesture(&mut self, now: u64, session: usize) -> Result<(), ServeError> {
        let step = self.machines[session]
            .begin_next()
            .map_err(|source| ServeError::Session { session, source })?;
        let Some(step) = step else {
            return Ok(());
        };
        self.gestures += 1;
        match step {
            GestureStep::View(pending) => {
                self.machines[session].commit_view(pending);
                self.reschedule(session);
            }
            GestureStep::Query(pending) => self.query_arrival(now, session, pending),
        }
        Ok(())
    }

    /// Route a begun query: join an open flight, shed, or open a new
    /// flight due after the coalesce window.
    fn query_arrival(&mut self, now: u64, session: usize, pending: QueryPending) {
        let class = QueryClass::of(&pending.query);
        let key = format!("{:?}", pending.query);
        if let Some(&id) = self.open_by_key.get(&key) {
            if let Some(flight) = self.flights.get_mut(&id) {
                self.stats.flight_joins += 1;
                flight.parts.push(Part {
                    session,
                    pending,
                    arrived: now,
                });
                return;
            }
            // Stale key (flight already dispatched): open a new flight.
            self.open_by_key.remove(&key);
        }
        let admission = self.config.admission;
        if admission.max_open_flights > 0 && self.open_by_key.len() >= admission.max_open_flights {
            self.counters[class.index()].shed += 1;
            let outcome = QueryOutcome::Degraded {
                reason: DegradedReason::Shed,
                charged: SHED_COST,
            };
            self.commit_query(session, pending, &outcome);
            return;
        }
        let id = self.next_flight;
        self.next_flight += 1;
        let query = pending.query.clone();
        self.open_by_key.insert(key.clone(), id);
        self.flights.insert(
            id,
            Flight {
                class,
                key,
                query,
                parts: vec![Part {
                    session,
                    pending,
                    arrived: now,
                }],
            },
        );
        self.stats.max_open_flights = self
            .stats
            .max_open_flights
            .max(self.open_by_key.len() as u64);
        self.push_event(
            now.saturating_add(nanos(self.config.coalesce_window)),
            EventKind::Flight(id),
        );
    }

    /// Close and execute a flight, then resolve every participant —
    /// deadline checks, hedging, or graceful outage degradation.
    fn dispatch_flight(&mut self, now: u64, id: u64) -> Result<(), ServeError> {
        let Some(flight) = self.flights.remove(&id) else {
            return Ok(());
        };
        self.open_by_key.remove(&flight.key);
        self.stats.flights += 1;
        let before = self.dataset.clock.now().0;
        let executed = self.executor.execute(self.dataset, &flight.query);
        let exec_delta = Duration::from_nanos(self.dataset.clock.now().0.saturating_sub(before));
        let idx = flight.class.index();
        match executed {
            Ok(result) => {
                let result = Arc::new(result);
                let cost = result.metrics.charged_cost;
                let query_latency = result.metrics.virtual_cost;
                let (effective, hedged, hedge_won) = self.hedge(idx, &flight.query, cost);
                self.hists[idx].record_duration(cost);
                let deadline = self.config.deadline.deadline();
                for part in flight.parts {
                    let wait = Duration::from_nanos(now.saturating_sub(part.arrived));
                    {
                        let acc = &mut self.counters[idx];
                        acc.admitted += 1;
                        if hedged {
                            acc.hedged += 1;
                            if hedge_won {
                                acc.hedges_won += 1;
                            }
                        }
                    }
                    let hard_miss = deadline.is_some_and(|d| wait + effective > d);
                    let outcome = if let (Some(d), true) = (deadline, hard_miss) {
                        self.counters[idx].deadline_missed += 1;
                        QueryOutcome::Degraded {
                            reason: DegradedReason::DeadlineExpired,
                            charged: d,
                        }
                    } else {
                        QueryOutcome::Rows {
                            result: Arc::clone(&result),
                            charged: wait + effective,
                            query_latency,
                        }
                    };
                    let charged = self.commit_query(part.session, part.pending, &outcome);
                    // Soft miss: delivered, but transfer pushed the
                    // final charged latency past the deadline.
                    if !hard_miss && deadline.is_some_and(|d| charged > d) {
                        self.counters[idx].deadline_missed += 1;
                    }
                }
            }
            Err(QueryError::Source(_outage)) => {
                // Graceful partial results: every participant gets a
                // degraded (empty) answer charged its wait plus the
                // failed attempt's virtual cost, and the fleet keeps
                // running.
                for part in flight.parts {
                    let wait = Duration::from_nanos(now.saturating_sub(part.arrived));
                    {
                        let acc = &mut self.counters[idx];
                        acc.admitted += 1;
                        acc.outages += 1;
                    }
                    let outcome = QueryOutcome::Degraded {
                        reason: DegradedReason::SourceOutage,
                        charged: wait + exec_delta,
                    };
                    self.commit_query(part.session, part.pending, &outcome);
                }
            }
            // Not an outage: the query itself is bad (unknown column,
            // unparseable similarity reference, broken plan). A solo
            // replay of the script fails on it, so the fleet does too.
            Err(error) => {
                return Err(ServeError::Session {
                    session: flight.parts.first().map_or(0, |p| p.session),
                    source: MobileError::Query(error),
                });
            }
        }
        Ok(())
    }

    /// Hedging decision for one executed flight: `(effective cost,
    /// hedged?, won?)`.
    fn hedge(&self, idx: usize, query: &Query, cost: Duration) -> (Duration, bool, bool) {
        if !self.config.hedging.enabled {
            return (cost, false, false);
        }
        let snapshot = self.hists[idx].snapshot();
        if snapshot.count < HEDGE_WARMUP {
            return (cost, false, false);
        }
        let learned = Duration::from_nanos(snapshot.quantile(HEDGE_QUANTILE) as u64);
        if cost <= learned {
            return (cost, false, false);
        }
        // The primary ran long: a hedge fires against a replica after
        // the learned delay, so the client pays at most the delay plus
        // the replica's (estimated fresh) cost.
        let Ok(estimate) = self.executor.estimate(self.dataset, query) else {
            return (cost, true, false);
        };
        let bound = learned + estimate.cost;
        if bound < cost {
            (bound, true, true)
        } else {
            (cost, true, false)
        }
    }

    fn into_outcome(self) -> FleetOutcome {
        let classes = self
            .counters
            .into_iter()
            .filter(|c| c.admitted != 0 || c.shed != 0)
            .collect();
        FleetOutcome {
            session_totals: self.machines.iter().map(SessionMachine::cursor).collect(),
            latencies: self.latencies,
            gestures: self.gestures,
            classes,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_policy_layers_defaults_and_overrides() {
        let p = DeadlinePolicy::uniform(Duration::from_millis(100));
        assert_eq!(p.deadline(), Some(Duration::from_millis(100)));
        assert_eq!(DeadlinePolicy::none().deadline(), None);
    }

    #[test]
    fn events_order_by_due_then_seq() {
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(Event {
            due: 10,
            seq: 1,
            kind: EventKind::Session(7),
        }));
        heap.push(Reverse(Event {
            due: 5,
            seq: 2,
            kind: EventKind::Flight(0),
        }));
        heap.push(Reverse(Event {
            due: 10,
            seq: 0,
            kind: EventKind::Session(3),
        }));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|Reverse(e)| e.seq)).collect();
        assert_eq!(order, vec![2, 0, 1]);
    }
}
