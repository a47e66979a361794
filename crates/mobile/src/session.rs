//! The gesture-driven interactive session.
//!
//! A session owns the client-side state (viewport, layout, network
//! profile) and borrows the shared server-side machinery (dataset +
//! executor). Every gesture produces an [`InteractionResult`] with the
//! latency breakdown a user would perceive: query time at the sources,
//! plus transfer time of the payload over the mobile link — both on
//! the virtual clock.

use crate::layout::TreeLayout;
use crate::lod::{render_visible, RenderList, GLYPH_METRICS};
use crate::network::NetworkProfile;
use crate::progressive::{progressive_delivery, DEFAULT_CHUNK_ROWS};
use crate::viewport::Viewport;
use crate::{MobileError, Result};
use drugtree_phylo::index::LeafInterval;
use drugtree_phylo::tree::NodeId;
use drugtree_query::ast::{Query, Scope};
use drugtree_query::{Dataset, Executor, GestureObservation, QueryResult};
use std::sync::Arc;
use std::time::Duration;

/// A user interaction.
#[derive(Debug, Clone, PartialEq)]
pub enum Gesture {
    /// Vertical pan by `dy` leaf units.
    Pan {
        /// Signed leaf-unit delta.
        dy: f64,
    },
    /// Zoom in 2× around a y position.
    ZoomIn {
        /// Focal y in leaf units.
        focus_y: f64,
    },
    /// Zoom out 2× around a y position.
    ZoomOut {
        /// Focal y in leaf units.
        focus_y: f64,
    },
    /// Tap a clade: focus the viewport on it and fetch its activities.
    Expand {
        /// The tapped node.
        node: NodeId,
    },
    /// Fetch activities for everything currently visible.
    InspectViewport,
    /// Run an explicit query (from the app's search box).
    RunQuery(Box<Query>),
}

impl Gesture {
    /// Short kind label for logs and experiment tables.
    pub fn kind(&self) -> &'static str {
        match self {
            Gesture::Pan { .. } => "pan",
            Gesture::ZoomIn { .. } => "zoom_in",
            Gesture::ZoomOut { .. } => "zoom_out",
            Gesture::Expand { .. } => "expand",
            Gesture::InspectViewport => "inspect",
            Gesture::RunQuery(_) => "query",
        }
    }

    /// Whether the gesture needs a query answered (a pure view change
    /// does not).
    pub fn bears_query(&self) -> bool {
        match self {
            Gesture::Pan { .. } | Gesture::ZoomIn { .. } | Gesture::ZoomOut { .. } => false,
            Gesture::Expand { .. } | Gesture::InspectViewport | Gesture::RunQuery(_) => true,
        }
    }
}

/// What one gesture cost and produced.
#[derive(Debug, Clone)]
pub struct InteractionResult {
    /// Gesture kind label.
    pub gesture: &'static str,
    /// Result rows (0 for pure view changes). For a budgeted gesture —
    /// an expand, or an inspect whose viewport has collapsed clades —
    /// these are glyph rows, one per drawn leaf or collapsed clade.
    pub rows: usize,
    /// Virtual time spent querying sources.
    pub query_latency: Duration,
    /// Latency attributable to this interaction alone: the query's
    /// charged fetch cost (its share of any coalesced batch, not the
    /// whole shared clock advance) plus link transfer. Equals
    /// `complete` for a solo session; diverges under concurrent
    /// serving, where `query_latency` interleaves other sessions' work.
    pub charged_latency: Duration,
    /// Time until the first usable content reached the screen
    /// (query + first chunk).
    pub first_usable: Duration,
    /// Time until the interaction fully completed.
    pub complete: Duration,
    /// Bytes shipped over the mobile link.
    pub payload_bytes: usize,
    /// Cache outcome of the underlying query, when one ran.
    pub cache_hit: Option<bool>,
    /// Render-list summary after the gesture.
    pub visible_leaves: usize,
    /// Leaves hidden in collapsed glyphs.
    pub collapsed_leaves: usize,
}

/// A gesture split at the query boundary: the session-local half has
/// run (viewport moved, query built), the shared-state half has not.
/// Produced by [`MobileSession::begin_gesture`]; the event-driven
/// fleet scheduler executes the query on its own terms and resumes
/// the session with [`MobileSession::commit_query`].
#[derive(Debug)]
pub enum GestureStep {
    /// A pure view change: nothing left but the commit (transfer
    /// charge + observation).
    View(ViewPending),
    /// A query-bearing gesture: `query` must be executed (or shed)
    /// before the commit.
    Query(QueryPending),
}

/// A begun view gesture awaiting [`MobileSession::commit_view`].
#[derive(Debug)]
pub struct ViewPending {
    kind: &'static str,
    render: RenderList,
}

/// A begun query gesture awaiting execution and
/// [`MobileSession::commit_query`].
#[derive(Debug)]
pub struct QueryPending {
    kind: &'static str,
    /// The query this gesture needs answered.
    pub query: Query,
    /// Leaves drawn one by one, and leaves hidden in glyphs, by the
    /// render list of the gesture's viewport (drawn once, at begin).
    visible_leaves: usize,
    collapsed_leaves: usize,
}

impl QueryPending {
    /// Gesture kind label.
    pub fn kind(&self) -> &'static str {
        self.kind
    }
}

/// How a begun query gesture was resolved by whoever executed it (the
/// session itself in [`MobileSession::apply`], the fleet scheduler
/// under event-driven serving).
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The query ran: rows to deliver over the link.
    Rows {
        /// The executed result (shared with coalesced peers).
        result: Arc<QueryResult>,
        /// Latency charged to this session for the query alone (its
        /// queue wait + its share of the fetch), before transfer.
        charged: Duration,
        /// End-to-end virtual query latency as the session perceives
        /// it, before transfer.
        query_latency: Duration,
    },
    /// The query was not answered; the session gets a degraded,
    /// row-free response and moves on.
    Degraded {
        /// Why the fleet degraded this query.
        reason: DegradedReason,
        /// Latency the session still paid (queue wait, deadline, or
        /// timeout cost).
        charged: Duration,
    },
}

/// Why a fleet degraded a query instead of answering it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// Admission control rejected the query at arrival.
    Shed,
    /// The per-class deadline expired before the fetch completed.
    DeadlineExpired,
    /// Every source attempt failed (e.g. an outage storm); partial
    /// results were served from what the session already had.
    SourceOutage,
}

impl DegradedReason {
    /// Short label for logs and experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            DegradedReason::Shed => "shed",
            DegradedReason::DeadlineExpired => "deadline",
            DegradedReason::SourceOutage => "outage",
        }
    }
}

/// An interactive mobile session.
pub struct MobileSession<'a> {
    dataset: &'a Dataset,
    executor: &'a Executor,
    layout: Arc<TreeLayout>,
    viewport: Viewport,
    network: NetworkProfile,
    session_id: Option<u32>,
    keep_log: bool,
    log: Vec<InteractionResult>,
}

impl<'a> MobileSession<'a> {
    /// Open a session over a dataset/executor pair.
    pub fn new(
        dataset: &'a Dataset,
        executor: &'a Executor,
        network: NetworkProfile,
    ) -> MobileSession<'a> {
        let layout = Arc::new(TreeLayout::compute(&dataset.tree, &dataset.index));
        MobileSession::with_layout(dataset, executor, network, layout)
    }

    /// Open a session over a precomputed cladogram layout. Fleets of
    /// thousands of sessions over one tree share a single layout
    /// instead of recomputing (and storing) it per session.
    pub fn with_layout(
        dataset: &'a Dataset,
        executor: &'a Executor,
        network: NetworkProfile,
        layout: Arc<TreeLayout>,
    ) -> MobileSession<'a> {
        let viewport = Viewport::fullscreen(&layout);
        MobileSession {
            dataset,
            executor,
            layout,
            viewport,
            network,
            session_id: None,
            keep_log: true,
            log: Vec::new(),
        }
    }

    /// Tag this session with a serving-fleet id: every gesture
    /// observation it emits carries the id, so a fleet observer can
    /// attribute SLO breaches to sessions.
    pub fn set_session_id(&mut self, id: u32) {
        self.session_id = Some(id);
    }

    /// Current viewport.
    pub fn viewport(&self) -> Viewport {
        self.viewport
    }

    /// The cladogram layout.
    pub fn layout(&self) -> &TreeLayout {
        &self.layout
    }

    /// Interaction log so far.
    pub fn log(&self) -> &[InteractionResult] {
        &self.log
    }

    /// Switch interaction logging off (fleets of thousands of sessions
    /// roll results up at the scheduler instead of keeping per-session
    /// logs).
    pub fn retain_log(&mut self, keep: bool) {
        self.keep_log = keep;
    }

    /// Apply one gesture end to end: begin it, execute any query it
    /// needs against this session's executor, and commit.
    pub fn apply(&mut self, gesture: &Gesture) -> Result<InteractionResult> {
        match self.begin_gesture(gesture)? {
            GestureStep::View(pending) => Ok(self.commit_view(pending)),
            GestureStep::Query(pending) => {
                let result = Arc::new(self.executor.execute(self.dataset, &pending.query)?);
                let outcome = QueryOutcome::Rows {
                    charged: result.metrics.charged_cost,
                    query_latency: result.metrics.virtual_cost,
                    result,
                };
                Ok(self.commit_query(pending, &outcome))
            }
        }
    }

    /// Run the session-local half of a gesture: move the viewport, draw
    /// its render list, and decide what (if anything) must be asked of
    /// the shared executor. An expand, or an inspect of a viewport with
    /// collapsed clades, asks for one glyph row per drawn item; an
    /// inspect whose leaves are all drawn lists their rows. Touches no
    /// shared state, and a failed begin leaves nothing to commit (the
    /// gesture is not logged).
    pub fn begin_gesture(&mut self, gesture: &Gesture) -> Result<GestureStep> {
        let step = match gesture {
            Gesture::Pan { dy } => {
                self.viewport.pan(*dy, &self.layout)?;
                self.view_pending(gesture.kind())
            }
            Gesture::ZoomIn { focus_y } => {
                self.viewport.zoom(2.0, *focus_y, &self.layout)?;
                self.view_pending(gesture.kind())
            }
            Gesture::ZoomOut { focus_y } => {
                self.viewport.zoom(0.5, *focus_y, &self.layout)?;
                self.view_pending(gesture.kind())
            }
            Gesture::Expand { node } => {
                if node.index() >= self.dataset.tree.len() {
                    return Err(MobileError::UnknownNode(format!("n{}", node.0)));
                }
                let iv = self.dataset.index.interval(*node);
                self.viewport.focus_interval(iv);
                let render = self.render(&self.viewport);
                query_step(gesture.kind(), glyph_query(iv, &render), &render)
            }
            Gesture::InspectViewport => {
                let iv = self.viewport.visible_leaves(&self.layout);
                let render = self.render(&self.viewport);
                let query = if render.collapsed_leaves > 0 {
                    glyph_query(iv, &render)
                } else {
                    Query::activities(Scope::Interval(iv))
                };
                query_step(gesture.kind(), query, &render)
            }
            Gesture::RunQuery(query) => query_step(
                gesture.kind(),
                (**query).clone(),
                &self.render(&self.viewport),
            ),
        };
        Ok(step)
    }

    fn view_pending(&self, kind: &'static str) -> GestureStep {
        GestureStep::View(ViewPending {
            kind,
            render: self.render(&self.viewport),
        })
    }

    /// Commit a pure view change: no source work, only the render
    /// payload crossing the link.
    pub fn commit_view(&mut self, pending: ViewPending) -> InteractionResult {
        let ViewPending { kind, render } = pending;
        let transfer = self.network.transfer_time(render.payload_bytes);
        let at = self.dataset.clock.advance(transfer);
        if let Some(obs) = self.executor.observer() {
            obs.on_gesture(&GestureObservation {
                gesture: kind,
                rows: 0,
                compute: Duration::ZERO,
                network: transfer,
                payload_bytes: render.payload_bytes,
                cache_hit: None,
                session: self.session_id,
                charged: transfer,
                at,
            });
        }
        let result = InteractionResult {
            gesture: kind,
            rows: 0,
            query_latency: Duration::ZERO,
            charged_latency: transfer,
            first_usable: transfer,
            complete: transfer,
            payload_bytes: render.payload_bytes,
            cache_hit: None,
            visible_leaves: render.visible_leaves,
            collapsed_leaves: render.collapsed_leaves,
        };
        self.push_log(&result);
        result
    }

    /// Commit a query gesture given how its query was resolved: ship
    /// rows (or the degraded response) over the link, charge the
    /// clock, emit the gesture observation, and log.
    pub fn commit_query(
        &mut self,
        pending: QueryPending,
        outcome: &QueryOutcome,
    ) -> InteractionResult {
        let QueryPending {
            kind,
            visible_leaves,
            collapsed_leaves,
            ..
        } = pending;
        let interaction = match outcome {
            QueryOutcome::Rows {
                result,
                charged,
                query_latency,
            } => {
                let schedule =
                    progressive_delivery(&result.rows, &self.network, DEFAULT_CHUNK_ROWS);
                let at = self.dataset.clock.advance(schedule.complete());
                if let Some(obs) = self.executor.observer() {
                    obs.on_gesture(&GestureObservation {
                        gesture: kind,
                        rows: result.rows.len(),
                        compute: result.metrics.virtual_cost,
                        network: schedule.complete(),
                        payload_bytes: schedule.total_bytes,
                        cache_hit: result.metrics.cache_hit,
                        session: self.session_id,
                        charged: *charged + schedule.complete(),
                        at,
                    });
                }
                InteractionResult {
                    gesture: kind,
                    rows: result.rows.len(),
                    query_latency: *query_latency,
                    charged_latency: *charged + schedule.complete(),
                    first_usable: *query_latency + schedule.first_usable(),
                    complete: *query_latency + schedule.complete(),
                    payload_bytes: schedule.total_bytes,
                    cache_hit: result.metrics.cache_hit,
                    visible_leaves,
                    collapsed_leaves,
                }
            }
            QueryOutcome::Degraded { charged, .. } => {
                // The session still paid the wait; only an error card
                // crosses the link, and what was already on screen
                // stays (graceful partial results).
                let at = self.dataset.clock.advance(*charged);
                if let Some(obs) = self.executor.observer() {
                    obs.on_gesture(&GestureObservation {
                        gesture: kind,
                        rows: 0,
                        compute: Duration::ZERO,
                        network: Duration::ZERO,
                        payload_bytes: 0,
                        cache_hit: None,
                        session: self.session_id,
                        charged: *charged,
                        at,
                    });
                }
                InteractionResult {
                    gesture: kind,
                    rows: 0,
                    query_latency: *charged,
                    charged_latency: *charged,
                    first_usable: *charged,
                    complete: *charged,
                    payload_bytes: 0,
                    cache_hit: None,
                    visible_leaves,
                    collapsed_leaves,
                }
            }
        };
        self.push_log(&interaction);
        interaction
    }

    fn push_log(&mut self, result: &InteractionResult) {
        if self.keep_log {
            self.log.push(result.clone());
        }
    }

    fn render(&self, viewport: &Viewport) -> RenderList {
        render_visible(
            &self.dataset.tree,
            &self.dataset.index,
            viewport,
            &self.layout,
        )
    }
}

/// A query gesture awaiting execution, with what `render` drew.
fn query_step(kind: &'static str, query: Query, render: &RenderList) -> GestureStep {
    GestureStep::Query(QueryPending {
        kind,
        query,
        visible_leaves: render.visible_leaves,
        collapsed_leaves: render.collapsed_leaves,
    })
}

/// The budgeted query over `iv`: one row per `Leaf` and `Collapsed`
/// item of `render`, carrying its glyph numbers.
fn glyph_query(iv: LeafInterval, render: &RenderList) -> Query {
    Query::activities(Scope::Interval(iv)).aggregate_nodes(render.glyph_nodes(), &GLYPH_METRICS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_query::optimizer::{Optimizer, OptimizerConfig};
    use drugtree_sources::source::SourceCapabilities;

    fn dataset() -> Dataset {
        drugtree_query::dataset::test_fixtures::small_dataset(SourceCapabilities::full())
    }

    fn executor() -> Executor {
        Executor::new(Optimizer::new(OptimizerConfig::full()))
    }

    #[test]
    fn pan_and_zoom_cost_only_transfer() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::WIFI);
        let r = s.apply(&Gesture::ZoomIn { focus_y: 1.0 }).unwrap();
        assert_eq!(r.rows, 0);
        assert_eq!(r.query_latency, Duration::ZERO);
        assert!(r.complete >= NetworkProfile::WIFI.rtt);
        assert!(r.payload_bytes > 0);
        let r = s.apply(&Gesture::Pan { dy: 1.0 }).unwrap();
        assert_eq!(r.gesture, "pan");
        assert_eq!(s.log().len(), 2);
    }

    #[test]
    fn expand_runs_a_query_and_focuses() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::CELL_4G);
        let clade_a = d.index.by_label("cladeA").unwrap();
        let r = s.apply(&Gesture::Expand { node: clade_a }).unwrap();
        // cladeA's two leaves are drawn one by one: one glyph row each,
        // where the listing had one row per record (3).
        assert_eq!(r.rows, 2);
        assert!(r.query_latency > Duration::ZERO);
        assert!(r.first_usable > r.query_latency, "adds network time");
        assert_eq!(r.cache_hit, Some(false));
        assert_eq!(
            s.viewport().visible_leaves(s.layout()),
            d.index.interval(clade_a)
        );
    }

    #[test]
    fn repeat_expand_hits_cache() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::CELL_4G);
        let clade_a = d.index.by_label("cladeA").unwrap();
        s.apply(&Gesture::Expand { node: clade_a }).unwrap();
        // Drill into a child of cladeA: containment hit.
        let p1 = d.index.by_label("P1").unwrap();
        let r = s.apply(&Gesture::Expand { node: p1 }).unwrap();
        assert_eq!(r.cache_hit, Some(true));
        assert_eq!(r.query_latency, Duration::ZERO);
        // One glyph row for the drawn leaf P1, whose listing was 2 rows.
        assert_eq!(r.rows, 1);
    }

    #[test]
    fn an_expand_asks_for_one_glyph_row_per_drawn_item() {
        use drugtree_query::ast::{Groups, QueryKind};
        use drugtree_store::value::Value;
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::CELL_4G);
        let clade_a = d.index.by_label("cladeA").unwrap();
        let Ok(GestureStep::Query(pending)) = s.begin_gesture(&Gesture::Expand { node: clade_a })
        else {
            panic!("an expand bears a query");
        };
        let leaves = ["P1", "P2"].map(|l| d.index.by_label(l).unwrap());
        assert_eq!(
            pending.query.kind,
            QueryKind::Aggregate {
                groups: Groups::Nodes(leaves.to_vec()),
                metrics: GLYPH_METRICS.to_vec(),
            }
        );
        let result = e.execute(&d, &pending.query).unwrap();
        // P1: 10 nM and 2000 nM (best p = 8); P2: 100 nM (p = 7).
        let glyphs: Vec<(i64, f64)> = result
            .rows
            .iter()
            .map(|r| (r[3].as_int().unwrap(), r[4].as_f64().unwrap()))
            .collect();
        assert_eq!(glyphs, [(2, 8.0), (1, 7.0)]);
        assert_eq!(result.rows[0][0], Value::from("P1"));
        let r = s.commit_query(
            pending,
            &QueryOutcome::Rows {
                charged: result.metrics.charged_cost,
                query_latency: result.metrics.virtual_cost,
                result: Arc::new(result),
            },
        );
        assert_eq!((r.rows, r.visible_leaves, r.collapsed_leaves), (2, 2, 0));
    }

    #[test]
    fn an_inspect_with_collapsed_clades_asks_for_glyphs() {
        use drugtree_query::ast::QueryKind;
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::WIFI);
        // Fullscreen draws all four leaves: the inspect lists rows.
        let Ok(GestureStep::Query(listing)) = s.begin_gesture(&Gesture::InspectViewport) else {
            panic!("an inspect bears a query");
        };
        assert_eq!(listing.query.kind, QueryKind::Activities);
        // On a screen too short to draw a leaf, both clades collapse.
        s.viewport.screen_h = 20;
        let Ok(GestureStep::Query(glyphs)) = s.begin_gesture(&Gesture::InspectViewport) else {
            panic!("an inspect bears a query");
        };
        assert!(matches!(glyphs.query.kind, QueryKind::Aggregate { .. }));
        let result = e.execute(&d, &glyphs.query).unwrap();
        let counts: Vec<i64> = result.rows.iter().map(|r| r[3].as_int().unwrap()).collect();
        assert_eq!(counts, [3, 1], "cladeA and cladeB");
    }

    #[test]
    fn inspect_viewport_queries_visible_interval() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::WIFI);
        let r = s.apply(&Gesture::InspectViewport).unwrap();
        assert_eq!(r.rows, 4, "fullscreen sees all activities");
    }

    #[test]
    fn explicit_query_gesture() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::WIFI);
        let q = Query::parse("activities in subtree('cladeB')").unwrap();
        let r = s.apply(&Gesture::RunQuery(Box::new(q))).unwrap();
        assert_eq!(r.rows, 1);
        assert_eq!(r.gesture, "query");
    }

    #[test]
    fn unknown_node_rejected() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::WIFI);
        assert!(matches!(
            s.apply(&Gesture::Expand { node: NodeId(999) }),
            Err(MobileError::UnknownNode(_))
        ));
        assert!(s.log().is_empty(), "failed gestures are not logged");
    }

    #[test]
    fn a_non_finite_pan_or_zoom_is_rejected_and_changes_nothing() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::WIFI);
        s.apply(&Gesture::ZoomIn { focus_y: 1.0 }).unwrap();
        let viewport = s.viewport();
        let rows = s.apply(&Gesture::InspectViewport).unwrap().rows;
        for gesture in [
            Gesture::Pan { dy: f64::NAN },
            Gesture::Pan { dy: f64::INFINITY },
            Gesture::ZoomIn { focus_y: f64::NAN },
            Gesture::ZoomOut { focus_y: f64::NAN },
        ] {
            let logged = s.log().len();
            assert!(
                matches!(s.apply(&gesture), Err(MobileError::DegenerateViewport(_))),
                "{gesture:?} must be refused"
            );
            assert_eq!(s.viewport(), viewport, "{gesture:?} moved the viewport");
            assert_eq!(s.log().len(), logged, "{gesture:?} was logged");
            assert_eq!(s.apply(&Gesture::InspectViewport).unwrap().rows, rows);
        }
    }

    #[test]
    fn virtual_clock_accumulates_over_session() {
        let d = dataset();
        let e = executor();
        let start = d.clock.now();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::CELL_3G);
        s.apply(&Gesture::InspectViewport).unwrap();
        s.apply(&Gesture::Pan { dy: 1.0 }).unwrap();
        assert!(d.clock.now() > start);
    }
}
