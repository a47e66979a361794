//! `query_cold`, `query_warm`, `query_local`: one six-class text
//! stream through `DrugTree::query`, with the mobile layer and the
//! scheduler bypassed — against a cold cache, a warm cache, and the
//! local matview + columnar structures.

use super::{
    build_system, deployment, nanos, source_totals, BenchObserver, ObserverTotals, Rep, RepOptions,
    SetupTimes, TraceSink, Workload,
};
use crate::check::{answer_digest, answers_match, fold};
use crate::procfs::cpu_time;
use crate::stream::{class_stream, StreamQuery};
use drugtree::prelude::*;
use drugtree::DrugTreeError;
use drugtree_sources::clock::wall_now;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Every how-manieth query of each class is compared with the naive
/// system's answer. The stream cycles through the six classes, so the
/// 16th of the stream as a whole would only ever meet three of them.
const CHECK_EVERY: usize = 16;

/// Queries of each class in one pass over the stream.
fn per_class(smoke: bool) -> usize {
    if smoke {
        16
    } else {
        250
    }
}

/// Timed passes over the stream in one rep. Populating the cache costs
/// `query_warm` more than a timed pass does, so it takes two passes
/// per population; the others have nothing to amortise.
fn timed_passes(workload: Workload) -> usize {
    if workload == Workload::QueryWarm {
        2
    } else {
        1
    }
}

struct Prepared {
    system: DrugTree,
    stream: Vec<StreamQuery>,
    setup: SetupTimes,
}

/// A fresh system and the seed's stream; for `query_warm`, with the
/// cache populated by one untimed pass over that stream, so that the
/// timed passes probe and materialise hits instead of fetching.
fn prepare(
    workload: Workload,
    opts: &RepOptions,
    observer: Option<Arc<BenchObserver>>,
) -> Prepared {
    let (system, mut setup) = build_system(&workload.system_spec(opts.smoke), observer);
    let t = wall_now();
    let stream = class_stream(system.dataset(), per_class(opts.smoke), opts.seed);
    setup.inputs = wall_now() - t;
    if workload == Workload::QueryWarm {
        for q in &stream {
            std::hint::black_box(system.query(&q.text)).expect("warm-up query runs");
        }
    }
    Prepared {
        system,
        stream,
        setup,
    }
}

pub fn rep(workload: Workload, opts: &RepOptions, mut sink: Option<&mut TraceSink>) -> Rep {
    let observer = sink.is_some().then(|| Arc::new(BenchObserver::default()));
    let Prepared {
        system,
        stream,
        setup,
    } = prepare(workload, opts, observer.clone());
    let invalidate_each = workload != Workload::QueryWarm;
    let ops = stream.len() * timed_passes(workload);

    let sources = system.dataset().registry.all().to_vec();
    let sources_before = source_totals(&sources);
    let cache_before = system.executor().cache_stats();
    let observed_before = observer.as_deref().map(ObserverTotals::read);

    let mut out = Rep {
        setup,
        ops: ops as u64,
        op_wall_ns: Vec::with_capacity(ops),
        charged_ns: Vec::with_capacity(ops),
        answer_digests: Vec::with_capacity(ops),
        ..Rep::default()
    };
    let (mut rows_returned, mut rows_fetched) = (0u64, 0u64);

    // Invalidation and answer digests sit between the timed calls, so
    // the timed section is the sum of the calls, not the loop.
    for q in std::iter::repeat_n(&stream, timed_passes(workload)).flatten() {
        if invalidate_each {
            system.executor().invalidate();
        }
        let cpu0 = cpu_time();
        let (result, wall_ns) = match sink.as_deref_mut() {
            None => {
                let t = wall_now();
                let result = system.query(&q.text);
                (result, nanos(wall_now() - t))
            }
            Some(s) => traced_query(s, &system, q),
        };
        out.cpu += cpu_time().saturating_sub(cpu0);
        out.wall += Duration::from_nanos(wall_ns);
        out.op_wall_ns.push(wall_ns);
        match result {
            Ok(result) => {
                out.charged_ns.push(nanos(result.metrics.charged_cost));
                out.virtual_makespan += result.metrics.virtual_cost;
                rows_returned += result.rows.len() as u64;
                rows_fetched += result.metrics.rows_fetched as u64;
                if let Some(observer) = &observer {
                    // Queries are not gestures, so nobody else counts these.
                    observer
                        .rows_returned
                        .fetch_add(result.rows.len() as u64, Ordering::Relaxed);
                }
                let answer = answer_digest(&q.parsed, &result);
                out.answer_digests.push(answer);
                out.digest = fold(
                    out.digest,
                    &(
                        answer,
                        result.metrics.charged_cost,
                        result.metrics.cache_hit,
                    ),
                );
            }
            Err(_) => {
                out.answer_digests.push(0);
                out.failed += 1;
            }
        }
    }
    // One pass's worth, so that the three workloads can be compared.
    out.answers_digest = fold(0, &&out.answer_digests[..stream.len()]);

    let sources_after = source_totals(&sources);
    let cache = system.executor().cache_stats();
    out.counts.extend([
        ("cache_probes", cache.probes - cache_before.probes),
        ("cache_hits", cache.hits - cache_before.hits),
        ("cache_misses", cache.misses - cache_before.misses),
        ("cache_evictions", cache.evictions - cache_before.evictions),
        ("source_requests", sources_after.0 - sources_before.0),
        ("source_rows_shipped", sources_after.1 - sources_before.1),
        ("rows_returned", rows_returned),
        ("rows_fetched", rows_fetched),
    ]);
    if let (Some(s), Some(observer), Some(before)) = (sink, observer, observed_before) {
        ObserverTotals::read(&observer).record_since(&before, s, out.ops);
    }
    out
}

/// `DrugTree::query`, taken apart at its public seams. The executor
/// plans inside `execute`, so planning alone is an extra call
/// (`Executor::estimate`) that only the traced run makes: `query.plan`
/// says what the plan inside `query.execute` costs.
fn traced_query(
    sink: &mut TraceSink,
    system: &DrugTree,
    q: &StreamQuery,
) -> (Result<QueryResult, DrugTreeError>, u64) {
    let tracer = &mut sink.tracer;
    let op = tracer.begin_op();
    let (parsed, parse_ns) = tracer.child(op, "query.parse", || Query::parse(&q.text));
    let (result, plan_ns, execute_ns) = match parsed {
        Err(e) => (Err(e.into()), 0, 0),
        Ok(parsed) => {
            let (_, plan_ns) = tracer.child(op, "query.plan", || {
                std::hint::black_box(system.executor().estimate(system.dataset(), &parsed))
            });
            let (result, execute_ns) =
                tracer.child(op, "query.execute", || system.execute(&parsed));
            (result, plan_ns, execute_ns)
        }
    };
    let wall_ns = tracer.end(op);

    let us = |ns: u64| ns as f64 / 1e3;
    sink.sample("query.parse_us", us(parse_ns));
    sink.sample("query.plan_us", us(plan_ns));
    if let Ok(result) = &result {
        let outcome = if result.metrics.cache_hit == Some(true) {
            "hit"
        } else {
            "miss"
        };
        sink.sample(&format!("query.execute_{outcome}_us"), us(execute_ns));
        sink.sample(
            &format!("query.execute_us.{}", q.class.label()),
            us(execute_ns),
        );
    }
    (result, wall_ns)
}

/// Run all six queries of every 16th round again, on a system set up
/// as the timed one was, and compare each answer with the timed run's
/// (by digest) and with a naive system's rows: per-leaf singleton
/// round-trips, no cache, no rewrite — the repo's specification of
/// what every plan must return. Returns the number of queries that
/// disagree.
///
/// Holding the timed run's rows for this instead would put two copies
/// of a whole-tree listing into the timed process's peak RSS, or one,
/// depending on where the seed put the listing.
pub fn check_against_naive(workload: Workload, opts: &RepOptions, timed: &Rep) -> u64 {
    let Prepared { system, stream, .. } = prepare(workload, opts, None);
    let naive = DrugTree::builder()
        .dataset(deployment(&workload.system_spec(opts.smoke)).build_dataset())
        .optimizer(OptimizerConfig::naive())
        .with_stats(false)
        .build()
        .expect("naive system builds");
    let mut mismatches = 0;
    for (i, q) in stream.iter().enumerate() {
        if !(i / QueryClass::ALL.len()).is_multiple_of(CHECK_EVERY) {
            continue;
        }
        if workload != Workload::QueryWarm {
            system.executor().invalidate();
        }
        let verdict = match (system.execute(&q.parsed), naive.execute(&q.parsed)) {
            (Ok(got), Ok(expected)) => {
                if answer_digest(&q.parsed, &got) != timed.answer_digests[i] {
                    Err("differs from the timed run's answer".to_string())
                } else if !answers_match(&q.parsed, &expected, &got) {
                    Err("differs from the naive plan's answer".to_string())
                } else {
                    Ok(())
                }
            }
            (Err(e), _) => Err(format!("failed: {e}")),
            (_, Err(e)) => Err(format!("failed under the naive plan: {e}")),
        };
        if let Err(why) = verdict {
            eprintln!("answer check: query {i} `{}` {why}", q.text);
            mismatches += 1;
        }
    }
    mismatches
}
