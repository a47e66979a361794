//! One workload, one process: reps until the time budget is spent,
//! the repeat and answer checks, and the numbers that come out.

use crate::layers;
use crate::metrics::{self, Measurement, Metrics, END_TO_END, EXACT, GESTURE_KINDS};
use crate::procfs::peak_rss_mib;
use crate::stats::{median, percentile, quartile_spread, supported_tail};
use crate::trace::self_time_by_name;
use crate::workloads::{Rep, RepOptions, TraceSink, Workload};
use drugtree_query::QueryClass;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Reps past which a run stops whatever the budget says: a guard
/// against a rep that measures as (almost) free.
const MAX_REPS: usize = 200;

pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// Timed work to aim for, in seconds.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Everything one run reports; `benchmark/out/results.json` and the
/// committed baseline are lists of these.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    /// Cores the machine offers.
    pub nproc: usize,
    /// Fleet worker threads (0: the workload runs no fleet).
    pub workers: usize,
    pub reps: usize,
    pub ops_per_rep: u64,
    /// Seconds of timed work, all reps together.
    pub timed_s: f64,
    /// Wall samples behind `wall_us_p50` and `wall_us_tail`.
    pub wall_samples: usize,
    /// Percentile `wall_us_tail` is taken at (100: the worst sample),
    /// and the highest one these samples support with ten beyond it.
    pub tail_percentile: f64,
    pub supported_percentile: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub end_to_end: Metrics,
    /// Every per-layer metric this run could measure: all of them when
    /// traced, the exact ones when not.
    pub per_layer: Metrics,
    /// Rep-to-rep spread (quartile distance over median) of the wall
    /// metrics that are medians over reps.
    pub rep_spread: BTreeMap<String, f64>,
    /// One rep's counts; every rep had the same.
    pub counts: BTreeMap<String, u64>,
    /// Digest of one rep's deterministic output, and of the query
    /// answers alone (equal across the three `query_*` workloads).
    pub digest: String,
    pub answers_digest: String,
}

/// Run `opts.workload` and report. Spans of a traced run are written
/// to `trace_<workload>.json` under `out_dir`.
pub fn run(opts: &RunOptions, out_dir: &Path) -> Record {
    let rep_opts = RepOptions {
        seed: opts.seed,
        smoke: opts.smoke,
    };
    let mut sink = opts.trace.then(TraceSink::new);

    let mut reps = vec![opts.workload.rep(&rep_opts, sink.as_mut())];
    // Whole reps only, as many as come closest to the budget: counts
    // are compared rep against rep, which a cut-off rep would spoil.
    let planned = (opts.seconds / reps[0].wall.as_secs_f64().max(1e-9)).round();
    let planned = (planned as usize).clamp(1, MAX_REPS);
    while reps.len() < planned {
        reps.push(opts.workload.rep(&rep_opts, sink.as_mut()));
    }
    // Memory the checks and probes below need is not the system's.
    let peak_rss = peak_rss_mib();

    let mut problems = repeat_problems(&reps);
    let failed_checks = opts.workload.check_answers(&rep_opts, &reps[0]);
    if failed_checks > 0 {
        problems.push(format!(
            "{failed_checks} answers differ from the naive plan"
        ));
    }
    for problem in &problems {
        eprintln!("{}: CHECK FAILED: {problem}", opts.workload.name());
    }

    if let Some(sink) = sink.as_mut() {
        layers::probe(opts.workload, &rep_opts, sink);
        std::fs::create_dir_all(out_dir).expect("the output directory can be created");
        let path = out_dir.join(format!("trace_{}.json", opts.workload.name()));
        sink.tracer
            .write_json(&path)
            .expect("the span file can be written");
        let spans = sink.tracer.spans();
        let name = opts.workload.name();
        println!("{name} trace: {} spans in {}", spans.len(), path.display());
        let by_name = self_time_by_name(spans);
        let all: u64 = by_name.values().map(|(_, ns)| ns).sum();
        for (span, (count, self_ns)) in by_name {
            println!(
                "{name} trace: {span} x{count}, self time {:.3} s ({:.1}% of traced time)",
                self_ns as f64 / 1e9,
                self_ns as f64 * 100.0 / all.max(1) as f64
            );
        }
    }

    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum::<u64>() + failed_checks;
    let wall_samples = wall_samples_us(&reps);
    let (end_to_end, rep_spread) =
        end_to_end_metrics(opts.workload, &reps, &wall_samples, peak_rss);
    let mut per_layer = exact_metrics(&reps, failed, attempted);
    if let Some(sink) = &sink {
        per_layer.extend(traced_metrics(&reps, &wall_samples, sink));
    }
    let per_layer = with_units(per_layer);

    let first = &reps[0];
    Record {
        workload: opts.workload.name().to_string(),
        seed: opts.seed,
        traced: opts.trace,
        smoke: opts.smoke,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        workers: first.workers,
        reps: reps.len(),
        ops_per_rep: first.ops,
        timed_s: reps.iter().map(|r| r.wall.as_secs_f64()).sum(),
        wall_samples: wall_samples.len(),
        tail_percentile: opts.workload.tail_percentile(),
        supported_percentile: supported_tail(wall_samples.len()),
        attempted,
        failed,
        correct: problems.is_empty(),
        end_to_end,
        per_layer,
        rep_spread,
        counts: first
            .counts
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect(),
        digest: format!("{:016x}", first.digest),
        answers_digest: format!("{:016x}", first.answers_digest),
    }
}

/// Every way in which a later rep differs from the first where it
/// must not: same inputs on a fresh system give the same counts and
/// the same virtual-clock results, whatever the machine does.
fn repeat_problems(reps: &[Rep]) -> Vec<String> {
    let first = &reps[0];
    let mut problems = Vec::new();
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if rep.counts != first.counts {
            problems.push(format!(
                "rep {i} counted {:?}, rep 0 counted {:?}",
                rep.counts, first.counts
            ));
        }
        if (rep.digest, rep.answers_digest, rep.ops, rep.failed)
            != (first.digest, first.answers_digest, first.ops, first.failed)
        {
            problems.push(format!("rep {i} returned other results than rep 0"));
        }
    }
    problems
}

/// The fastest each separately timed call was seen, in microseconds
/// and in stream order. Reps are identical, so call `i` of one rep is
/// call `i` of every other; what differs between them is the machine,
/// which on a shared host slows by a third for seconds at a time and
/// never speeds up. The minimum over reps drops that, call by call.
///
/// A fleet is a single call from outside and yields a single sample:
/// its fastest rep's wall time per gesture.
fn wall_samples_us(reps: &[Rep]) -> Vec<f64> {
    let calls = reps[0].op_wall_ns.len();
    if calls == 0 {
        let per_op = |r: &Rep| r.wall.as_secs_f64() * 1e6 / r.ops.max(1) as f64;
        return vec![reps.iter().map(per_op).fold(f64::INFINITY, f64::min)];
    }
    (0..calls)
        .map(|i| {
            let fastest = reps.iter().filter_map(|r| r.op_wall_ns.get(i)).min();
            *fastest.expect("at least one rep") as f64 / 1e3
        })
        .collect()
}

fn end_to_end_metrics(
    workload: Workload,
    reps: &[Rep],
    wall_samples: &[f64],
    peak_rss: f64,
) -> (Metrics, BTreeMap<String, f64>) {
    let setups: Vec<f64> = reps.iter().map(|r| r.setup.total().as_secs_f64()).collect();
    let ops_per_s: Vec<f64> = reps
        .iter()
        .map(|r| r.ops as f64 / r.wall.as_secs_f64())
        .collect();
    let cpu_us_per_op = reps
        .iter()
        .map(|r| r.cpu.as_secs_f64() * 1e6 / r.ops.max(1) as f64)
        .fold(f64::INFINITY, f64::min);
    let mut sorted = wall_samples.to_vec();
    sorted.sort_by(f64::total_cmp);

    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => median(&setups),
            "wall_ops_per_s" => Some(rate_per_s(wall_samples)),
            "wall_us_p50" => percentile(&sorted, 50.0),
            "wall_us_tail" => percentile(&sorted, workload.tail_percentile()),
            "cpu_us_per_op" => Some(cpu_us_per_op),
            "peak_rss_mb" => Some(peak_rss),
            other => unreachable!("{other} is not an end-to-end metric"),
        }
        .expect("every rep has at least one op")
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let measured = Measurement {
                value: value(m.name),
                unit: m.unit.to_string(),
            };
            (m.name.to_string(), measured)
        })
        .collect();
    // How far the reps were apart: a reading of the machine's noise,
    // not of the system.
    let spread = [("setup_s", &setups), ("wall_ops_per_s", &ops_per_s)]
        .into_iter()
        .filter_map(|(name, values)| Some((name.to_string(), quartile_spread(values)?)))
        .collect();
    (metrics, spread)
}

/// The figures that are exact for a seed: virtual-clock latencies and
/// counts of the first rep (every rep has the same), and the share of
/// ops that failed.
fn exact_metrics(reps: &[Rep], failed: u64, attempted: u64) -> BTreeMap<String, f64> {
    let first = &reps[0];
    let mut charged: Vec<f64> = first.charged_ns.iter().map(|ns| *ns as f64 / 1e6).collect();
    charged.sort_by(f64::total_cmp);
    let count = |name: &str| first.counts.get(name).copied().unwrap_or(0) as f64;
    let ops = first.ops.max(1) as f64;
    let makespan = first.virtual_makespan.as_secs_f64();
    let value = |name: &str| -> f64 {
        match name {
            "charged_ms_p50" => percentile(&charged, 50.0).unwrap_or(0.0),
            "charged_ms_p99" => percentile(&charged, 99.0).unwrap_or(0.0),
            // Zero virtual time (every query a cache hit with nothing
            // shipped) has no finite rate; 0 stands for "not defined".
            "virtual_ops_per_s" if makespan > 0.0 => ops / makespan,
            "virtual_ops_per_s" => 0.0,
            "source_requests_per_op" => count("source_requests") / ops,
            "payload_bytes_per_op" => count("payload_bytes") / ops,
            "error_rate" => failed as f64 / attempted.max(1) as f64,
            other => unreachable!("{other} is not an exact metric"),
        }
    };
    EXACT
        .iter()
        .map(|name| (name.to_string(), value(name)))
        .collect()
}

/// Give every per-layer value the unit the manifest lists for it.
fn with_units(values: BTreeMap<String, f64>) -> Metrics {
    let units: BTreeMap<String, &str> = metrics::per_layer()
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect();
    values
        .into_iter()
        .map(|(name, value)| {
            let unit = units
                .get(&name)
                .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
            let measured = Measurement {
                value,
                unit: (*unit).to_string(),
            };
            (name, measured)
        })
        .collect()
}

/// Calls per second of a rep in which every call took its sample's
/// time (a fleet's one sample is its time per gesture).
fn rate_per_s(samples_us: &[f64]) -> f64 {
    samples_us.len() as f64 * 1e6 / samples_us.iter().sum::<f64>()
}

/// Everything only the traced run knows. Metrics of layers that are
/// not on this workload's path are absent here and print as 0.
fn traced_metrics(reps: &[Rep], wall_samples: &[f64], sink: &TraceSink) -> BTreeMap<String, f64> {
    let first = &reps[0];
    let ops = first.ops.max(1) as f64;
    let count = |name: &str| first.counts.get(name).copied().unwrap_or(0) as f64;
    let mut values: BTreeMap<String, f64> = sink.scalars.clone();

    // Percentiles of the pooled span samples.
    let mut quantile = |metric: String, samples: &str, p: f64| {
        if let Some(samples) = sink.samples.get(samples) {
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            values.insert(metric, percentile(&sorted, p).expect("recorded samples"));
        }
    };
    for base in [
        "query.parse_us",
        "query.plan_us",
        "query.execute_hit_us",
        "query.execute_miss_us",
        "sources.fetch_call_us",
        "mobile.begin_gesture_us",
        "mobile.commit_query_us",
        "mobile.render_visible_us",
        "mobile.delivery_us",
    ] {
        quantile(format!("{base}_p50"), base, 50.0);
    }
    for base in [
        "query.plan_us",
        "query.execute_hit_us",
        "query.execute_miss_us",
    ] {
        quantile(format!("{base}_p99"), base, 99.0);
    }
    for class in QueryClass::ALL.map(QueryClass::label) {
        quantile(
            format!("query.execute_us_p50.{class}"),
            &format!("query.execute_us.{class}"),
            50.0,
        );
    }
    for kind in GESTURE_KINDS {
        quantile(
            format!("mobile.gesture_us_p50.{kind}"),
            &format!("mobile.gesture_us.{kind}"),
            50.0,
        );
    }

    // Medians over reps of the set-up steps, and the traced speed.
    let over_reps = |f: &dyn Fn(&Rep) -> f64| {
        median(&reps.iter().map(f).collect::<Vec<_>>()).expect("at least one rep")
    };
    values.extend([
        // The same estimator as the untraced run's `wall_ops_per_s`.
        ("trace.wall_ops_per_s".to_string(), rate_per_s(wall_samples)),
        (
            "workload.generate_s".to_string(),
            over_reps(&|r| r.setup.generate.as_secs_f64()),
        ),
        (
            "integrate.build_dataset_s".to_string(),
            over_reps(&|r| r.setup.build_dataset.as_secs_f64()),
        ),
        (
            "core.build_s".to_string(),
            over_reps(&|r| r.setup.build.as_secs_f64()),
        ),
    ]);

    // Ratios of the first rep's counts (every rep has the same).
    if count("cache_probes") > 0.0 {
        values.insert(
            "query.cache_hit_rate".to_string(),
            count("cache_hits") / count("cache_probes"),
        );
    }
    values.extend([
        (
            "query.cache_evictions_per_op".to_string(),
            count("cache_evictions") / ops,
        ),
        (
            "sources.rows_shipped_per_op".to_string(),
            count("source_rows_shipped") / ops,
        ),
    ]);
    if first.workers > 0 {
        let flights = count("sched_flights");
        let joins = count("sched_flight_joins");
        values.extend([
            (
                "core.fleet_run_s".to_string(),
                over_reps(&|r| r.wall.as_secs_f64()),
            ),
            (
                "core.sched_events_per_op".to_string(),
                count("sched_events") / ops,
            ),
            ("core.flights_per_op".to_string(), flights / ops),
            (
                "core.flight_join_ratio".to_string(),
                joins / (flights + joins).max(1.0),
            ),
            (
                "core.mailbox_waits_per_op".to_string(),
                over_reps(&|r| r.mailbox_waits as f64 / r.ops as f64),
            ),
        ]);
    }

    values
}
