//! The DrugTree benchmark: wall-clock, layer-attributed numbers for the
//! gesture path. See `benchmark/README.md`.
//!
//! With `--workload` this process runs that one workload and prints
//! its metrics, the last line being the JSON object `BENCHMARK.json`'s
//! contract asks for. Without it, it runs every workload, each in a
//! process of its own, and prints the table (`suite`).

mod check;
mod layers;
mod metrics;
mod procfs;
mod run;
mod stats;
mod stream;
mod suite;
mod trace;
mod workloads;

use metrics::{Metrics, END_TO_END};
use run::{Record, RunOptions};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// Seed when none is given: every generated input is keyed by it.
const DEFAULT_SEED: u64 = 1101;

/// Seconds of timed work per workload when none are given; the same
/// as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

/// `--smoke`'s budget per workload.
const SMOKE_SECONDS: f64 = 0.5;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
              [--smoke] [--check-repeat] [--out DIR]

  --workload NAME   run one of fleet_hot fleet_miss solo_browse query_cold
                    query_warm query_local (default: all, one process each)
  --seed N          key of every generated input (default 1101)
  --seconds S       timed work per workload (default 12)
  --trace [0|1]     record spans and report the per-layer metrics
  --smoke           small sizes, done in seconds: a CI hook, not numbers
  --check-repeat    run the set twice and compare the two (all workloads)
  --out DIR         where results and span files go (default benchmark/out)";

pub struct Cli {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub check_repeat: bool,
    pub out_dir: PathBuf,
    /// Where a child of the suite leaves its full record.
    pub record: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        check_repeat: false,
        out_dir: PathBuf::from("benchmark/out"),
        record: None,
    };
    let mut seconds_given = false;
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds_given = true;
            }
            "--trace" => {
                // The driver writes `--trace 0|1`; by hand, a bare
                // `--trace` means 1.
                cli.trace = match args.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--smoke" => cli.smoke = true,
            "--check-repeat" => cli.check_repeat = true,
            "--out" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--record" => cli.record = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.smoke && !seconds_given {
        cli.seconds = SMOKE_SECONDS;
    }
    if cli.check_repeat && cli.workload.is_some() {
        return Err("--check-repeat compares whole sets; drop --workload".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match cli.workload {
        Some(workload) => run_one(workload, &cli),
        None => suite::run(&cli),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(workload: Workload, cli: &Cli) -> bool {
    let record = run::run(
        &RunOptions {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            smoke: cli.smoke,
        },
        &cli.out_dir,
    );
    print_record(&record);
    if let Some(path) = &cli.record {
        let json = serde_json::to_string(&record).expect("a record serializes");
        std::fs::write(path, json).expect("the record file can be written");
    }
    println!("{}", contract_line(&record));
    record.correct
}

/// One line per `workload metric value unit`, with what is needed to
/// judge it: sample counts and the rep-to-rep spread.
fn print_record(r: &Record) {
    let w = &r.workload;
    println!(
        "{w} run: {} reps x {} ops, {:.2} s timed, seed {}, {} cores, {} fleet workers{}",
        r.reps,
        r.ops_per_rep,
        r.timed_s,
        r.seed,
        r.nproc,
        r.workers,
        if r.traced { ", traced" } else { "" }
    );
    let metrics = if r.traced {
        &r.per_layer
    } else {
        &r.end_to_end
    };
    for (name, m) in metrics {
        let note = match name.as_str() {
            "wall_us_p50" | "wall_us_tail" if r.wall_samples == 1 => format!(
                "  (one call per rep: the fastest of {} reps, per op)",
                r.reps
            ),
            "wall_us_p50" => format!(
                "  (n={} calls, each the fastest of {} reps)",
                r.wall_samples, r.reps
            ),
            "wall_us_tail" => format!(
                "  (p{} of the same n={}; ten samples lie beyond {})",
                r.tail_percentile,
                r.wall_samples,
                r.supported_percentile
                    .map_or("no percentile".to_string(), |p| format!("p{p}"))
            ),
            "wall_ops_per_s" => format!(
                "  (every call at its fastest; whole reps were {:.1}% apart, {} reps)",
                r.rep_spread.get(name).copied().unwrap_or(0.0) * 100.0,
                r.reps
            ),
            _ => r.rep_spread.get(name).map_or(String::new(), |s| {
                format!("  (rep spread {:.1}% over {} reps)", s * 100.0, r.reps)
            }),
        };
        println!("{w} {name} {} {}{note}", m.value, m.unit);
    }
    if !r.traced {
        for (name, m) in &r.per_layer {
            println!("{w} {name} {} {}  (exact)", m.value, m.unit);
        }
    }
}

/// The result line of `BENCHMARK.json`'s contract: every end-to-end
/// metric for an untraced run, every per-layer metric for a traced one
/// (0 for a layer that is not on the workload's path).
fn contract_line(r: &Record) -> String {
    let metrics: Metrics = if r.traced {
        metrics::per_layer()
            .into_iter()
            .map(|m| {
                let measured = r
                    .per_layer
                    .get(&m.name)
                    .cloned()
                    .unwrap_or(metrics::Measurement {
                        value: 0.0,
                        unit: m.unit.to_string(),
                    });
                (m.name, measured)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), r.end_to_end[m.name].clone()))
            .collect()
    };
    let metrics = serde_json::to_string(&metrics).expect("metrics serialize");
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        r.correct, r.attempted, r.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|a| (*a).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let c = cli(&[
            "--workload",
            "query_warm",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(c.workload, Some(Workload::QueryWarm));
        assert_eq!((c.seed, c.seconds, c.trace), (7, 3.0, false));
        assert!(
            cli(&["--workload", "query_warm", "--trace", "1"])
                .unwrap()
                .trace
        );
    }

    #[test]
    fn bare_trace_flag_means_on_and_does_not_eat_the_next_flag() {
        let c = cli(&["--trace", "--smoke"]).unwrap();
        assert!(c.trace && c.smoke);
        assert_eq!(c.seconds, SMOKE_SECONDS);
        assert_eq!(cli(&["--smoke", "--seconds", "2"]).unwrap().seconds, 2.0);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
        assert!(cli(&["--check-repeat", "--workload", "fleet_hot"]).is_err());
    }
}
