//! Every workload, each in a process of its own so that one workload's
//! heap, page cache and peak RSS never reach the next one's numbers.

use crate::metrics::{Better, END_TO_END};
use crate::run::Record;
use crate::workloads::Workload;
use crate::Cli;
use serde::Serialize;
use std::process::Command;

/// What `results.json` holds.
#[derive(Serialize)]
struct Results {
    seed: u64,
    seconds: f64,
    smoke: bool,
    nproc: usize,
    runs: Vec<Record>,
}

/// Run one workload in a child process; `None` when it did not
/// complete (its own output says why).
fn run_child(workload: Workload, cli: &Cli, trace: bool) -> Option<Record> {
    let record_path = cli.out_dir.join(format!(
        "record_{}{}.json",
        workload.name(),
        if trace { "_traced" } else { "" }
    ));
    let output = Command::new(std::env::current_exe().expect("this program has a path"))
        .args(["--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(cli.smoke.then_some("--smoke"))
        .arg("--out")
        .arg(&cli.out_dir)
        .arg("--record")
        .arg(&record_path)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("the benchmark can start itself");
    // Everything but the contract's result line, which is for machines.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    for line in &lines[..lines.len().saturating_sub(1)] {
        println!("{line}");
    }
    let record = std::fs::read_to_string(&record_path)
        .ok()
        .and_then(|json| serde_json::from_str::<Record>(&json).ok());
    // The record is part of results.json; the file was only the way here.
    let _ = std::fs::remove_file(&record_path);
    if record.is_none() {
        eprintln!("{} did not complete ({})", workload.name(), output.status);
    }
    record
}

/// One pass over all workloads. Returns the records and whether every
/// run completed with its checks passing.
fn run_set(cli: &Cli, trace: bool) -> (Vec<Record>, bool) {
    let mut ok = true;
    let mut records = Vec::new();
    for workload in Workload::ALL {
        match run_child(workload, cli, trace) {
            Some(record) => {
                ok &= record.correct;
                records.push(record);
            }
            None => ok = false,
        }
    }
    (records, ok)
}

/// The three `query_*` workloads run one stream; their answers must be
/// the same rows.
fn query_answers_agree(records: &[Record]) -> bool {
    let mut digests = records
        .iter()
        .filter(|r| r.workload.starts_with("query_"))
        .map(|r| (&r.workload, &r.answers_digest));
    let Some((_, first)) = digests.next() else {
        return true;
    };
    let mut agree = true;
    for (workload, digest) in digests {
        if digest != first {
            eprintln!("CHECK FAILED: {workload} returned other rows than query_cold");
            agree = false;
        }
    }
    agree
}

/// Traced against untraced speed, per workload.
fn print_tracing_overhead(untraced: &[Record], traced: &[Record]) {
    for t in traced {
        let Some(u) = untraced.iter().find(|u| u.workload == t.workload) else {
            continue;
        };
        let plain = u.end_to_end["wall_ops_per_s"].value;
        let with_spans = t.per_layer["trace.wall_ops_per_s"].value;
        println!(
            "{} tracing overhead: {:.1}% ({:.1} ops/s untraced, {:.1} ops/s traced)",
            t.workload,
            (plain / with_spans - 1.0) * 100.0,
            plain,
            with_spans
        );
    }
}

/// Compare two sets of runs of one build: measured metrics within
/// their bounds, exact ones equal to the last digit. Prints the table
/// it compared.
fn sets_agree(first: &[Record], second: &[Record]) -> bool {
    let mut agree = true;
    println!("check-repeat: workload metric first second change bound verdict");
    for (a, b) in first.iter().zip(second) {
        let w = &a.workload;
        for m in &END_TO_END {
            let (x, y) = (a.end_to_end[m.name].value, b.end_to_end[m.name].value);
            let worse = match m.better {
                Better::Lower => y / x - 1.0,
                Better::Higher => x / y - 1.0,
            };
            // Either run may be the slower one: the two must agree.
            let within = worse.abs() <= m.bound;
            agree &= within;
            println!(
                "check-repeat: {w} {} {x} {y} {:+.2}% {:.0}% {}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "DIFFERS" }
            );
        }
        for (name, x) in &a.per_layer {
            let y = &b.per_layer[name];
            let same = x.value.to_bits() == y.value.to_bits();
            agree &= same;
            println!(
                "check-repeat: {w} {name} {} {} exact {}",
                x.value,
                y.value,
                if same { "ok" } else { "DIFFERS" }
            );
        }
        let same = (&a.counts, &a.digest, &a.answers_digest, a.ops_per_rep)
            == (&b.counts, &b.digest, &b.answers_digest, b.ops_per_rep);
        agree &= same;
        println!(
            "check-repeat: {w} counts-and-digests {} {} exact {}",
            a.digest,
            b.digest,
            if same { "ok" } else { "DIFFERS" }
        );
    }
    agree && first.len() == second.len()
}

pub fn run(cli: &Cli) -> bool {
    std::fs::create_dir_all(&cli.out_dir).expect("the output directory can be created");
    let (mut runs, mut ok) = run_set(cli, false);
    ok &= query_answers_agree(&runs);

    if cli.check_repeat {
        let (second, second_ok) = run_set(cli, false);
        ok &= second_ok && sets_agree(&runs, &second);
    }
    if cli.trace {
        let (traced, traced_ok) = run_set(cli, true);
        ok &= traced_ok;
        print_tracing_overhead(&runs, &traced);
        runs.extend(traced);
    }

    let results = Results {
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        runs,
    };
    let path = cli.out_dir.join("results.json");
    let json = serde_json::to_string_pretty(&results).expect("results serialize");
    std::fs::write(&path, json + "\n").expect("results.json can be written");
    println!(
        "{}: results in {}",
        if ok { "ok" } else { "FAILED" },
        path.display()
    );
    ok
}
