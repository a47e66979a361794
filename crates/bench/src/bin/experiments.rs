//! The experiment harness binary.
//!
//! ```sh
//! cargo run --release -p drugtree-bench --bin experiments          # all
//! cargo run --release -p drugtree-bench --bin experiments e3 e5   # subset
//! cargo run --release -p drugtree-bench --bin experiments -- --quick all
//! ```
//!
//! Prints each reconstructed table/figure series (DESIGN.md §5) and
//! writes the machine-readable results to `bench_results/<id>.json`
//! (`--out <dir>` redirects them, e.g. for the CI `benchdiff` gate).

use drugtree_bench::table::ExperimentTable;
use drugtree_bench::RunConfig;

/// One experiment: id + runner.
type Experiment = (&'static str, fn(RunConfig) -> ExperimentTable);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut out_dir = std::path::PathBuf::from("bench_results");
    let mut selected: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {}
            "--out" => match iter.next() {
                Some(dir) => out_dir = std::path::PathBuf::from(dir),
                None => {
                    eprintln!("error: --out needs a directory");
                    std::process::exit(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag {other:?}");
                std::process::exit(2);
            }
            other => selected.push(other),
        }
    }
    let all = selected.is_empty() || selected.contains(&"all");
    let config = RunConfig { quick };

    let experiments: Vec<Experiment> = vec![
        ("e1", drugtree_bench::e1_query_classes::run),
        ("e2", drugtree_bench::e2_scalability::run),
        ("e3", drugtree_bench::e3_cache::run),
        ("e4", drugtree_bench::e4_ablation::run),
        ("e5", drugtree_bench::e5_network::run),
        ("e6", drugtree_bench::e6_federation::run),
        ("e7", drugtree_bench::e7_matview::run),
        ("e8", drugtree_bench::e8_lod::run),
        ("e10", drugtree_bench::e10_browsing::run),
        ("e11", drugtree_bench::e11_serving::run),
        ("e13", drugtree_bench::e13_observability::run),
        ("e14", drugtree_bench::e14_fleet_obs::run),
        ("e15", drugtree_bench::e15_kernels::run),
        ("e16", drugtree_bench::e16_phases::run),
        ("e17", drugtree_bench::e17_adaptive::run),
    ];

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("warning: cannot create {}: {e}", out_dir.display());
    }

    for (name, runner) in experiments {
        if !(all || selected.contains(&name)) {
            continue;
        }
        let started = drugtree_sources::clock::wall_now();
        let table = runner(config);
        println!("{}", table.render());
        println!("(harness wall time: {:?})\n", started.elapsed());
        match serde_json::to_string_pretty(&table) {
            Ok(json) => {
                let path = out_dir.join(format!("{name}.json"));
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                }
            }
            Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
        }
    }
}
