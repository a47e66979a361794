//! Fleet observability end to end: a Zipf session fleet runs with a
//! [`FleetObserver`] installed (rolling SLO windows + slow-query log +
//! JSONL trace export), the export lands in a file, and `TopReport`
//! folds it back into the workload summary that `drugtree top
//! <export.jsonl>` prints.
//!
//! ```sh
//! cargo run --release --example fleet_observability
//! ```

use drugtree::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(256).ligands(64).seed(1101));

    // A fleet of 16 Zipf-correlated sessions, each mixing browsing
    // gestures with explicit search-box queries.
    let mut workloads = zipf_sessions(
        &bundle.tree,
        &bundle.index,
        16,
        &GestureConfig {
            len: 48,
            seed: 1101,
            zipf_theta: 1.0,
            revisit_prob: 0.3,
        },
    );
    let pool = [
        "activities in tree where p_activity >= 6",
        "activities similar to 'CCO' >= 0.6",
        "activities in tree top 5 by p_activity",
        "aggregate max_p_activity in tree",
        "count per leaf in tree",
    ];
    for w in &mut workloads {
        let mut next = w.session;
        for (i, gesture) in w.script.iter_mut().enumerate() {
            if i % 4 == 3 {
                *gesture = Gesture::RunQuery(Box::new(Query::parse(pool[next % pool.len()])?));
                next += 1;
            }
        }
    }

    // Windows + slow log + file export, all on the virtual clock.
    let export_path = std::env::temp_dir().join("drugtree-fleet-export.jsonl");
    let sink = Arc::new(JsonlFileSink::create(&export_path)?);
    let observer = Arc::new(
        FleetObserver::with_windows(
            Duration::from_secs(2),
            16,
            SloPolicy::default().with_session_target(Duration::from_millis(100)),
        )
        .with_slowlog(8)
        .with_export(Arc::clone(&sink) as Arc<dyn Sink>),
    );

    // The serving API: a FleetBuilder over one shared executor, with
    // per-class deadlines and p95 hedging switched on. The per-class
    // shed/hedge/deadline rollup lands in the export as
    // `{"event":"serve"}` records, which `drugtree top` renders.
    let report = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .with_observer(Arc::clone(&observer) as Arc<dyn Observer>)
        .build()?
        .fleet()
        .with_sessions(workloads)
        .with_deadline_policy(DeadlinePolicy::uniform(Duration::from_millis(250)))
        .with_hedging(HedgePolicy { enabled: true })
        .run()?;
    sink.flush()?;

    println!(
        "fleet done: {} gestures / {} sessions, virtual makespan {:?}",
        report.gestures,
        report.sessions,
        report.virtual_makespan()
    );
    println!("export: {}\n", export_path.display());

    // What `drugtree top <export.jsonl>` prints.
    let export = std::io::BufReader::new(std::fs::File::open(&export_path)?);
    let top = TopReport::from_reader(export)?;
    print!("{}", top.render());

    // The slow log keeps the worst plan shapes with dedup counts.
    if let Some(slowlog) = observer.slowlog() {
        println!("\nslow-query log (top entries):");
        for entry in slowlog.entries().iter().take(3) {
            println!(
                "  {:016x} x{:<4} {:>9} {}",
                entry.fingerprint,
                entry.count,
                format!("{:?}", entry.charged),
                entry.query
            );
        }
    }
    Ok(())
}
