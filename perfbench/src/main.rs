//! The LOOM benchmark: one named workload per run, built from a seed.
//!
//! ```text
//! loom-perfbench --workload <serve-online|churn>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The untraced run (`--trace 0`) prints every end-to-end metric; the traced
//! run (`--trace 1`) measures the same workload untraced, then with spans
//! and engine telemetry on, then untraced again, and prints every per-layer
//! metric. The last line of standard output is the result object; a run
//! whose outputs fail a check prints `"correct": false` with no metrics and
//! exits with code 1. See `README.md` beside this crate.

mod churn;
mod env;
mod serve_online;
mod setup;
mod stats;
mod trace;

use setup::{Ctx, Layers, DRIVER_THREADS, QUEUE_CAPACITY, WORKERS};
use stats::ratio;
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Tracer;

/// End-to-end metrics and their units; every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("ipt_prob", "ratio"),
];

/// Per-layer metrics and their units. A layer a workload does not use
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("motif.mine_ms", "ms"),
    ("plan.compile_us", "us"),
    ("plan.cache_hit_frac", "ratio"),
    ("partition.ingest_busy_s", "s"),
    ("partition.finish_ms", "ms"),
    ("partition.cut_ratio", "ratio"),
    ("partition.imbalance", "ratio"),
    ("partition.ipt_prob.ldg", "ratio"),
    ("partition.ipt_prob.hash", "ratio"),
    ("loom.signatures_per_elem", "1/elem"),
    ("loom.verifications_per_elem", "1/elem"),
    ("loom.false_positive_frac", "ratio"),
    ("loom.cluster_vertex_frac", "ratio"),
    ("sim.execute_us_per_query", "us"),
    ("sim.traversals_per_query", "count"),
    ("sim.matches_per_query", "count"),
    ("shard.from_parts_ms", "ms"),
    ("epoch.publish_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p90_us", "us"),
    ("serve.execute_p50_us", "us"),
    ("serve.execute_busy_frac", "ratio"),
    ("serve.overhead_us_per_query", "us"),
    ("serve.request_fixed_us", "us"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.failed_frac", "ratio"),
    ("load.nominal_rps", "1/s"),
    ("load.query_p99_us", "us"),
    ("load.query_p999_us", "us"),
    ("load.gen_lag_p50_us", "us"),
    ("load.gen_lag_p99_us", "us"),
    ("store.wal_append_p50_us", "us"),
    ("store.wal_append_p90_us", "us"),
    ("store.wal_bytes_per_elem", "B/elem"),
    ("adapt.apply_mutations_p50_us", "us"),
    ("adapt.apply_mutations_p90_us", "us"),
    ("adapt.compact_ms", "ms"),
    ("adapt.compactions", "count"),
    ("adapt.adaptations", "count"),
    ("shard.tombstone_frac_peak", "ratio"),
    ("churn.write_p50_us", "us"),
    ("churn.write_p90_us", "us"),
    ("churn.read_p50_us", "us"),
    ("churn.read_p90_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("self_frac.graph", "ratio"),
    ("self_frac.motif", "ratio"),
    ("self_frac.partition", "ratio"),
    ("self_frac.sim", "ratio"),
    ("self_frac.serve", "ratio"),
    ("self_frac.store", "ratio"),
    ("self_frac.adapt", "ratio"),
    ("self_frac.load", "ratio"),
    ("self_frac.bench", "ratio"),
];

/// What one measurement produced.
pub struct Outcome {
    /// End-to-end figures (all but `setup_s` and `peak_rss_mb`).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer figures.
    pub layers: Layers,
    /// Counts that must repeat exactly for a seed (the self-test compares
    /// them across runs).
    pub counts: BTreeMap<&'static str, f64>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Operations attempted and failed in the timed part.
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn new(layers: Layers) -> Self {
        Self {
            e2e: BTreeMap::new(),
            layers,
            counts: BTreeMap::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Record a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One benchmark workload: a set-up that builds its inputs and stack from
/// the seed, and a measurement of a given length over them.
pub trait Workload {
    type State;
    /// The end-to-end metric the trace overhead is judged on, and whether
    /// higher is better.
    const PRIMARY: (&'static str, bool);

    /// Build the inputs and the stack.
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self::State;

    fn measure(ctx: &Ctx, state: &mut Self::State, seconds: f64, tr: &mut Tracer) -> Outcome;

    /// Traced-run extras computed outside the measured span.
    fn traced_extras(_ctx: &Ctx, _state: &mut Self::State, _layers: &mut Layers) {}
}

/// `loom-sim` figures from a sequential run: counts per query, the plan
/// cache's hit share and, when timed, wall time per query.
pub fn sim_layers(
    layers: &mut Layers,
    metrics: &loom_sim::executor::ExecutionMetrics,
    wall_s: Option<f64>,
    plans: &loom_sim::plan::PlanCache,
) {
    let queries = metrics.queries_executed as f64;
    layers.insert(
        "sim.traversals_per_query",
        ratio(metrics.total_traversals as f64, queries),
    );
    layers.insert(
        "sim.matches_per_query",
        ratio(metrics.matches_found as f64, queries),
    );
    if let Some(wall) = wall_s {
        layers.insert("sim.execute_us_per_query", ratio(wall * 1e6, queries));
    }
    let lookups = (plans.hits() + plans.misses()) as f64;
    layers.insert("plan.cache_hit_frac", ratio(plans.hits() as f64, lookups));
}

/// A finished run: its outcome plus the figures measured around it.
pub struct Report {
    pub outcome: Outcome,
    pub setup_s: f64,
    pub tracer: Tracer,
}

/// Set up `W` (several times), then measure it: once for an untraced run.
/// A traced run measures untraced for a quarter of the time, traced for
/// half, then untraced for the last quarter, so a drift in the host's speed
/// over the run weighs on both sides of `trace.overhead_frac` alike.
pub fn run<W: Workload>(ctx: &Ctx, traced: bool) -> Report {
    let mut tracer = Tracer::new(traced);
    let (mut state, setup_s) = setup::repeated(|| W::setup(ctx, &mut tracer));
    if !traced {
        let outcome = W::measure(ctx, &mut state, ctx.seconds, &mut tracer);
        return Report {
            outcome,
            setup_s,
            tracer,
        };
    }
    tracer.set_enabled(false);
    let before = W::measure(ctx, &mut state, ctx.seconds / 4.0, &mut tracer);
    tracer.set_enabled(true);
    let root = tracer.next_index();
    let open = tracer.open("bench.measure", 0);
    let mut outcome = W::measure(ctx, &mut state, ctx.seconds / 2.0, &mut tracer);
    tracer.close(open);
    tracer.set_enabled(false);
    let after = W::measure(ctx, &mut state, ctx.seconds / 4.0, &mut tracer);
    W::traced_extras(ctx, &mut state, &mut outcome.layers);

    let (name, higher_better) = W::PRIMARY;
    let plain = (before.e2e[name] + after.e2e[name]) / 2.0;
    let traced_value = outcome.e2e[name];
    let overhead = if higher_better {
        ratio(plain - traced_value, plain)
    } else {
        ratio(traced_value - plain, plain)
    };
    outcome.layers.insert("trace.overhead_frac", overhead);
    let self_s = tracer.self_seconds_by_layer(root);
    let total: f64 = self_s.values().sum();
    for (metric, _) in PER_LAYER
        .iter()
        .filter(|(m, _)| m.starts_with("self_frac."))
    {
        let layer = &metric["self_frac.".len()..];
        let share = ratio(self_s.get(layer).copied().unwrap_or(0.0), total);
        outcome.layers.insert(metric, share);
    }
    for plain in [before, after] {
        outcome.failures.extend(plain.failures);
        outcome.attempted += plain.attempted;
        outcome.failed += plain.failed;
    }
    Report {
        outcome,
        setup_s,
        tracer,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loom-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = env::nproc();
    if WORKERS + DRIVER_THREADS > nproc {
        eprintln!(
            "loom-perfbench: {WORKERS} worker(s) + {DRIVER_THREADS} driver thread(s) exceed nproc = {nproc}"
        );
        std::process::exit(2);
    }
    let out_dir = PathBuf::from(".bench_out");
    let work_dir = out_dir.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("loom-perfbench: cannot create {}: {e}", work_dir.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        self_test: false,
        work_dir: work_dir.clone(),
    };
    let wal_fs = env::filesystem_of(&work_dir);
    let steal_before = env::steal_ticks();
    let report = match args.workload.as_str() {
        "serve-online" => run::<serve_online::ServeOnline>(&ctx, args.trace),
        "churn" => run::<churn::Churn>(&ctx, args.trace),
        other => {
            eprintln!("loom-perfbench: unknown workload {other}");
            let _ = std::fs::remove_dir_all(&work_dir);
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let peak_rss_mb = env::peak_rss_mb();
    let steal_after = env::steal_ticks();
    let steal_frac = ratio(
        steal_after.0.saturating_sub(steal_before.0) as f64,
        steal_after.1.saturating_sub(steal_before.1) as f64,
    );

    if args.trace {
        let path = out_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match report.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                report.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("loom-perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let fingerprint = env::Fingerprint {
        nproc,
        workers: WORKERS,
        driver_threads: DRIVER_THREADS,
        queue_capacity: QUEUE_CAPACITY,
        wal_fs,
        // The generator runs only in `serve-online`; elsewhere this is 0.
        gen_lag_p50_us: report
            .outcome
            .layers
            .get("load.gen_lag_p50_us")
            .copied()
            .unwrap_or(0.0),
        steal_frac,
    };
    println!("fingerprint: {}", fingerprint.to_json());
    let out = report.outcome;
    for (name, value) in &out.counts {
        println!("count: {name} = {value}");
    }
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        for &(name, unit) in PER_LAYER {
            metrics.push((name, unit, out.layers.get(name).copied().unwrap_or(0.0)));
        }
    } else {
        let mut e2e = out.e2e.clone();
        e2e.insert("setup_s", report.setup_s);
        e2e.insert("peak_rss_mb", peak_rss_mb);
        for &(name, unit) in END_TO_END {
            let value = e2e.get(name).copied().unwrap_or(f64::NAN);
            metrics.push((name, unit, value));
        }
    }
    let mut failures = out.failures;
    for (name, _, value) in &metrics {
        if !value.is_finite() {
            failures.push(format!("metric {name} is not a finite number"));
        }
    }
    for failure in &failures {
        println!("check failed: {failure}");
    }
    let correct = failures.is_empty();
    let body = if correct {
        metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ")
    } else {
        String::new()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static CASE: AtomicUsize = AtomicUsize::new(0);

    fn ctx(seed: u64, seconds: f64) -> Ctx {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let work_dir =
            PathBuf::from(".bench_out").join(format!("test-{}-{case}", std::process::id()));
        std::fs::create_dir_all(&work_dir).expect("test work dir");
        Ctx {
            seed,
            seconds,
            self_test: true,
            work_dir,
        }
    }

    /// The deterministic counts of one small run, which must pass its checks.
    fn counts<W: Workload>(seed: u64, seconds: f64) -> BTreeMap<&'static str, f64> {
        let ctx = ctx(seed, seconds);
        let report = run::<W>(&ctx, false);
        let _ = std::fs::remove_dir_all(&ctx.work_dir);
        assert!(
            report.outcome.failures.is_empty(),
            "{:?}",
            report.outcome.failures
        );
        for (name, _) in END_TO_END
            .iter()
            .filter(|(n, _)| !n.starts_with("setup") && !n.starts_with("peak"))
        {
            assert!(report.outcome.e2e.contains_key(name), "missing {name}");
        }
        report.outcome.counts
    }

    fn same_seed_same_counts<W: Workload>(seconds: f64) {
        let a = counts::<W>(7, seconds);
        let b = counts::<W>(7, seconds);
        assert!(!a.is_empty());
        assert_eq!(a, b, "counts differ between two runs with one seed");
        let c = counts::<W>(8, seconds);
        assert_ne!(a, c, "another seed must change the inputs");
    }

    #[test]
    fn serve_online_counts_repeat_for_a_seed() {
        same_seed_same_counts::<serve_online::ServeOnline>(0.4);
    }

    #[test]
    fn churn_counts_repeat_for_a_seed() {
        // Long enough that the short self-test plan, not the clock, ends it.
        same_seed_same_counts::<churn::Churn>(60.0);
    }

    #[test]
    fn another_seed_changes_the_schedule() {
        use std::time::Duration;
        let a = serve_online::arrivals(serve_online::NOMINAL_RPS, Duration::from_secs(1), 1);
        let b = serve_online::arrivals(serve_online::NOMINAL_RPS, Duration::from_secs(1), 2);
        assert_ne!(a, b);
        let (graph, workload) = loom_bench::scenarios::motif_scenario(200, 20, 1);
        let schedule =
            |seed| loom_sim::engine::request_schedule(&workload, &serve_online::request(64, seed));
        assert_ne!(schedule(1), schedule(2));
        assert_eq!(schedule(1), schedule(1));
        assert_ne!(
            churn::mutation_plan(&graph, 10, 1),
            churn::mutation_plan(&graph, 10, 2)
        );
    }

    #[test]
    fn benchmark_json_declares_every_metric() {
        let json =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
