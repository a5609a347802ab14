//! Inputs and stack set-up shared by the workloads.
//!
//! Everything here is built from the run's seed through the repository's
//! public API: the scenario generator of `loom-bench`, the miner of
//! `loom-motif`, the LOOM partitioner of `loom-core`, the planner and
//! sequential executor of `loom-sim` and the sharded store and engine of
//! `loom-serve`.

use crate::stats::{ms, ratio, us};
use crate::trace::Tracer;
use loom_bench::scenarios::motif_scenario;
use loom_core::{LoomBuilder, LoomStats};
use loom_graph::ordering::StreamOrder;
use loom_graph::{GraphStream, LabelledGraph};
use loom_motif::mining::MotifMiner;
use loom_motif::tpstry::Tpstry;
use loom_motif::workload::Workload;
use loom_obs::{stage, HistogramSnapshot, Telemetry, TelemetrySnapshot};
use loom_partition::hash::HashPartitioner;
use loom_partition::ldg::{LdgConfig, LdgPartitioner};
use loom_partition::metrics::evaluate;
use loom_partition::partition::{PartitionId, Partitioning};
use loom_partition::traits::{partition_stream_batched, Partitioner};
use loom_serve::engine::{ServeConfig, ServeEngine};
use loom_serve::epoch::EpochStore;
use loom_serve::shard::ShardedStore;
use loom_sim::engine::{run_sequential, QueryRequest, QueryResponse};
use loom_sim::executor::{LatencyModel, QueryExecutor, QueryMode};
use loom_sim::plan::{GraphStatistics, PlanCache, PlanStrategy, QueryPlanner};
use loom_sim::store::PartitionedStore;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Partitions (and shards).
pub const K: u32 = 8;
/// LOOM's stream window, in vertices.
pub const WINDOW: usize = 128;
/// LOOM's motif support threshold.
pub const MOTIF_THRESHOLD: f64 = 0.3;
/// Elements per `Partitioner::ingest_batch` call.
pub const BATCH: usize = 256;
/// Rooted samples behind `ipt_prob`, and their fixed seed.
pub const IPT_SAMPLES: usize = 4096;
pub const IPT_SEED: u64 = 0x5EED_1217;
/// The online query shape: rooted at 3 seeds, at most 64 matches.
pub const ROOTED: QueryMode = QueryMode::Rooted { seed_count: 3 };
pub const ROOTED_MATCH_LIMIT: usize = 64;
/// Engine workers: one, so the worker and the driver thread fill `nproc` = 2.
pub const WORKERS: usize = 1;
/// Threads the benchmark itself runs besides the workers (the driver, which
/// is also the engine's coordinator).
pub const DRIVER_THREADS: usize = 1;
/// Worker inbox depth: deep enough that a 10–20 ms host stall at the
/// nominal rate rejects nothing.
pub const QUEUE_CAPACITY: usize = 1024;
/// Set-ups per run: at least `SETUP_MIN_REPS`, then more until they have
/// taken `SETUP_MIN_S` in all (at most `SETUP_MAX_REPS`), so a set-up of a
/// fraction of a second still yields a median over many samples. `setup_s`
/// is their median.
pub const SETUP_MIN_REPS: usize = 3;
pub const SETUP_MIN_S: f64 = 4.0;
pub const SETUP_MAX_REPS: usize = 25;

/// One run's settings, from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Shrink every input tenfold: the size the self-test runs at.
    pub self_test: bool,
    /// Scratch directory for the WAL, removed when the run ends.
    pub work_dir: PathBuf,
}

/// A `motif_scenario` size: background vertices and planted instances.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub background: usize,
    pub instances: usize,
}

impl Scale {
    /// |V| = 340k, |E| = 660k: the `serve-online` graph.
    pub const LARGE: Scale = Scale {
        background: 200_000,
        instances: 20_000,
    };
    /// |V| = 34k: the `churn` graph.
    pub const SMALL: Scale = Scale {
        background: 20_000,
        instances: 2_000,
    };

    /// This scale, shrunk tenfold when the run is a self-test run.
    pub fn for_ctx(self, ctx: &Ctx) -> Scale {
        if ctx.self_test {
            Scale {
                background: self.background / 10,
                instances: self.instances / 10,
            }
        } else {
            self
        }
    }
}

/// Per-layer figures a workload measured, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The generated graph, its workload, the random-order stream over it and
/// the workload's TPSTry++.
pub struct Scenario {
    pub graph: LabelledGraph,
    pub workload: Workload,
    pub stream: GraphStream,
    pub tpstry: Tpstry,
}

/// Generate the scenario for `seed` and mine its workload.
pub fn scenario(scale: Scale, seed: u64, tr: &mut Tracer, layers: &mut Layers) -> Scenario {
    let (graph, workload) = tr.span("graph.generate", 0, || {
        motif_scenario(scale.background, scale.instances, seed)
    });
    let stream = tr.span("graph.stream_order", 0, || stream(&graph, seed));
    let t = Instant::now();
    let tpstry = tr
        .span("motif.mine", 0, || MotifMiner::default().mine(&workload))
        .expect("the scenario workload mines");
    layers.insert("motif.mine_ms", ms(t.elapsed()));
    Scenario {
        graph,
        workload,
        stream,
        tpstry,
    }
}

/// The random-order stream over `graph` for `seed`.
pub fn stream(graph: &LabelledGraph, seed: u64) -> GraphStream {
    GraphStream::from_graph(graph, &StreamOrder::Random { seed })
}

/// Compile every workload query once against the graph's statistics.
pub fn plans(sc: &Scenario, tr: &mut Tracer, layers: &mut Layers) -> Arc<PlanCache> {
    let stats = tr.span("sim.graph_statistics", 0, || {
        GraphStatistics::from_graph(&sc.graph)
    });
    let t = Instant::now();
    let cache = tr.span("sim.plan_compile", 0, || {
        PlanCache::compile(
            &QueryPlanner::new(PlanStrategy::default()),
            &sc.workload,
            &stats,
        )
    });
    layers.insert("plan.compile_us", us(t.elapsed()));
    Arc::new(cache)
}

/// One LOOM pass over the scenario's stream.
pub struct Ingested {
    pub partitioning: Partitioning,
    pub stats: LoomStats,
    /// Σ `ingest_batch`, s.
    pub busy_s: f64,
    /// `finish`, ms.
    pub finish_ms: f64,
}

/// Stream the scenario through a fresh LOOM partitioner (k = 8, window 128,
/// threshold 0.3) in 256-element batches, then `finish`.
pub fn ingest_loom(sc: &Scenario, tr: &mut Tracer) -> Ingested {
    let mut loom = LoomBuilder::new(K, sc.graph.vertex_count())
        .window_size(WINDOW)
        .motif_threshold(MOTIF_THRESHOLD)
        .build(&sc.tpstry)
        .expect("valid LOOM configuration");
    let elements = sc.stream.elements();
    let mut busy_s = 0.0;
    for (i, chunk) in elements.chunks(BATCH).enumerate() {
        let open = tr.open("partition.ingest_batch", i as u64);
        let t = Instant::now();
        loom.ingest_batch(chunk)
            .expect("a well-formed stream ingests");
        busy_s += t.elapsed().as_secs_f64();
        tr.close(open);
    }
    let t = Instant::now();
    let partitioning = tr
        .span("partition.finish", 0, || loom.finish())
        .expect("the window flushes");
    let finish_ms = ms(t.elapsed());
    Ingested {
        partitioning,
        stats: loom.loom_stats(),
        busy_s,
        finish_ms,
    }
}

/// The `loom-core` / `loom-partition` figures of a LOOM pass: timings,
/// `LoomStats` ratios and placement quality into `layers`, and the exact
/// `LoomStats` counters into `counts`. Returns the failed placement checks:
/// every streamed vertex is placed, and no partition exceeds LOOM's
/// capacity.
pub fn partition_layers(
    sc: &Scenario,
    ingested: &Ingested,
    layers: &mut Layers,
    counts: &mut Layers,
) -> Vec<String> {
    let (graph, partitioning, stats) = (&sc.graph, &ingested.partitioning, &ingested.stats);
    let elements = sc.stream.len() as f64;
    layers.insert("partition.ingest_busy_s", ingested.busy_s);
    layers.insert("partition.finish_ms", ingested.finish_ms);
    layers.insert(
        "loom.signatures_per_elem",
        ratio(stats.signatures_computed as f64, elements),
    );
    layers.insert(
        "loom.verifications_per_elem",
        ratio(stats.verifications as f64, elements),
    );
    layers.insert(
        "loom.false_positive_frac",
        ratio(
            stats.false_positive_matches as f64,
            stats.verifications as f64,
        ),
    );
    layers.insert(
        "loom.cluster_vertex_frac",
        ratio(
            stats.cluster_vertices_assigned as f64,
            graph.vertex_count() as f64,
        ),
    );
    let quality = evaluate(graph, partitioning);
    layers.insert("partition.cut_ratio", quality.cut_ratio);
    layers.insert("partition.imbalance", quality.imbalance);
    counts.insert("loom.signatures", stats.signatures_computed as f64);
    counts.insert("loom.matches", stats.motif_matches_found as f64);
    counts.insert("loom.clusters", stats.clusters_assigned as f64);
    counts.insert(
        "loom.cluster_vertices",
        stats.cluster_vertices_assigned as f64,
    );
    counts.insert("loom.window_edges", stats.window_edges as f64);

    let mut failures = Vec::new();
    let unplaced = graph
        .vertices()
        .filter(|&v| !partitioning.is_assigned(v))
        .count();
    if unplaced > 0 {
        failures.push(format!("{unplaced} streamed vertices unassigned"));
    }
    let capacity = partitioning.capacity();
    for p in 0..K {
        let size = partitioning.size(PartitionId::new(p));
        if size > capacity {
            failures.push(format!("partition {p} holds {size} > capacity {capacity}"));
        }
    }
    failures
}

/// Reference placements of the same stream by LDG and hash, so a LOOM
/// change that erases its quality lead shows.
pub fn reference_ipt(
    graph: &LabelledGraph,
    stream: &GraphStream,
    workload: &Workload,
    plans: &Arc<PlanCache>,
    layers: &mut Layers,
) {
    let n = graph.vertex_count();
    let mut ldg = LdgPartitioner::new(LdgConfig::new(K, n)).expect("valid LDG config");
    let mut hash = HashPartitioner::new(K, n).expect("valid hash config");
    for (name, p) in [
        ("partition.ipt_prob.ldg", &mut ldg as &mut dyn Partitioner),
        ("partition.ipt_prob.hash", &mut hash),
    ] {
        let placed =
            partition_stream_batched(p, stream, BATCH).expect("baselines place every vertex");
        let reference = ipt(graph, &placed, workload, plans);
        layers.insert(name, reference.metrics.inter_partition_probability());
    }
}

/// Freeze a partitioned graph into a sharded store and publish it as a
/// serving epoch, recording the two timings in `layers`. Returns the
/// published snapshot.
pub fn publish_store(
    graph: &LabelledGraph,
    partitioning: &Partitioning,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Arc<ShardedStore> {
    let epochs = empty_epochs();
    let t = Instant::now();
    let store = tr.span("serve.from_parts", 0, || {
        ShardedStore::from_parts(graph, partitioning)
    });
    layers.insert("shard.from_parts_ms", ms(t.elapsed()));
    let t = Instant::now();
    tr.span("serve.epoch_publish", 0, || epochs.publish(store));
    layers.insert("epoch.publish_us", us(t.elapsed()));
    epochs.load()
}

/// An epoch store holding an empty placeholder epoch.
pub fn empty_epochs() -> EpochStore {
    let empty = Partitioning::new(K, 1).expect("k > 0");
    EpochStore::new(ShardedStore::from_parts(&LabelledGraph::new(), &empty))
}

/// The sequential executor configured like the online engine.
pub fn rooted_executor(plans: &Arc<PlanCache>) -> QueryExecutor {
    QueryExecutor::new(LatencyModel::default())
        .with_mode(ROOTED)
        .with_match_limit(ROOTED_MATCH_LIMIT)
        .with_plan_cache(Arc::clone(plans))
}

/// A one-worker engine with a deep queue, the given query shape and the
/// shared plans; observed when `telemetry` is given.
pub fn engine(
    mode: QueryMode,
    match_limit: usize,
    plans: &Arc<PlanCache>,
    telemetry: Option<&Arc<Telemetry>>,
) -> ServeEngine {
    let config = ServeConfig::new(WORKERS)
        .with_mode(mode)
        .with_match_limit(match_limit)
        .with_queue_capacity(QUEUE_CAPACITY);
    let engine = ServeEngine::new(config).with_plan_cache(Arc::clone(plans));
    match telemetry {
        Some(t) => engine.with_telemetry(Arc::clone(t)),
        None => engine,
    }
}

/// Queue wait and execute quantiles of the engine runs observed by `t` since
/// `before`. Returns the execute histogram for busy-time figures.
pub fn engine_layers(
    layers: &mut Layers,
    t: &Telemetry,
    before: &TelemetrySnapshot,
) -> HistogramSnapshot {
    let delta = t.snapshot().since(before);
    let wait = delta.histogram_merged(stage::SERVE_QUEUE_WAIT);
    let exec = delta.histogram_merged(stage::SERVE_EXECUTE);
    layers.insert("serve.queue_wait_p50_us", wait.quantile(0.5) as f64);
    layers.insert("serve.queue_wait_p90_us", wait.quantile(0.9) as f64);
    layers.insert("serve.execute_p50_us", exec.quantile(0.5) as f64);
    exec
}

/// Inter-partition traversal probability of the workload on `partitioning`:
/// `IPT_SAMPLES` rooted queries through the sequential executor with a fixed
/// seed, so the figure is exact and repeats bit for bit.
pub fn ipt(
    graph: &LabelledGraph,
    partitioning: &Partitioning,
    workload: &Workload,
    plans: &Arc<PlanCache>,
) -> QueryResponse {
    let store = PartitionedStore::new(graph.clone(), partitioning.clone());
    run_sequential(
        &rooted_executor(plans),
        &store,
        workload,
        QueryRequest::workload(IPT_SAMPLES).with_seed(IPT_SEED),
    )
}

/// Run `setup` as often as the `SETUP_*` limits say, dropping each result
/// before building the next, and return the last result with the median
/// set-up time in seconds.
pub fn repeated<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times: Vec<f64> = Vec::with_capacity(SETUP_MAX_REPS);
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && times.iter().sum::<f64>() < SETUP_MIN_S)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        crate::stats::median(&times),
    )
}
