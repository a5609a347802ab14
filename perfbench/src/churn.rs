//! `churn`: writes beside reads on the 34k-vertex LOOM store.
//!
//! Each round appends one batch of removals and relabels to the WAL (with
//! fsync), applies it through `AdaptiveServing::apply_mutations` (tombstones
//! and an epoch publish), then sends one small rooted read through
//! `AdaptiveServing::serve`. Every `COMPACT_EVERY` rounds the round also
//! compacts. The LOOM partitioner does no work here. The mutation plan is
//! drawn from the seed and removes at most a quarter of the vertices, so the
//! workload stays close to stationary.

use crate::setup::{self, Ctx, Layers, Scale, K, ROOTED, ROOTED_MATCH_LIMIT};
use crate::stats::{median, ms, quantile, ratio, sliced_quantile, us};
use crate::trace::Tracer;
use crate::{Outcome, Workload};
use loom_adapt::adaptive::{AdaptConfig, AdaptiveServing};
use loom_graph::{Label, LabelledGraph, StreamElement, VertexId};
use loom_motif::workload::Workload as QueryWorkload;
use loom_obs::Telemetry;
use loom_partition::partition::{PartitionId, Partitioning};
use loom_serve::engine::ServeConfig;
use loom_serve::shard::ShardedStore;
use loom_sim::engine::QueryRequest;
use loom_sim::plan::PlanCache;
use loom_store::{Wal, WAL_FILE};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds the mutation plan holds, more than the fastest run uses; a run
/// stops early if it uses them all. Self-test runs use a short plan, so
/// their WAL is the same every time.
pub const MAX_ROUNDS: usize = 40_000;
const SMALL_ROUNDS: usize = 100;
/// Every round relabels one vertex; every `EDGE_EVERY`th round also removes
/// an edge and every `VERTEX_EVERY`th a vertex, until a quarter is gone.
const EDGE_EVERY: usize = 2;
const VERTEX_EVERY: usize = 5;
/// Queries in each round's read request.
const READ_QUERIES: usize = 32;
/// Compact every this many rounds, rewriting shards at least this dead.
const COMPACT_EVERY: usize = 250;
const COMPACT_THRESHOLD: f64 = 0.001;
/// One-query requests behind `serve.request_fixed_us`.
const FIXED_COST_REQUESTS: usize = 64;
/// Reads compared between the live epoch and a rebuilt store at the end.
const PARITY_QUERIES: usize = 2_000;
/// Round latencies are taken per slice of this length (over a hundred
/// rounds), and the end-to-end figures are medians over slices.
const SLICE: Duration = Duration::from_millis(250);
/// The label alphabet of the scenario.
const LABELS: u32 = 8;

pub struct Churn;

pub struct State {
    adaptive: Option<AdaptiveServing>,
    /// The surviving graph and placement, kept beside the engine as the
    /// reference for the end-of-run parity check.
    graph: LabelledGraph,
    partitioning: Partitioning,
    workload: QueryWorkload,
    plans: Arc<PlanCache>,
    wal: Wal,
    wal_path: PathBuf,
    plan: Vec<Vec<StreamElement>>,
    round: usize,
    compactions: usize,
    layers: Layers,
    ipt_prob: f64,
}

/// A deterministic generator (SplitMix64) for the mutation plan.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The mutation plan for `rounds` rounds over `graph`: removed vertices are
/// distinct, removed edges and relabels touch only vertices the plan never
/// removes, and at most a quarter of the vertices go.
pub fn mutation_plan(graph: &LabelledGraph, rounds: usize, seed: u64) -> Vec<Vec<StreamElement>> {
    let mut rng = Mix(seed ^ 0xC4_0A11);
    let mut vertices = graph.vertices_sorted();
    rng.shuffle(&mut vertices);
    let removals = rounds.div_ceil(VERTEX_EVERY).min(vertices.len() / 4);
    let (removed, survivors) = vertices.split_at(removals);
    let mut removed = removed.iter();
    let removed_set: std::collections::HashSet<VertexId> = removed.clone().copied().collect();
    let mut edges: Vec<_> = graph
        .edges_sorted()
        .into_iter()
        .filter(|e| !removed_set.contains(&e.lo) && !removed_set.contains(&e.hi))
        .collect();
    rng.shuffle(&mut edges);
    let mut edges = edges.into_iter();
    (0..rounds)
        .map(|r| {
            let mut batch = Vec::with_capacity(3);
            if r % VERTEX_EVERY == 0 {
                if let Some(&id) = removed.next() {
                    batch.push(StreamElement::RemoveVertex { id });
                }
            }
            if r % EDGE_EVERY == 0 {
                if let Some(e) = edges.next() {
                    batch.push(StreamElement::RemoveEdge {
                        source: e.lo,
                        target: e.hi,
                    });
                }
            }
            let id = survivors[rng.below(survivors.len())];
            let label = Label::new(rng.below(LABELS as usize) as u32);
            batch.push(StreamElement::Relabel { id, label });
            batch
        })
        .collect()
}

/// Drift tracking with a long memory: the reads draw the mined mix, so only
/// sampling noise could flag drift, and a long memory keeps that noise far
/// below the threshold. Migrations are not what this workload measures.
fn adapt_config() -> AdaptConfig {
    let mut config = AdaptConfig::default();
    config.drift.decay = 0.99;
    config
}

fn serve_config() -> ServeConfig {
    ServeConfig::new(setup::WORKERS)
        .with_mode(ROOTED)
        .with_match_limit(ROOTED_MATCH_LIMIT)
        .with_queue_capacity(setup::QUEUE_CAPACITY)
}

impl Workload for Churn {
    type State = State;
    const PRIMARY: (&'static str, bool) = ("throughput_per_s", true);

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> State {
        let mut layers = Layers::new();
        let sc = setup::scenario(Scale::SMALL.for_ctx(ctx), ctx.seed, tr, &mut layers);
        let ingested = setup::ingest_loom(&sc, tr);
        let plans = setup::plans(&sc, tr, &mut layers);
        let ipt = setup::ipt(&sc.graph, &ingested.partitioning, &sc.workload, &plans);
        let mut adaptive = tr.span("adapt.new", 0, || {
            AdaptiveServing::new(
                sc.graph.clone(),
                ingested.partitioning.clone(),
                sc.workload.clone(),
                serve_config(),
                adapt_config(),
            )
            .with_plan_cache(Arc::clone(&plans))
        });
        // The previous set-up's state, and with it its WAL, is gone by now.
        let wal_dir = ctx.work_dir.join("wal");
        let _ = std::fs::remove_dir_all(&wal_dir);
        std::fs::create_dir_all(&wal_dir).expect("the WAL directory can be created");
        let wal_path = wal_dir.join(WAL_FILE);
        let wal = Wal::create(&wal_path).expect("a fresh WAL can be created");
        let rounds = if ctx.self_test {
            SMALL_ROUNDS
        } else {
            MAX_ROUNDS
        };
        let plan = mutation_plan(&sc.graph, rounds, ctx.seed);
        tr.span("adapt.warmup", 0, || {
            adaptive.serve(&sc.workload, READ_QUERIES * 8, !ctx.seed)
        })
        .expect("serving the mined mix never migrates");
        State {
            adaptive: Some(adaptive),
            graph: sc.graph,
            partitioning: ingested.partitioning,
            workload: sc.workload,
            plans,
            wal,
            wal_path,
            plan,
            round: 0,
            compactions: 0,
            layers,
            ipt_prob: ipt.metrics.inter_partition_probability(),
        }
    }

    fn measure(ctx: &Ctx, st: &mut State, seconds: f64, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::new(st.layers.clone());
        let mut adaptive = st.adaptive.take().expect("adaptive serving is set up");
        let telemetry = tr.enabled().then(Telemetry::new);
        if let Some(t) = &telemetry {
            adaptive = adaptive.with_telemetry(Arc::clone(t));
        }
        let before = telemetry.as_ref().map(|t| t.snapshot());
        let (mut wal_us, mut apply_us, mut write_us, mut read_us, mut round_us) =
            (vec![], vec![], vec![], vec![], vec![]);
        let (mut compact_ms, mut slices) = (vec![], vec![]);
        let (mut elements, mut tombstone_peak) = (0usize, 0.0f64);
        let started = Instant::now();
        while st.round < st.plan.len()
            && (round_us.is_empty() || started.elapsed().as_secs_f64() < seconds)
        {
            let batch = &st.plan[st.round];
            let id = st.round as u64;
            st.round += 1;
            let t = Instant::now();
            let appended = tr.span("store.wal_append", id, || st.wal.append(batch));
            appended.expect("the WAL appends");
            let t_apply = Instant::now();
            tr.span("adapt.apply_mutations", id, || {
                adaptive.apply_mutations(batch)
            });
            apply_us.push(us(t_apply.elapsed()));
            wal_us.push(us(t_apply - t));
            if st.round.is_multiple_of(COMPACT_EVERY) {
                let tc = Instant::now();
                tr.span("adapt.compact", id, || {
                    adaptive.compact_now(COMPACT_THRESHOLD)
                });
                compact_ms.push(ms(tc.elapsed()));
                st.compactions += 1;
            }
            let write = t.elapsed();
            write_us.push(us(write));
            elements += batch.len();
            apply_to_reference(&mut st.graph, &mut st.partitioning, batch);
            if tr.enabled() {
                let store = adaptive.epochs().load();
                tombstone_peak = tombstone_peak.max(tombstone_fraction(&store));
            }

            let seed = loom_load::arrival::step_seed(ctx.seed, st.round);
            let t = Instant::now();
            let served = tr.span("adapt.serve", id, || {
                adaptive.serve(&st.workload, READ_QUERIES, seed)
            });
            let read = t.elapsed();
            let (report, _) = served.expect("serving the mined mix never migrates");
            read_us.push(us(read));
            round_us.push(us(write + read));
            slices.push((started.elapsed().as_micros() / SLICE.as_micros()) as u32);
            out.attempted += 2;
            if report.error_budget.dropped() > 0 {
                out.failed += 1;
            }
        }
        let write_s: f64 = write_us.iter().sum::<f64>() / 1e6;
        out.e2e
            .insert("throughput_per_s", ratio(elements as f64, write_s));
        out.e2e
            .insert("latency_p50_us", sliced_quantile(&round_us, &slices, 0.5));
        out.e2e
            .insert("latency_p90_us", sliced_quantile(&round_us, &slices, 0.9));
        out.e2e.insert("ipt_prob", st.ipt_prob);

        // The live epoch — tombstoned and compacted — answers like a store
        // rebuilt from the surviving graph.
        let live = adaptive.epochs().load();
        let rebuilt = Arc::new(ShardedStore::from_parts(&st.graph, &st.partitioning));
        let engine = setup::engine(ROOTED, ROOTED_MATCH_LIMIT, &st.plans, None);
        let req = QueryRequest::workload(PARITY_QUERIES).with_seed(ctx.seed);
        let (got, _) = engine.run_request(&live, &st.workload, req);
        let (want, _) = engine.run_request(&rebuilt, &st.workload, req);
        out.check(
            got.aggregate.matches_found == want.aggregate.matches_found,
            || {
                format!(
                    "live epoch matches {} != rebuilt store {}",
                    got.aggregate.matches_found, want.aggregate.matches_found
                )
            },
        );
        let live_vertices = live.vertex_count() - live.tombstoned_vertices();
        out.check(live_vertices == st.graph.vertex_count(), || {
            format!(
                "live epoch holds {live_vertices} vertices, survivors {}",
                st.graph.vertex_count()
            )
        });
        // The WAL replays exactly the appended batches.
        let replay = Wal::replay(&st.wal_path).expect("the WAL replays");
        let appended = &st.plan[..st.round];
        out.check(
            replay.truncated_bytes == 0 && replay.batches == appended,
            || {
                format!(
                    "WAL replay returned {} batches ({} bytes truncated), appended {}",
                    replay.batches.len(),
                    replay.truncated_bytes,
                    appended.len()
                )
            },
        );
        let wal_bytes = std::fs::metadata(&st.wal_path).map_or(0, |m| m.len());
        let appended_elements: usize = appended.iter().map(Vec::len).sum();
        out.counts.insert("store.wal_bytes", wal_bytes as f64);
        out.counts.insert("churn.rounds", st.round as f64);
        out.counts
            .insert("churn.parity_matches", want.aggregate.matches_found as f64);
        out.counts.insert("ipt_prob", st.ipt_prob);

        let l = &mut out.layers;
        l.insert("store.wal_append_p50_us", quantile(&wal_us, 0.5));
        l.insert("store.wal_append_p90_us", quantile(&wal_us, 0.9));
        l.insert(
            "store.wal_bytes_per_elem",
            ratio(wal_bytes as f64, appended_elements as f64),
        );
        l.insert("adapt.apply_mutations_p50_us", quantile(&apply_us, 0.5));
        l.insert("adapt.apply_mutations_p90_us", quantile(&apply_us, 0.9));
        l.insert("adapt.compact_ms", quantile(&compact_ms, 0.5));
        l.insert("adapt.compactions", st.compactions as f64);
        l.insert("adapt.adaptations", adaptive.adaptations() as f64);
        l.insert("shard.tombstone_frac_peak", tombstone_peak);
        l.insert("churn.write_p50_us", quantile(&write_us, 0.5));
        l.insert("churn.write_p90_us", quantile(&write_us, 0.9));
        l.insert("churn.read_p50_us", quantile(&read_us, 0.5));
        l.insert("churn.read_p90_us", quantile(&read_us, 0.9));
        l.insert(
            "serve.failed_frac",
            ratio(out.failed as f64, out.attempted as f64),
        );
        if let (Some(t), Some(before)) = (&telemetry, before) {
            setup::engine_layers(l, t, &before);
        }
        st.adaptive = Some(adaptive);
        out
    }

    fn traced_extras(_ctx: &Ctx, st: &mut State, layers: &mut Layers) {
        let store = st
            .adaptive
            .as_ref()
            .expect("adaptive serving is set up")
            .epochs()
            .load();
        layers.insert(
            "serve.request_fixed_us",
            request_fixed_us(&store, &st.workload, &st.plans),
        );
    }
}

/// Median wall time of a one-query rooted request through the engine: the
/// fixed cost every request pays (worker spawn, routing, teardown).
fn request_fixed_us(
    store: &Arc<ShardedStore>,
    workload: &QueryWorkload,
    plans: &Arc<PlanCache>,
) -> f64 {
    let engine = setup::engine(ROOTED, ROOTED_MATCH_LIMIT, plans, None);
    let times: Vec<f64> = (0..FIXED_COST_REQUESTS)
        .map(|i| {
            let req = QueryRequest::workload(1).with_seed(i as u64);
            let t = Instant::now();
            engine.run_request(store, workload, req);
            us(t.elapsed())
        })
        .collect();
    median(&times)
}

/// The largest tombstone fraction over the store's shards.
fn tombstone_fraction(store: &ShardedStore) -> f64 {
    (0..K)
        .map(|p| store.tombstone_fraction(PartitionId::new(p)))
        .fold(0.0, f64::max)
}

/// Apply a batch to the reference graph and placement exactly as the
/// adaptive store applies it to its own.
fn apply_to_reference(
    graph: &mut LabelledGraph,
    partitioning: &mut Partitioning,
    batch: &[StreamElement],
) {
    for element in batch {
        match *element {
            StreamElement::RemoveVertex { id } => {
                if graph.remove_vertex(id) {
                    partitioning.unassign(id);
                }
            }
            StreamElement::RemoveEdge { source, target } => {
                graph.remove_edge(source, target);
            }
            StreamElement::Relabel { id, label } => {
                let _ = graph.set_label(id, label);
            }
            StreamElement::AddVertex { .. } | StreamElement::AddEdge { .. } => {}
        }
    }
}
