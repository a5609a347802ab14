//! `serve-online`: open-loop Poisson arrivals of rooted queries against the
//! 340k-vertex LOOM store, through `ServeEngine::open_loop`.
//!
//! A run is a nominal segment at a fixed rate, whose latencies are the
//! end-to-end latency figures, then a saturation segment of back-to-back
//! engine requests that keep the worker's inbox full, whose completions per
//! second are the throughput. Every nominal query is timed from its
//! *scheduled* arrival, so a generator or host stall charges the queries it
//! delays.

use crate::setup::{self, Ctx, Layers, Scale, ROOTED, ROOTED_MATCH_LIMIT, WORKERS};
use crate::stats::{quantile, ratio, us};
use crate::trace::Tracer;
use crate::{Outcome, Workload};
use loom_load::arrival::ArrivalProcess;
use loom_motif::workload::Workload as QueryWorkload;
use loom_obs::Telemetry;
use loom_serve::engine::{Admission, OpenLoopInjector, ServeEngine};
use loom_serve::shard::ShardedStore;
use loom_sim::engine::{request_schedule, run_sequential, QueryRequest};
use loom_sim::plan::PlanCache;
use loom_sim::store::PartitionedStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nominal offered rate: about a quarter of what one worker sustains.
pub const NOMINAL_RPS: f64 = 18_000.0;
/// Per-query traversal budget.
pub const TRAVERSAL_BUDGET: usize = 512;
/// Queries in one saturation request: about a quarter of a second of work,
/// so the engine's per-request cost is amortised and the coordinator keeps
/// the worker's inbox full for nearly all of it.
const SATURATION_QUERIES: usize = 16_384;
/// An arrival the generator reaches this late is shed, not sent.
const SHED_AFTER: Duration = Duration::from_millis(50);
/// How long a segment waits for its in-flight queries after the last
/// arrival.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// Queries of the closed-loop warm-up in set-up.
const WARMUP_QUERIES: usize = 20_000;

pub struct ServeOnline;

pub struct State {
    store: Arc<ShardedStore>,
    reference: PartitionedStore,
    workload: QueryWorkload,
    plans: Arc<PlanCache>,
    layers: Layers,
    /// Exact `LoomStats` counters of the set-up's LOOM pass.
    loom_counts: Layers,
    /// Failed checks of the set-up's LOOM placement.
    placement_failures: Vec<String>,
    ipt_prob: f64,
    segments: u64,
}

/// The arrival offsets (µs from the segment start) of one segment.
pub fn arrivals(rate: f64, length: Duration, seed: u64) -> Vec<u64> {
    ArrivalProcess::Poisson.offsets_us(rate, length, seed)
}

/// The request behind one segment: its sampled queries and root seeds.
pub fn request(samples: usize, seed: u64) -> QueryRequest {
    QueryRequest::workload(samples)
        .with_seed(seed)
        .with_traversal_budget(TRAVERSAL_BUDGET)
}

impl Workload for ServeOnline {
    type State = State;
    const PRIMARY: (&'static str, bool) = ("latency_p50_us", false);

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> State {
        let mut layers = Layers::new();
        let sc = setup::scenario(Scale::LARGE.for_ctx(ctx), ctx.seed, tr, &mut layers);
        let ingested = setup::ingest_loom(&sc, tr);
        let mut loom_counts = Layers::new();
        let placement_failures =
            setup::partition_layers(&sc, &ingested, &mut layers, &mut loom_counts);
        let store = setup::publish_store(&sc.graph, &ingested.partitioning, tr, &mut layers);
        let plans = setup::plans(&sc, tr, &mut layers);
        let ipt = setup::ipt(&sc.graph, &ingested.partitioning, &sc.workload, &plans);
        let reference = PartitionedStore::new(sc.graph, ingested.partitioning);
        let engine = setup::engine(ROOTED, ROOTED_MATCH_LIMIT, &plans, None);
        tr.span("serve.warmup", 0, || {
            engine.run_request(&store, &sc.workload, request(WARMUP_QUERIES, !ctx.seed))
        });
        State {
            store,
            reference,
            workload: sc.workload,
            plans,
            layers,
            loom_counts,
            placement_failures,
            ipt_prob: ipt.metrics.inter_partition_probability(),
            segments: 0,
        }
    }

    fn measure(ctx: &Ctx, st: &mut State, seconds: f64, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::new(st.layers.clone());
        out.failures.extend(st.placement_failures.iter().cloned());
        out.counts.extend(&st.loom_counts);
        let telemetry = tr.enabled().then(Telemetry::new);
        let engine = setup::engine(ROOTED, ROOTED_MATCH_LIMIT, &st.plans, telemetry.as_ref());

        // Nominal segment.
        let nominal_len = Duration::from_secs_f64(seconds * 0.5);
        st.segments += 1;
        let seed = mix(ctx.seed, st.segments);
        let offsets = arrivals(NOMINAL_RPS, nominal_len, seed);
        let req = request(offsets.len(), seed);
        let before = telemetry.as_ref().map(|t| t.snapshot());
        let (report, seg) = engine.open_loop(&st.store, &st.workload, req, |inj| {
            drive(inj, &offsets, nominal_len, tr)
        });
        out.attempted += seg.offered as u64;
        out.failed += seg.failed() as u64;
        out.e2e
            .insert("latency_p50_us", quantile(&seg.latency_us, 0.5));
        out.e2e
            .insert("latency_p90_us", quantile(&seg.latency_us, 0.9));
        out.e2e.insert("ipt_prob", st.ipt_prob);

        // Parity: the engine's matches equal the sequential executor's on the
        // same schedule, less the arrivals that were dropped.
        let sequential = tr.span("sim.sequential", 0, || {
            let t = Instant::now();
            let executor = setup::rooted_executor(&st.plans);
            let response = run_sequential(&executor, &st.reference, &st.workload, req);
            (response, t.elapsed().as_secs_f64())
        });
        let (expected, seq_wall) = sequential;
        let dropped = dropped_matches(st, &req, &seg.dropped);
        let want = expected.metrics.matches_found - dropped;
        let got = report.aggregate.matches_found;
        out.check(got == want, || {
            format!(
                "open-loop matches {got} != sequential {want} ({} dropped)",
                seg.dropped.len()
            )
        });
        out.check(seg.completed == seg.admitted, || {
            format!("{} admitted but {} completed", seg.admitted, seg.completed)
        });
        crate::sim_layers(
            &mut out.layers,
            &expected.metrics,
            Some(seq_wall),
            &st.plans,
        );
        out.counts
            .insert("sim.traversals", expected.metrics.total_traversals as f64);
        out.counts
            .insert("sim.matches", expected.metrics.matches_found as f64);
        out.counts.insert("load.arrivals", offsets.len() as f64);
        out.counts.insert("ipt_prob", st.ipt_prob);

        let l = &mut out.layers;
        l.insert("load.nominal_rps", NOMINAL_RPS);
        l.insert("load.query_p99_us", quantile(&seg.latency_us, 0.99));
        l.insert("load.query_p999_us", quantile(&seg.latency_us, 0.999));
        l.insert("load.gen_lag_p50_us", quantile(&seg.lag_us, 0.5));
        l.insert("load.gen_lag_p99_us", quantile(&seg.lag_us, 0.99));
        l.insert("serve.rejected", seg.rejected as f64);
        l.insert("serve.shed", seg.shed as f64);
        l.insert("serve.deadline_expired", seg.deadline_expired as f64);
        l.insert(
            "serve.failed_frac",
            ratio(seg.failed() as f64, seg.offered as f64),
        );
        let seq_us_per_query = ratio(seq_wall * 1e6, expected.metrics.queries_executed as f64);
        if let (Some(t), Some(before)) = (&telemetry, before) {
            let exec = setup::engine_layers(l, t, &before);
            l.insert(
                "serve.execute_busy_frac",
                ratio(exec.sum as f64, seg.wall_s * 1e6 * WORKERS as f64),
            );
            // Worker time per query beyond what the sequential matcher takes.
            l.insert(
                "serve.overhead_us_per_query",
                ratio(exec.sum as f64, exec.count as f64) - seq_us_per_query,
            );
        }

        let length = Duration::from_secs_f64(seconds * 0.5);
        let (saturation, completed, dropped) = saturate(ctx, st, &engine, length, tr);
        out.attempted += completed as u64;
        out.failed += dropped as u64;
        out.e2e.insert("throughput_per_s", saturation);
        out
    }

    fn traced_extras(ctx: &Ctx, st: &mut State, layers: &mut Layers) {
        let graph = st.reference.graph();
        let stream = setup::stream(graph, ctx.seed);
        setup::reference_ipt(graph, &stream, &st.workload, &st.plans, layers);
    }
}

/// Saturation throughput: `SATURATION_QUERIES`-query requests through
/// `ServeEngine::run_request`, one after another for `length`. The
/// coordinator holds back queries while the worker's inbox is full, so the
/// worker never waits for work. Returns the queries completed per second of
/// request wall time, the queries completed, and the queries dropped.
fn saturate(
    ctx: &Ctx,
    st: &mut State,
    engine: &ServeEngine,
    length: Duration,
    tr: &mut Tracer,
) -> (f64, usize, usize) {
    let started = Instant::now();
    let (mut completed, mut dropped, mut wall_s) = (0usize, 0usize, 0.0);
    while wall_s == 0.0 || started.elapsed() < length {
        st.segments += 1;
        let req = request(SATURATION_QUERIES, mix(ctx.seed, st.segments));
        let t = Instant::now();
        let (report, _) = tr.span("serve.run_request", st.segments, || {
            engine.run_request(&st.store, &st.workload, req)
        });
        wall_s += t.elapsed().as_secs_f64();
        completed += report.queries;
        dropped += report.error_budget.dropped();
    }
    (ratio(completed as f64, wall_s), completed, dropped)
}

/// Matches the sequential executor finds for the given dropped arrivals.
fn dropped_matches(st: &State, req: &QueryRequest, dropped: &[u64]) -> usize {
    if dropped.is_empty() {
        return 0;
    }
    let schedule = request_schedule(&st.workload, req);
    let executor = setup::rooted_executor(&st.plans);
    dropped
        .iter()
        .map(|&seq| {
            let (index, root_seed) = schedule[seq as usize];
            let one = QueryRequest::query(st.workload.queries()[index].id())
                .with_samples(1)
                .with_seed(root_seed.wrapping_sub(1))
                .with_traversal_budget(TRAVERSAL_BUDGET);
            run_sequential(&executor, &st.reference, &st.workload, one)
                .metrics
                .matches_found
        })
        .sum()
}

/// A per-segment seed derived from the run's seed.
fn mix(seed: u64, segment: u64) -> u64 {
    loom_load::arrival::step_seed(seed, segment as usize)
}

/// What the generator observed over one segment.
#[derive(Default)]
struct Segment {
    offered: usize,
    admitted: usize,
    rejected: usize,
    shed: usize,
    completed: usize,
    deadline_expired: usize,
    /// Scheduled arrival to observed completion, µs.
    latency_us: Vec<f64>,
    /// How late the generator issued each arrival, µs.
    lag_us: Vec<f64>,
    /// Sequence numbers of rejected and shed arrivals.
    dropped: Vec<u64>,
    /// From the first scheduled arrival to the last completion, s.
    wall_s: f64,
}

impl Segment {
    fn failed(&self) -> usize {
        self.rejected + self.shed + self.deadline_expired
    }

    fn absorb(&mut self, inj: &mut OpenLoopInjector<'_>, due: &[Instant]) {
        for c in inj.drain_completions() {
            self.completed += 1;
            if c.deadline_exceeded {
                self.deadline_expired += 1;
            }
            if let Some(&at) = due.get(c.seq as usize) {
                self.latency_us.push(us(c.at.saturating_duration_since(at)));
            }
        }
    }
}

/// Issue `offsets` on schedule (never waiting on the engine), then wait for
/// the in-flight queries.
fn drive(
    inj: &mut OpenLoopInjector<'_>,
    offsets: &[u64],
    length: Duration,
    tr: &mut Tracer,
) -> Segment {
    let start = Instant::now() + Duration::from_millis(2);
    let mut seg = Segment {
        offered: offsets.len(),
        ..Segment::default()
    };
    seg.lag_us.reserve(offsets.len());
    seg.latency_us.reserve(offsets.len());
    let mut due_at: Vec<Instant> = Vec::with_capacity(offsets.len());
    for (i, &offset) in offsets.iter().enumerate() {
        let due = start + Duration::from_micros(offset);
        let open = tr.open("load.pace", i as u64);
        inj.pump_until(due);
        tr.close(open);
        seg.absorb(inj, &due_at);
        due_at.push(due);
        let lag = Instant::now().saturating_duration_since(due);
        seg.lag_us.push(us(lag));
        if lag > SHED_AFTER {
            if let Some(seq) = inj.shed_next() {
                seg.shed += 1;
                seg.dropped.push(seq);
            }
            continue;
        }
        let open = tr.open("serve.inject", i as u64);
        let admission = inj.inject_next(None);
        tr.close(open);
        match admission {
            Admission::Admitted { .. } => seg.admitted += 1,
            Admission::Rejected { seq, .. } => {
                seg.rejected += 1;
                seg.dropped.push(seq);
            }
            Admission::Exhausted => break,
        }
    }
    inj.pump_until(start + length);
    seg.absorb(inj, &due_at);
    let grace = Instant::now() + DRAIN_GRACE;
    while inj.outstanding() > 0 && Instant::now() < grace {
        inj.pump_until((Instant::now() + Duration::from_millis(5)).min(grace));
        seg.absorb(inj, &due_at);
    }
    seg.wall_s = start.elapsed().as_secs_f64();
    seg
}
