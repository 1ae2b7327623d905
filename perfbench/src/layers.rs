//! The traced run: per-layer metrics of one workload, taken from outside.
//!
//! Four groups, in the order they are measured (`README.md` maps each metric
//! to the end-to-end metric and workload it is expected to move):
//!
//! 1. *build stages* — the seven stage calls `Simulation` makes when it
//!    builds a substrate, re-issued here one span each and checked against
//!    the substrate's own outputs so the replica cannot drift;
//! 2. *run phases* — the public pieces of `Simulation::run`, with the event
//!    loop obtained by subtraction;
//! 3. *exact work counts* — pure functions of seed and configuration, read
//!    from the run's report;
//! 4. *layer kernels* — each public data-structure operation in isolation,
//!    on inputs shaped by the workload's own substrate and configuration.

use std::time::Instant;

use locaware::results::{DhtRunStats, FaultRunStats};
use locaware::{
    select_provider, GroupScheme, ResponseIndex, Scenario, SelectionPolicy, Simulation,
    SimulationReport,
};
use locaware_bloom::{BloomDelta, BloomFilter, BloomParams, CountingBloomFilter, ElementHashes};
use locaware_metrics::aggregate::percentile;
use locaware_net::{BriteConfig, BriteGenerator, LandmarkSet, LinkLatencyCache};
use locaware_overlay::{
    DhtId, DhtRecordStore, GeneratorConfig, PeerId, ProviderEntry, QueryId, QueryRouter,
    RoutingTable,
};
use locaware_sim::{mix, EventKey, RngFactory, ShardQueue, SimTime, StreamId};
use locaware_workload::{
    Catalog, CatalogConfig, FileId, InitialPlacement, KeywordId, PlacementConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{checked_run, repeat, Effort};
use crate::trace::Tracer;
use crate::workloads::Workload;

/// One per-layer metric `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerMetric {
    /// `<layer>.<what>`, the layer being a crate or a `core` module.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> LayerMetric {
    LayerMetric { name, unit, better }
}

/// Every per-layer metric, in reporting order. The traced run of every
/// workload reports all of them (a layer the workload bypasses reports 0).
pub const PER_LAYER: [LayerMetric; 69] = [
    // Build stages.
    metric("build.substrate_ms", "ms", "lower"),
    metric("net.brite_ms", "ms", "lower"),
    metric("net.landmark_ms", "ms", "lower"),
    metric("overlay.generate_ms", "ms", "lower"),
    metric("workload.catalog_ms", "ms", "lower"),
    metric("workload.placement_ms", "ms", "lower"),
    metric("core.group.assign_ms", "ms", "lower"),
    metric("net.latency_cache_ms", "ms", "lower"),
    metric("build.unattributed_ms", "ms", "lower"),
    // Run phases.
    metric("workload.arrivals_ms", "ms", "lower"),
    metric("overlay.churn_schedule_ms", "ms", "lower"),
    metric("core.engine.run_setup_ms", "ms", "lower"),
    metric("core.engine.event_loop_ms", "ms", "lower"),
    metric("core.engine.ns_per_event", "ns", "lower"),
    metric("core.engine.setup_share", "ratio", "lower"),
    metric("core.engine.window_overhead_ratio", "ratio", "lower"),
    metric("metrics.summarise_ms", "ms", "lower"),
    metric("trace.run_ms_p50", "ms", "lower"),
    metric("trace.run_ms_p75", "ms", "lower"),
    metric("trace.overhead_share", "ratio", "lower"),
    // Simulated results (the paper's three figures) and exact work counts.
    metric("sim.success_rate", "ratio", "higher"),
    metric("sim.msgs_per_query", "msgs", "lower"),
    metric("sim.download_distance_ms", "ms", "lower"),
    metric("sim.time.simulated_end_s", "s", "lower"),
    metric("core.engine.events", "count", "lower"),
    metric("overlay.msg.query", "count", "lower"),
    metric("overlay.msg.query-response", "count", "lower"),
    metric("overlay.msg.bloom-full", "count", "lower"),
    metric("overlay.msg.bloom-delta", "count", "lower"),
    metric("overlay.msg.dht-lookup", "count", "lower"),
    metric("overlay.msg.dht-lookup-reply", "count", "lower"),
    metric("overlay.msg.dht-store", "count", "lower"),
    metric("core.protocol.route.flood", "count", "lower"),
    metric("core.protocol.route.bloom-match", "count", "higher"),
    metric("core.protocol.route.gid-match", "count", "lower"),
    metric("core.protocol.route.high-degree", "count", "lower"),
    metric("core.protocol.route.not-forwarded", "count", "lower"),
    metric("core.protocol.responses_per_query_msg", "ratio", "higher"),
    metric("core.index.cache_hit_share", "ratio", "higher"),
    metric("core.index.cached_entries", "count", "higher"),
    metric("core.provider.locality_match_rate", "ratio", "higher"),
    metric("core.peer.file_replicas", "count", "higher"),
    metric("overlay.dht.lookups", "count", "higher"),
    metric("overlay.dht.mean_lookup_hops", "hops", "lower"),
    metric("overlay.dht.store_messages", "count", "lower"),
    metric("overlay.dht.records", "count", "lower"),
    metric("overlay.dht.record_bytes", "bytes", "lower"),
    metric("overlay.dht.truncated_entries", "count", "lower"),
    metric("overlay.dht.expired_entries", "count", "lower"),
    metric("workload.faults.messages_lost", "count", "lower"),
    metric("workload.faults.dht_stores_lost", "count", "lower"),
    metric("workload.faults.query_timeouts", "count", "lower"),
    metric("workload.faults.query_retransmits", "count", "lower"),
    metric("workload.faults.dht_step_timeouts", "count", "lower"),
    // Layer kernels, ns per operation, and the two shares whose operation
    // counts are exact.
    metric("sim.queue.push_pop_ns", "ns", "lower"),
    metric("sim.queue.pop_before_ns", "ns", "lower"),
    metric("sim.queue.est_share", "ratio", "lower"),
    metric("net.latency.lookup_ns", "ns", "lower"),
    metric("net.latency.est_share", "ratio", "lower"),
    metric("overlay.routing.on_query_ns", "ns", "lower"),
    metric("bloom.probe_ns", "ns", "lower"),
    metric("bloom.counting_update_ns", "ns", "lower"),
    metric("bloom.delta_ns", "ns", "lower"),
    metric("core.index.lookup_ns", "ns", "lower"),
    metric("core.index.insert_evict_ns", "ns", "lower"),
    metric("core.index.remove_provider_ns", "ns", "lower"),
    metric("core.provider.select_ns", "ns", "lower"),
    metric("overlay.dht.closest_ns", "ns", "lower"),
    metric("overlay.dht.record_insert_ns", "ns", "lower"),
];

/// What the traced run of one workload measured.
#[derive(Debug)]
pub struct Layers {
    /// `(name, value)` for every entry of [`PER_LAYER`], in that order.
    pub values: Vec<(&'static str, f64)>,
    /// Traced and untraced timed runs attempted.
    pub attempted: u64,
    /// Those that panicked or failed a check.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// The spans, for `trace-<workload>.json`.
    pub tracer: Tracer,
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Collects `(name, value)` pairs and refuses a name [`PER_LAYER`] lacks.
#[derive(Default)]
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &str, value: f64) -> Result<(), String> {
        let listed = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("per-layer metric {name} is not listed"))?;
        self.0.push((listed.name, value));
        Ok(())
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// In [`PER_LAYER`] order, failing if any listed metric was not measured.
    fn finish(self) -> Result<Vec<(&'static str, f64)>, String> {
        PER_LAYER
            .iter()
            .map(|m| {
                self.0
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .copied()
                    .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))
            })
            .collect()
    }
}

/// Measures every per-layer metric of `workload` under `seed`.
pub fn run_traced(workload: &Workload, seed: u64, effort: &Effort) -> Result<Layers, String> {
    let mut tracer = Tracer::new(workload.name);
    let mut values = Values::default();
    let scenario = workload.scenario(seed)?;

    let substrate = build_stages(&mut tracer, &mut values, &scenario, effort)?;
    let (report, attempted, failures) =
        run_phases(&mut tracer, &mut values, workload, seed, &substrate, effort)?;
    work_counts(&mut values, &report)?;
    kernels(&mut tracer, &mut values, &substrate, workload, seed, effort)?;

    let loop_ns = values.get("core.engine.event_loop_ms") * 1e6;
    let share = |ops: f64, ns_per_op: f64| {
        if loop_ns > 0.0 {
            ops * ns_per_op / loop_ns
        } else {
            0.0
        }
    };
    let queue_share = share(
        report.dispatched_events as f64,
        values.get("sim.queue.push_pop_ns"),
    );
    let latency_share = share(
        report.message_counters.total() as f64,
        values.get("net.latency.lookup_ns"),
    );
    values.set("sim.queue.est_share", queue_share)?;
    values.set("net.latency.est_share", latency_share)?;

    Ok(Layers {
        values: values.finish()?,
        attempted,
        failed: failures.len() as u64,
        failures,
        tracer,
    })
}

/// Group 1: the substrate build, then its stage calls one span each with the
/// same `StreamId` streams, checked against the substrate. Build and replica
/// alternate, so drift in the host's speed lands on both sides of
/// `build.unattributed_ms`. Returns the substrate.
fn build_stages(
    tracer: &mut Tracer,
    values: &mut Values,
    scenario: &Scenario,
    effort: &Effort,
) -> Result<Simulation, String> {
    const STAGES: [&str; 7] = [
        "net.brite_ms",
        "net.landmark_ms",
        "overlay.generate_ms",
        "workload.catalog_ms",
        "workload.placement_ms",
        "core.group.assign_ms",
        "net.latency_cache_ms",
    ];
    let config = scenario.config();
    let mut samples: [Vec<f64>; 7] = Default::default();
    let mut kept = None;
    let build_ms = repeat(effort, 1.0, || {
        let (substrate, build_ms) = tracer.timed("build.substrate", || scenario.substrate());
        let replica = tracer.enter("build.replica");
        let factory = RngFactory::new(config.seed);
        let (topology, brite) = tracer.timed("net.brite", || {
            BriteGenerator::new(BriteConfig {
                nodes: config.peers,
                placement: config.placement,
                min_latency_ms: config.min_latency_ms,
                max_latency_ms: config.max_latency_ms,
                jitter_fraction: 0.05,
            })
            .generate(&mut factory.stream(StreamId::PhysicalTopology))
        });
        let (loc_ids, landmark) = tracer.timed("net.landmark", || {
            LandmarkSet::spread(config.landmarks).assign_all(&topology)
        });
        let (graph, generate) = tracer.timed("overlay.generate", || {
            GeneratorConfig {
                peers: config.peers,
                average_degree: config.average_degree,
                model: config.graph_model,
            }
            .generate(&mut factory.stream(StreamId::OverlayGraph))
        });
        let (catalog, catalog_ms) = tracer.timed("workload.catalog", || {
            Catalog::generate(
                CatalogConfig {
                    files: config.file_pool,
                    keywords: config.keyword_pool,
                    keywords_per_file: config.keywords_per_file,
                },
                &mut factory.stream(StreamId::Catalog),
            )
        });
        let (shares, placement) = tracer.timed("workload.placement", || {
            let placement = InitialPlacement::generate(
                PlacementConfig {
                    peers: config.peers,
                    files_per_peer: config.files_per_peer,
                    file_pool: config.file_pool,
                    cluster_weights: config.cluster_weights.clone(),
                },
                &mut factory.stream(StreamId::FilePlacement),
            );
            (0..config.peers)
                .map(|p| placement.files_of(p).to_vec())
                .collect::<Vec<_>>()
        });
        let (gids, assign) = tracer.timed("core.group.assign", || {
            GroupScheme::new(config.group_count)
                .assign_all(config.peers, &mut factory.stream(StreamId::GroupAssignment))
        });
        let (latencies, cache) = tracer.timed("net.latency_cache", || {
            LinkLatencyCache::build(&topology, graph.edges())
        });
        tracer.exit(replica);

        for (stage, ms) in samples.iter_mut().zip([
            brite, landmark, generate, catalog_ms, placement, assign, cache,
        ]) {
            stage.push(ms);
        }
        let same = loc_ids == substrate.loc_ids()
            && gids == substrate.group_ids()
            && shares == substrate.initial_shares()
            && graph.edges().eq(substrate.overlay().edges())
            && catalog.len() == substrate.catalog().len()
            && latencies.links().eq(substrate.link_latencies().links());
        kept = Some(substrate);
        if same {
            Ok(build_ms)
        } else {
            Err("the build-stage replica no longer produces the substrate's outputs".to_string())
        }
    })?;
    let build_ms = median(&build_ms);
    values.set("build.substrate_ms", build_ms)?;

    let mut attributed = 0.0;
    for (name, stage) in STAGES.iter().zip(&samples) {
        let ms = median(stage);
        attributed += ms;
        values.set(name, ms)?;
    }
    values.set("build.unattributed_ms", build_ms - attributed)?;
    kept.ok_or_else(|| "no substrate was built".to_string())
}

/// Group 2: the public pieces of one run. Returns the reference report, the
/// timed runs attempted and what failed.
fn run_phases(
    tracer: &mut Tracer,
    values: &mut Values,
    workload: &Workload,
    seed: u64,
    substrate: &Simulation,
    effort: &Effort,
) -> Result<(SimulationReport, u64, Vec<String>), String> {
    let mut arrivals = Vec::new();
    let arrivals_ms = repeat(effort, 0.1, || {
        let ms;
        (arrivals, ms) = tracer.timed("workload.arrivals", || substrate.arrivals(workload.queries));
        Ok::<f64, String>(ms)
    })?;
    let churn_ms = repeat(effort, 0.1, || {
        let (schedule, ms) = tracer.timed("overlay.churn_schedule", || {
            substrate.churn_schedule(&arrivals)
        });
        std::hint::black_box(schedule);
        Ok::<f64, String>(ms)
    })?;
    // A zero-query run is the per-run peer-state, Bloom and routing-table
    // construction and teardown with an empty event loop.
    let setup_ms = repeat(effort, 0.5, || {
        let (empty, ms) = tracer.timed("core.engine.run_setup", || {
            substrate.run(workload.protocol, 0)
        });
        std::hint::black_box(empty);
        Ok::<f64, String>(ms)
    })?;

    let (report, _) = checked_run(workload, substrate, None)?;
    let reference = report.fingerprint();
    let same_events = workload
        .reference_scenario(seed)?
        .map(|scenario| scenario.substrate());

    // A traced run, an untraced run and (where there is one) a run of the
    // same-events reference follow each other within a second, and
    // `trace.overhead_share` and `window_overhead_ratio` are medians of the
    // ratios inside such a group: the host's speed drifts over tens of
    // seconds, so it cancels within a group and not between two medians.
    let (mut traced_ms, mut overhead, mut window_ratio) = (Vec::new(), Vec::new(), Vec::new());
    let mut failures = Vec::new();
    let (mut groups, mut attempted) = (0usize, 0u64);
    let measuring = Instant::now();
    while groups < effort.max_runs
        && (groups < effort.min_runs || measuring.elapsed().as_secs_f64() < effort.seconds)
    {
        groups += 1;
        let span = tracer.enter("core.engine.run");
        let traced = checked_run(workload, substrate, Some(reference));
        let span_ms = tracer.exit(span);
        let untraced = checked_run(workload, substrate, Some(reference));
        let same = same_events
            .as_ref()
            .map(|other| checked_run(workload, other, Some(reference)));
        attempted += 2 + u64::from(same.is_some());

        let mut passed = |outcome: Result<(SimulationReport, f64), String>| match outcome {
            Ok((_, ms)) => Some(ms),
            Err(message) => {
                failures.push(message);
                None
            }
        };
        let (traced, untraced, same) = (passed(traced), passed(untraced), same.and_then(passed));
        if traced.is_some() {
            traced_ms.push(span_ms);
            overhead.extend(untraced.map(|ms| span_ms / ms - 1.0));
            window_ratio.extend(same.map(|ms| span_ms / ms));
        }
    }
    if traced_ms.is_empty() || overhead.is_empty() {
        return Err(format!(
            "{}: no timed run passed: {}",
            workload.name,
            failures.join("; ")
        ));
    }

    let summarise_ms = repeat(effort, 0.1, || {
        let (summary, ms) = tracer.timed("metrics.summarise", || {
            (report.fingerprint(), report.summary_table().render())
        });
        std::hint::black_box(summary);
        Ok::<f64, String>(ms)
    })?;

    let run_ms = median(&traced_ms);
    let arrivals_ms = median(&arrivals_ms);
    let churn_ms = median(&churn_ms);
    let setup_ms = median(&setup_ms);
    let loop_ms = run_ms - arrivals_ms - churn_ms - setup_ms;
    let window_ratio = if window_ratio.is_empty() {
        1.0
    } else {
        median(&window_ratio)
    };
    values.set("workload.arrivals_ms", arrivals_ms)?;
    values.set("overlay.churn_schedule_ms", churn_ms)?;
    values.set("core.engine.run_setup_ms", setup_ms)?;
    values.set("core.engine.event_loop_ms", loop_ms)?;
    values.set(
        "core.engine.ns_per_event",
        loop_ms * 1e6 / report.dispatched_events.max(1) as f64,
    )?;
    values.set("core.engine.setup_share", setup_ms / run_ms)?;
    values.set("core.engine.window_overhead_ratio", window_ratio)?;
    values.set("metrics.summarise_ms", median(&summarise_ms))?;
    values.set("trace.run_ms_p50", run_ms)?;
    values.set("trace.run_ms_p75", percentile(&traced_ms, 75.0))?;
    values.set("trace.overhead_share", median(&overhead))?;
    Ok((report, attempted, failures))
}

/// Group 3: counts that repeat exactly for a seed and a configuration.
fn work_counts(values: &mut Values, report: &SimulationReport) -> Result<(), String> {
    values.set("sim.success_rate", report.success_rate())?;
    values.set("sim.msgs_per_query", report.avg_messages_per_query())?;
    values.set(
        "sim.download_distance_ms",
        report.avg_download_distance_ms(),
    )?;
    values.set("sim.time.simulated_end_s", report.simulated_end_time_secs)?;
    values.set("core.engine.events", report.dispatched_events as f64)?;
    for kind in [
        "query",
        "query-response",
        "bloom-full",
        "bloom-delta",
        "dht-lookup",
        "dht-lookup-reply",
        "dht-store",
    ] {
        let count = report.message_counters.get(&kind.to_string());
        values.set(&format!("overlay.msg.{kind}"), count as f64)?;
    }
    for decision in [
        "flood",
        "bloom-match",
        "gid-match",
        "high-degree",
        "not-forwarded",
    ] {
        let count = report.routing_decisions.get(&decision.to_string());
        values.set(&format!("core.protocol.route.{decision}"), count as f64)?;
    }
    let queries_sent = report.message_counters.get(&"query".to_string());
    let responses = report.message_counters.get(&"query-response".to_string());
    values.set(
        "core.protocol.responses_per_query_msg",
        responses as f64 / queries_sent.max(1) as f64,
    )?;
    values.set("core.index.cache_hit_share", report.cache_hit_share())?;
    values.set(
        "core.index.cached_entries",
        report.total_cached_index_entries as f64,
    )?;
    values.set(
        "core.provider.locality_match_rate",
        report.locality_match_rate(),
    )?;
    values.set("core.peer.file_replicas", report.total_file_replicas as f64)?;

    let dht = |field: fn(&DhtRunStats) -> f64| report.dht.as_ref().map_or(0.0, field);
    for (name, value) in [
        ("lookups", dht(|d| d.lookups as f64)),
        ("mean_lookup_hops", dht(DhtRunStats::mean_lookup_hops)),
        ("store_messages", dht(|d| d.store_messages as f64)),
        ("records", dht(|d| d.records as f64)),
        ("record_bytes", dht(|d| d.record_bytes as f64)),
        ("truncated_entries", dht(|d| d.truncated_entries as f64)),
        ("expired_entries", dht(|d| d.expired_entries as f64)),
    ] {
        values.set(&format!("overlay.dht.{name}"), value)?;
    }
    let faults = |field: fn(&FaultRunStats) -> u64| report.faults.as_ref().map_or(0, field);
    for (name, count) in [
        ("messages_lost", faults(|f| f.messages_lost)),
        ("dht_stores_lost", faults(|f| f.dht_stores_lost)),
        ("query_timeouts", faults(|f| f.query_timeouts)),
        ("query_retransmits", faults(|f| f.query_retransmits)),
        ("dht_step_timeouts", faults(|f| f.dht_step_timeouts)),
    ] {
        values.set(&format!("workload.faults.{name}"), count as f64)?;
    }
    Ok(())
}

/// Times `effort.reps` batches of one kernel and records the median cost of
/// one operation in nanoseconds. A batch returns how many operations it did
/// and how long the timed part of it took.
fn kernel(
    tracer: &mut Tracer,
    values: &mut Values,
    effort: &Effort,
    name: &str,
    mut batch: impl FnMut() -> (usize, std::time::Duration),
) -> Result<(), String> {
    let span = tracer.enter(name);
    let per_op: Vec<f64> = (0..effort.reps)
        .map(|_| {
            let (ops, elapsed) = batch();
            elapsed.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    tracer.exit(span);
    values.set(name, median(&per_op))
}

/// A batch that is one timed loop of `ops` calls of `op`.
fn timed_loop(ops: usize, mut op: impl FnMut(usize)) -> (usize, std::time::Duration) {
    let timer = Instant::now();
    for i in 0..ops {
        op(i);
    }
    (ops, timer.elapsed())
}

/// Group 4: each layer's public operations in isolation.
fn kernels(
    tracer: &mut Tracer,
    values: &mut Values,
    substrate: &Simulation,
    workload: &Workload,
    seed: u64,
    effort: &Effort,
) -> Result<(), String> {
    let config = substrate.config();
    let ops = effort.kernel_ops;
    // The benchmark's own draws come from a stream the program never uses.
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x7065_7266_6265_6e63));
    let catalog = substrate.catalog();
    let topology = substrate.topology();
    let latencies = substrate.link_latencies();
    let peer = |rng: &mut StdRng| PeerId(rng.gen_range(0..config.peers) as u32);
    let file = |rng: &mut StdRng| FileId(rng.gen_range(0..catalog.len()) as u32);
    let provider = |rng: &mut StdRng| {
        let p = peer(rng);
        (p, substrate.loc_ids()[p.index()])
    };

    // --- sim: the event queue -------------------------------------------------
    // Hold model: pop the earliest event, push it back one link latency
    // later, at a steady depth of 4096 pending events.
    let mut links: Vec<(PeerId, PeerId, u64)> = latencies
        .links()
        .map(|(a, b, d)| (a, b, d.as_micros().max(1)))
        .collect();
    if links.is_empty() {
        return Err(format!("{}: the overlay has no links", workload.name));
    }
    for i in (1..links.len()).rev() {
        links.swap(i, rng.gen_range(0..=i));
    }
    let hold = |i: usize| links[i % links.len()].2;
    let mut queue = ShardQueue::with_capacity(4097);
    for i in 0..4096u64 {
        queue.push(
            EventKey::new(SimTime::from_micros(hold(i as usize)), 3, i, 0),
            i,
        );
    }
    let mut sequence = 4096u64;
    kernel(tracer, values, effort, "sim.queue.push_pop_ns", || {
        timed_loop(ops, |i| {
            if let Some((key, payload)) = queue.pop() {
                sequence += 1;
                let at = SimTime::from_micros(key.time.as_micros() + hold(i));
                queue.push(EventKey::new(at, 3, sequence, 0), payload);
            }
        })
    })?;
    // Windowed drain: the same hold model through `pop_before`, one window
    // of the smallest link latency at a time (the sharded engine's shape);
    // an operation is one event, the refused pop that ends a window included.
    let window = links.iter().map(|l| l.2).min().unwrap_or(1);
    kernel(tracer, values, effort, "sim.queue.pop_before_ns", || {
        let timer = Instant::now();
        let mut drained = 0usize;
        while drained < ops {
            let Some(next) = queue.peek_key() else { break };
            let bound = EventKey::before_time(SimTime::from_micros(next.time.as_micros() + window));
            while let Some((key, payload)) = queue.pop_before(bound) {
                sequence += 1;
                let at = SimTime::from_micros(key.time.as_micros() + hold(drained));
                queue.push(EventKey::new(at, 3, sequence, 0), payload);
                drained += 1;
            }
        }
        (drained, timer.elapsed())
    })?;

    // --- net: per-link latency lookups along overlay links -------------------
    kernel(tracer, values, effort, "net.latency.lookup_ns", || {
        timed_loop(ops, |i| {
            let (a, b, _) = links[i % links.len()];
            std::hint::black_box(latencies.latency(topology, a, b));
        })
    })?;

    // --- overlay: duplicate suppression and reverse paths ---------------------
    // Every query id is seen once fresh and once as a duplicate; the router
    // is cleared after as many ids as the workload has queries.
    let mut router = QueryRouter::new();
    let queries = workload.queries.max(1) as u64;
    kernel(
        tracer,
        values,
        effort,
        "overlay.routing.on_query_ns",
        || {
            timed_loop(ops, |i| {
                let id = (i as u64 / 2) % queries;
                if i % 2 == 0 && id == 0 {
                    router.clear();
                }
                let (a, b, _) = links[i % links.len()];
                std::hint::black_box(
                    router.on_query(QueryId(id), Some(if i % 2 == 0 { a } else { b })),
                );
            })
        },
    )?;

    // --- bloom ---------------------------------------------------------------
    // Neighbour filters as full as a full response index makes them, probed
    // with the keyword hashes of catalog filenames.
    let params = BloomParams::new(config.bloom_bits, config.bloom_hashes);
    let hashes = catalog.keyword_hashes();
    let hashes_of = |f: FileId| -> Vec<ElementHashes> {
        catalog
            .filename(f)
            .keywords()
            .iter()
            .map(|&kw| hashes.of(kw))
            .collect()
    };
    let filters: Vec<BloomFilter> = (0..64)
        .map(|_| {
            let mut filter = BloomFilter::new(params);
            for _ in 0..config.response_index_capacity {
                for h in hashes_of(file(&mut rng)) {
                    filter.insert_hashes(&h);
                }
            }
            filter
        })
        .collect();
    let probes: Vec<Vec<ElementHashes>> = (0..256).map(|_| hashes_of(file(&mut rng))).collect();
    kernel(tracer, values, effort, "bloom.probe_ns", || {
        timed_loop(ops, |i| {
            let hit = filters[i % filters.len()].contains_all_hashes(&probes[i % probes.len()]);
            std::hint::black_box(hit);
        })
    })?;
    let mut counting = CountingBloomFilter::new(params);
    for probe in &probes[..config.response_index_capacity.min(probes.len())] {
        for h in probe {
            counting.insert_hashes(h);
        }
    }
    kernel(tracer, values, effort, "bloom.counting_update_ns", || {
        timed_loop(ops, |i| {
            let h = &probes[i % probes.len()][0];
            counting.insert_hashes(h);
            counting.remove_hashes(h);
        })
    })?;
    // One cached filename's worth of change between two synchronisations.
    let before = filters[0].clone();
    let mut after = before.clone();
    for h in &probes[0] {
        after.insert_hashes(h);
    }
    let mut mirror = before.clone();
    kernel(tracer, values, effort, "bloom.delta_ns", || {
        timed_loop(ops, |i| {
            let (old, new) = if i % 2 == 0 {
                (&before, &after)
            } else {
                (&after, &before)
            };
            BloomDelta::between(old, new).apply(&mut mirror);
        })
    })?;

    // --- core: the response index ---------------------------------------------
    let keywords_of = |f: FileId| catalog.filename(f).keywords().to_vec();
    let mut index = ResponseIndex::new(
        config.response_index_capacity,
        config.max_providers_per_file,
    );
    let mut cached = Vec::new();
    while index.len() < config.response_index_capacity.min(catalog.len()) {
        let f = file(&mut rng);
        for _ in 0..config.max_providers_per_file {
            index.insert(f, &keywords_of(f), [provider(&mut rng)]);
        }
        cached.push(f);
    }
    // Half the lookups name a cached file, half a random one; one to all of
    // its keywords, as the query generator draws them.
    let lookups: Vec<Vec<KeywordId>> = (0..256usize)
        .map(|i| {
            let f = if i % 2 == 0 {
                cached[i / 2 % cached.len()]
            } else {
                file(&mut rng)
            };
            let mut keywords = keywords_of(f);
            keywords.truncate(rng.gen_range(1..=keywords.len().max(1)));
            keywords
        })
        .collect();
    kernel(tracer, values, effort, "core.index.lookup_ns", || {
        timed_loop(ops, |i| {
            std::hint::black_box(index.lookup_by_keywords(&lookups[i % lookups.len()]));
        })
    })?;
    // Walking the catalog in order at capacity, every insert evicts.
    let mut next = 0usize;
    let mut evicting = index.clone();
    kernel(tracer, values, effort, "core.index.insert_evict_ns", || {
        timed_loop(ops, |_| {
            let f = FileId((next % catalog.len()) as u32);
            next += 1;
            let (a, _, _) = links[next % links.len()];
            let evicted = evicting.insert(
                f,
                catalog.filename(f).keywords(),
                [(a, substrate.loc_ids()[a.index()])],
            );
            std::hint::black_box(evicted);
        })
    })?;
    // A departing provider is dropped from every entry that records it; the
    // index is restored from a copy outside the timer.
    let providers: Vec<PeerId> = {
        let mut all: Vec<PeerId> = index
            .entries()
            .flat_map(|e| e.providers().iter().map(|p| p.peer))
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    };
    kernel(
        tracer,
        values,
        effort,
        "core.index.remove_provider_ns",
        || {
            let mut done = 0usize;
            let mut elapsed = std::time::Duration::ZERO;
            while done < ops {
                let mut scratch = index.clone();
                let timer = Instant::now();
                for &p in &providers {
                    std::hint::black_box(scratch.remove_provider(p));
                }
                elapsed += timer.elapsed();
                done += providers.len().max(1);
            }
            (done, elapsed)
        },
    )?;

    // --- core: provider selection ----------------------------------------------
    let offers: Vec<(PeerId, Vec<ProviderEntry>)> = (0..256)
        .map(|_| {
            let offered = (0..config.max_providers_per_response)
                .map(|_| {
                    let (p, loc_id) = provider(&mut rng);
                    ProviderEntry {
                        provider: p,
                        loc_id,
                    }
                })
                .collect();
            (peer(&mut rng), offered)
        })
        .collect();
    kernel(tracer, values, effort, "core.provider.select_ns", || {
        timed_loop(ops, |i| {
            let (requestor, offered) = &offers[i % offers.len()];
            std::hint::black_box(select_provider(
                SelectionPolicy::LocalityThenRtt,
                topology,
                latencies,
                *requestor,
                substrate.loc_ids()[requestor.index()],
                offered,
                &mut rng,
            ));
        })
    })?;

    // --- overlay: the DHT ---------------------------------------------------------
    // A converged table (every peer offered, full buckets refuse) asked for
    // the k contacts closest to keyword keys.
    let (peer_salt, keyword_salt) = (mix(seed, 1), mix(seed, 2));
    let mut table = RoutingTable::new(DhtId::derive(peer_salt, 0), config.dht.k);
    for p in 1..config.peers {
        table.insert(DhtId::derive(peer_salt, p as u64), PeerId(p as u32));
    }
    let targets: Vec<DhtId> = (0..256)
        .map(|_| DhtId::derive(keyword_salt, rng.gen_range(0..config.keyword_pool) as u64))
        .collect();
    let mut closest = Vec::new();
    // One call ranks every contact (microseconds, not nanoseconds), so a
    // tenth of the operations already gives batches as long as the others'.
    kernel(tracer, values, effort, "overlay.dht.closest_ns", || {
        timed_loop(ops.div_ceil(10), |i| {
            closest.clear();
            table.closest_into(targets[i % targets.len()], config.dht.k, &mut closest);
            std::hint::black_box(&closest);
        })
    })?;
    // Upserts into 64 keyword records under the byte cap, so a steady share
    // of them truncates.
    let mut store = DhtRecordStore::new(config.dht.max_record_bytes);
    kernel(
        tracer,
        values,
        effort,
        "overlay.dht.record_insert_ns",
        || {
            timed_loop(ops, |i| {
                let (a, _, _) = links[i % links.len()];
                let entry = ProviderEntry {
                    provider: a,
                    loc_id: substrate.loc_ids()[a.index()],
                };
                let f = (i % catalog.len()) as u32;
                store.insert((i % 64) as u32, f, entry, SimTime::from_micros(i as u64));
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    impl Layers {
        fn get(&self, name: &str) -> Option<f64> {
            self.values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, metric) in PER_LAYER.iter().enumerate() {
            assert!(crate::report::is_valid_name(metric.name), "{}", metric.name);
            assert!(crate::report::is_valid_unit(metric.unit), "{}", metric.unit);
            assert!(matches!(metric.better, "lower" | "higher"));
            assert!(
                PER_LAYER[..i].iter().all(|m| m.name != metric.name),
                "{}",
                metric.name
            );
        }
    }

    #[test]
    fn a_miniature_of_every_workload_reports_every_layer() {
        let effort = Effort {
            min_runs: 2,
            max_runs: 2,
            ..Effort::SMOKE
        };
        for workload in &WORKLOADS {
            let miniature = workload.miniature();
            let layers = run_traced(&miniature, 42, &effort).unwrap();
            assert!(layers.failures.is_empty(), "{:?}", layers.failures);
            assert_eq!(layers.values.len(), PER_LAYER.len());
            for ((name, value), listed) in layers.values.iter().zip(&PER_LAYER) {
                assert_eq!(*name, listed.name);
                assert!(value.is_finite(), "{name} = {value}");
            }
            assert_eq!(
                layers.get("core.engine.events").map(|e| e > 0.0),
                Some(true)
            );
            let sharded = miniature.same_events_as.is_some();
            assert_eq!(layers.attempted, if sharded { 6 } else { 4 });
            assert_eq!(
                layers.get("core.engine.window_overhead_ratio") == Some(1.0),
                !sharded
            );
            for kernel in PER_LAYER.iter().filter(|m| m.name.ends_with("_ns")) {
                assert!(
                    layers.get(kernel.name).unwrap_or(0.0) > 0.0,
                    "{} did no work",
                    kernel.name
                );
            }
            // The layers a workload bypasses report zero work.
            let dht = layers.get("overlay.dht.lookups").unwrap_or(0.0);
            assert_eq!(
                dht > 0.0,
                miniature.protocol.uses_dht(),
                "{}",
                miniature.name
            );
            assert!(layers
                .tracer
                .spans()
                .iter()
                .any(|s| s.name == "core.engine.run"));
        }
    }

    #[test]
    fn an_unlisted_metric_is_refused_and_a_missing_one_is_noticed() {
        let mut values = Values::default();
        assert!(values.set("no.such.metric", 1.0).is_err());
        values.set("net.brite_ms", 1.0).unwrap();
        assert!(values.finish().unwrap_err().contains("was not measured"));
    }
}
