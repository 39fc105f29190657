//! Sharded event-loop core parity soak: engine parity and layout
//! invariance.
//!
//! The coordinator runs every agent on one runtime — a fixed worker pool
//! over a hash-sharded registry — whose shard/worker layout
//! ([`ShardConfig`]) is a pure performance knob. The soak runs n = 256
//! clients across a selector × `RoundPolicy` × fault matrix, one layout
//! per cell, and pins two anchors **bit for bit** (`RunResult`'s
//! `PartialEq` compares every float via `to_bits`):
//!
//! * **engine parity** — each cell at its layout equals a
//!   [`FedSim`] run with the same selector, policy and faults, with
//!   liveness suspicion disabled (lost heartbeat acks otherwise shrink
//!   the coordinator's pool, a feature the loop engine does not have);
//! * **layout invariance** — each cell with the default heartbeat policy
//!   equals the same cell on the degenerate `ShardConfig::new(1, 1)`
//!   layout.
//!
//! A Join/Leave churn leg and a kill-and-resume leg (snapshots written
//! and restored across layouts) then compare the single-shard layout
//! against wide ones.
//!
//! This is the pinned argument of DESIGN.md §14: shard routing only
//! regroups per-client work, FedAvg admits in selection order, and
//! liveness sweeps are re-sorted to id order — so the layout can never
//! leak into results.

use haccs::coord::ShardConfig;
use haccs::fedsim::engine::ModelFactory;
use haccs::prelude::*;
use haccs::scheduler::{build_clusters, summarize_federation};
use haccs::sysmodel::HeartbeatPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 256;
const CLASSES: usize = 4;
const SEED: u64 = 0xACC5;
const ROUNDS: usize = 4;

/// The degenerate layout every other layout is compared against.
const SINGLE: ShardConfig = ShardConfig { n_shards: 1, n_workers: 1 };

fn build_world() -> (FederatedDataset, Vec<DeviceProfile>) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let specs = partition::majority_noise(
        N,
        CLASSES,
        &partition::MAJORITY_NOISE_75,
        (10, 20),
        12,
        &mut rng,
    );
    let gen = SynthVision::mnist_like(CLASSES, 8, SEED);
    let fed = FederatedDataset::materialize(&gen, &specs, SEED);
    let profiles = DeviceProfile::sample_many(N, &mut rng);
    (fed, profiles)
}

fn make_selector(kind: &str, fed: &FederatedDataset) -> Box<dyn Selector> {
    match kind {
        "random" => Box::new(RandomSelector::new()),
        "tifl" => Box::new(TiflSelector::new(4)),
        "oort" => Box::new(OortSelector::new()),
        "haccs" => {
            let summarizer = Summarizer::label_dist();
            let summaries = summarize_federation(fed, &summarizer, SEED ^ 0xD9);
            let (_, groups) = build_clusters(&summarizer, &summaries, 2, ExtractionMethod::Auto);
            Box::new(HaccsSelector::new(groups, 0.5, "P(y)"))
        }
        other => panic!("unknown selector {other}"),
    }
}

fn factory() -> ModelFactory {
    Box::new(|| ModelKind::Mlp.build(1, 8, CLASSES, &mut StdRng::seed_from_u64(7)))
}

fn latency() -> LatencyModel {
    LatencyModel::for_params(10_000, 2e-3, 1)
}

fn cfg() -> SimConfig {
    SimConfig { k: 16, seed: SEED, ..Default::default() }
}

/// A coordinator over the first `n_start` clients of the shared world on
/// the given layout — everything else identical.
fn build_coord(
    layout: ShardConfig,
    kind: &str,
    n_start: usize,
    policy: RoundPolicy,
    faults: FaultModel,
) -> Coordinator<Box<dyn Selector>> {
    let (full, profiles) = build_world();
    let mut fed = full;
    fed.clients.truncate(n_start);
    let sel = make_selector(kind, &fed);
    Coordinator::new(
        factory(),
        fed,
        profiles[..n_start].to_vec(),
        latency(),
        Availability::AlwaysOn,
        cfg(),
        sel,
    )
    .with_shard_layout(layout)
    .with_summary_seed(SEED ^ 0xD9)
    .with_policy(policy)
    .with_faults(faults)
}

/// The loop engine over the whole world with the same selector, policy
/// and faults as a [`build_coord`] cell.
fn engine_run(kind: &str, policy: RoundPolicy, faults: FaultModel) -> RunResult {
    let (fed, profiles) = build_world();
    let mut sel = make_selector(kind, &fed);
    let mut sim = FedSim::new(factory(), fed, profiles, latency(), Availability::AlwaysOn, cfg())
        .with_policy(policy)
        .with_faults(faults);
    sim.run(&mut sel, ROUNDS)
}

/// The selector × policy × fault matrix, one shard layout per cell — from
/// the degenerate single-shard/single-worker pool to 64 shards on 8
/// workers.
fn matrix() -> Vec<(&'static str, RoundPolicy, FaultModel, ShardConfig)> {
    let lossy = FaultModel::none(SEED)
        .with(FaultSpec::Lossy { prob: 0.2 })
        .with(FaultSpec::Straggler { prob: 0.15, slowdown: 3.0 });
    let crashy = FaultModel::none(SEED).with(FaultSpec::Crash { prob: 0.15 });
    vec![
        ("random", RoundPolicy::default(), FaultModel::none(SEED), SINGLE),
        (
            "oort",
            RoundPolicy::deadline(AggregationPolicy::DeadlineDrop, 0.9),
            lossy,
            ShardConfig::new(3, 2),
        ),
        (
            "haccs",
            RoundPolicy::deadline(AggregationPolicy::Replace, 0.9),
            crashy,
            ShardConfig::new(16, 4),
        ),
        ("tifl", RoundPolicy::default(), lossy, ShardConfig::new(64, 8)),
    ]
}

/// Anchor (a): every cell, at its own layout and with suspicion
/// disabled, reproduces the loop engine's run.
#[test]
fn matrix_cells_match_the_fedsim_engine() {
    for (kind, policy, faults, layout) in matrix() {
        let engine = engine_run(kind, policy, faults);
        let coord = build_coord(layout, kind, N, policy, faults)
            .with_heartbeat(HeartbeatPolicy::new(1, 1_000_000, 1_000_000))
            .run(ROUNDS);
        assert_eq!(
            engine, coord,
            "{kind} under {policy:?} with {layout:?} diverged from the FedSim engine"
        );
        assert!(engine.rounds.iter().all(|r| !r.participants.is_empty()));
    }
}

/// Anchor (b): every cell with the default heartbeat policy (suspicion
/// live) equals the same cell on the single-shard layout. The cell that
/// already runs single-shard is compared against the default layout.
#[test]
fn matrix_cells_are_layout_invariant() {
    for (kind, policy, faults, layout) in matrix() {
        let wide = if layout == SINGLE { ShardConfig::default() } else { layout };
        let single = build_coord(SINGLE, kind, N, policy, faults).run(ROUNDS);
        let sharded = build_coord(wide, kind, N, policy, faults).run(ROUNDS);
        assert_eq!(single, sharded, "{kind} under {policy:?}: {wide:?} diverged from {SINGLE:?}");
    }
}

/// The layout itself must be inert: two sharded runs with wildly
/// different shard/worker splits are bit-identical to each other.
#[test]
fn shard_layout_never_changes_results() {
    let faults = FaultModel::none(SEED).with(FaultSpec::Lossy { prob: 0.25 });
    let a =
        build_coord(ShardConfig::new(2, 1), "oort", N, RoundPolicy::default(), faults).run(ROUNDS);
    let b = build_coord(ShardConfig::new(128, 8), "oort", N, RoundPolicy::default(), faults)
        .run(ROUNDS);
    assert_eq!(a, b, "shard layout leaked into results");
}

/// Join/Leave churn: the same scripted membership stream (mid-training
/// joins, some with scheduled departures) applied on two layouts must
/// yield identical per-round records and an identical global model.
fn churn_run(layout: ShardConfig) -> (Vec<haccs::fedsim::RoundRecord>, Vec<f32>) {
    const N_START: usize = 200;
    let (full, _) = build_world();
    let mut coord =
        build_coord(layout, "random", N_START, RoundPolicy::default(), FaultModel::none(SEED));
    let mut script = StdRng::seed_from_u64(SEED ^ 0xC0DE);
    let mut next_join = N_START;
    let mut records = Vec::new();
    for round in 0..6u64 {
        // up to 3 joins per round after the founding enrollment, ~40%
        // with a scripted leave a couple of rounds out
        for _ in 0..if round == 0 { 0 } else { script.gen_range(0..4u32) } {
            if next_join >= N {
                break;
            }
            let data = full.clients[next_join].clone();
            let profile = DeviceProfile::uniform_fast();
            if script.gen_bool(0.4) {
                coord.add_client_leaving_after(data, profile, round + script.gen_range(2..4u64));
            } else {
                coord.add_client(data, profile);
            }
            next_join += 1;
        }
        records.push(coord.run_round());
    }
    assert!(next_join > N_START, "churn script must actually join clients");
    (records, coord.global_params().to_vec())
}

#[test]
fn join_leave_churn_is_bit_identical_across_layouts() {
    let (rec_single, params_single) = churn_run(SINGLE);
    let (rec_wide, params_wide) = churn_run(ShardConfig::new(8, 3));
    assert_eq!(rec_single, rec_wide, "churn round histories diverged");
    assert_eq!(
        params_single.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        params_wide.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        "churn global models diverged"
    );
}

/// Kill-and-resume: a coordinator snapshotted mid-run and restored into
/// a fresh coordinator on a different shard layout must finish with the
/// uninterrupted single-shard run's exact history. Snapshots are
/// layout-free by design, so the bytes written on either layout are
/// identical and all four resume paths must agree.
#[test]
fn snapshot_resume_is_bit_identical_across_layouts() {
    const SNAP_EPOCH: usize = 2;
    let policy = RoundPolicy::default();
    let faults = FaultModel::none(SEED).with(FaultSpec::Straggler { prob: 0.2, slowdown: 2.0 });
    let wide = ShardConfig::new(16, 4);
    let reference = build_coord(SINGLE, "oort", N, policy, faults).run(ROUNDS);

    let snapshot_on = |layout: ShardConfig| {
        let mut c = build_coord(layout, "oort", N, policy, faults);
        for _ in 0..SNAP_EPOCH {
            c.run_round();
        }
        c.snapshot()
    };
    let snap_single = snapshot_on(SINGLE);
    let snap_wide = snapshot_on(wide);
    assert_eq!(snap_single, snap_wide, "snapshot bytes must be layout-independent");

    let resumes: Vec<(&str, ShardConfig, &Vec<u8>)> = vec![
        ("single shard → 16 shards", wide, &snap_single),
        ("16 shards → single shard", SINGLE, &snap_wide),
        ("16 shards → 64 shards", ShardConfig::new(64, 8), &snap_wide),
        ("single shard → single shard", SINGLE, &snap_single),
    ];
    for (label, layout, bytes) in resumes {
        let mut c = build_coord(layout, "oort", N, policy, faults);
        c.restore(bytes).unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
        let resumed = c.run(ROUNDS - SNAP_EPOCH);
        assert_eq!(reference, resumed, "{label}: resumed history diverged");
    }
}
