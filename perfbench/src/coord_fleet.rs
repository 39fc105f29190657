//! `coord-fleet`: the sharded `Coordinator` over about 20k tiny clients.
//!
//! MLP on 6×6 single-channel images, 4 classes, 2–4 samples a client, so
//! training is negligible and the registry, heartbeat sweep, event core,
//! int8 codec and segmented snapshots (⌈√n⌉ shards, every round) carry
//! the round. k = 16 clients by `RandomSelector`. Each round 0.5% of the
//! population leaves (`with_leave_after`, scripted before spawn) and as
//! many newcomers join (`add_client`), each staying `LIFETIME` rounds.

use crate::stats::{self, median, mix, nproc, os_threads, peak_rss_mb, Series, Timed};
use crate::wrap::{timed_factory, timed_matches_plain, MlpShape, Probes, TimedSelector};
use crate::{Outcome, RunConfig};
use haccs_baselines::RandomSelector;
use haccs_codec::CodecKind;
use haccs_coord::{Coordinator, Liveness};
use haccs_data::{partition, FederatedDataset, SynthVision};
use haccs_fedsim::engine::SnapshotPolicy;
use haccs_fedsim::{RoundRecord, Selector, SimConfig};
use haccs_obs::Recorder;
use haccs_sysmodel::{Availability, DeviceProfile, LatencyModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

const CLIENTS: usize = 20_000;
const K: usize = 16;
const CLASSES: usize = 4;
const SHAPE: MlpShape = MlpShape { channels: 1, side: 6, classes: CLASSES };
const MODEL_SEED: u64 = 7;
/// Leaves (and joins) per round: 0.5% of the population.
const CHURN: usize = CLIENTS / 200;
/// Rounds a client stays before its scripted departure.
const LIFETIME: usize = 150;
/// Set-up plus enrolment repetitions per run; the first one keeps running.
const SETUPS: usize = 16;
/// Registry, heartbeat and codec work is branchy scalar code.
const PROBE: fn() -> f64 = stats::scalar_probe_ms;
/// Rounds between segmented snapshots. Churn dirties most shards every
/// round, so each snapshot writes nearly all of them; at this cadence
/// snapshot rounds stay beyond the 90th percentile and their file-system
/// cost, which swings far more than compute, shows in throughput and in
/// the `persist.*` metrics instead.
const SNAPSHOT_EVERY: usize = 20;
/// Segmented snapshot manifests kept on disk.
const RETAIN: usize = 2;

/// `n` clients with a couple of samples each, from `seed`.
fn world(n: usize, seed: u64) -> (FederatedDataset, Vec<DeviceProfile>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let specs =
        partition::majority_noise(n, CLASSES, &partition::MAJORITY_NOISE_75, (2, 4), 8, &mut rng);
    let generator = SynthVision::mnist_like(CLASSES, SHAPE.side, seed);
    (
        FederatedDataset::materialize(&generator, &specs, seed),
        DeviceProfile::sample_many(n, &mut rng),
    )
}

/// One coordinator, built and scripted (`setup_s`).
fn build(seed: u64, snap_dir: &Path, probes: Option<&Probes>) -> Coordinator<Box<dyn Selector>> {
    let (fed, profiles) = world(CLIENTS, seed);
    let mut rng = StdRng::seed_from_u64(mix(seed, 1));
    let cfg = SimConfig { k: K, seed, eval_max: 256, probe_max: 8, ..Default::default() };
    let (factory, selector): (_, Box<dyn Selector>) = match probes {
        None => (Box::new(move || SHAPE.build(MODEL_SEED)) as _, Box::new(RandomSelector::new())),
        Some(p) => (
            timed_factory(SHAPE, MODEL_SEED, p.model.clone()),
            Box::new(TimedSelector::new(RandomSelector::new(), p.tracer.clone(), "core.select")),
        ),
    };
    let shards = (CLIENTS as f64).sqrt().ceil() as usize;
    let mut coord = Coordinator::new(
        factory,
        fed,
        profiles,
        LatencyModel::for_params(2_000, 2e-3, 1),
        Availability::AlwaysOn,
        cfg,
        selector,
    )
    .with_codec(CodecKind::Int8)
    .with_segmented_snapshots(SnapshotPolicy::every(SNAPSHOT_EVERY, snap_dir), shards)
    .with_segment_retention(RETAIN);
    if let Some(p) = probes {
        coord = coord.with_recorder(Recorder::enabled().with_sink(p.sink.clone()));
    }
    // departures of the initial population: CHURN a round while it lasts
    let mut ids: Vec<usize> = (0..CLIENTS).collect();
    for round in 1..=LIFETIME {
        for _ in 0..CHURN.min(ids.len()) {
            let id = ids.swap_remove(rng.gen_range(0..ids.len()));
            coord = coord.with_leave_after(id, round as u64);
        }
    }
    coord
}

/// Files in `dir` not in `seen`, with their total size; updates `seen`.
fn new_file_bytes(dir: &Path, seen: &mut BTreeMap<String, u64>) -> f64 {
    let mut now = BTreeMap::new();
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let len = e.metadata().map_or(0, |m| m.len());
        now.insert(e.file_name().to_string_lossy().into_owned(), len);
    }
    let fresh =
        now.iter().filter(|(name, _)| !seen.contains_key(*name)).map(|(_, len)| *len).sum::<u64>();
    *seen = now;
    fresh as f64
}

/// Live (not departed) registered clients.
fn live(coord: &Coordinator<Box<dyn Selector>>) -> usize {
    coord.registry().entries().iter().filter(|e| e.liveness != Liveness::Left).count()
}

/// Runs one round, timed into `timed` in `scale` units per second, and
/// checks it: `Ok`, with k admitted updates.
fn round(
    coord: &mut Coordinator<Box<dyn Selector>>,
    timed: &mut Timed,
    scale: f64,
    out: &mut Outcome,
) -> Option<RoundRecord> {
    let record = timed.measure(scale, || coord.try_run_round()).ok();
    out.check(
        record.as_ref().is_some_and(|r| r.participants.len() == K),
        "try_run_round is Ok and admits k updates",
    );
    record
}

/// The newcomers joining before round `r`, staying `LIFETIME` rounds.
fn join(coord: &mut Coordinator<Box<dyn Selector>>, seed: u64, r: usize) {
    let (fed, profiles) = world(CHURN, mix(seed, 1000 + r as u64));
    for (data, profile) in fed.clients.into_iter().zip(profiles) {
        coord.add_client_leaving_after(data, profile, (r + LIFETIME) as u64);
    }
}

/// Checks that the newest manifest in `dir` reassembles with valid
/// checksums.
fn check_manifest(dir: &Path, out: &mut Outcome) {
    let newest = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("manifest-")))
        .max();
    let ok = newest
        .is_some_and(|p| haccs_persist::segment::reassemble(&p, &Recorder::disabled()).is_ok());
    out.check(ok, "the last segmented manifest reassembles with valid checksums");
}

/// The event core's worker pool is sized by the cores, not the clients.
fn check_threads(p: &Phase, out: &mut Outcome) {
    out.check(
        p.threads_peak as usize <= nproc() + 1,
        "coordinator OS threads stay within nproc + 1",
    );
}

struct Phase {
    rounds: Timed,
    client_rounds: f64,
    uplink: Vec<f64>,
    samples: f64,
    threads_peak: u64,
    snapshot_bytes: f64,
}

/// Steady rounds after enrolment until `budget` seconds have passed and
/// at least `min_rounds` ran.
#[allow(clippy::too_many_arguments)]
fn steady(
    coord: &mut Coordinator<Box<dyn Selector>>,
    seed: u64,
    budget: f64,
    min_rounds: usize,
    snap_dir: &Path,
    probes: Option<&Probes>,
    layer: &mut Series,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase {
        rounds: Timed::new(PROBE),
        client_rounds: 0.0,
        uplink: vec![],
        samples: 0.0,
        threads_peak: 0,
        snapshot_bytes: 0.0,
    };
    let train = coord.config().train;
    let mut files = BTreeMap::new();
    new_file_bytes(snap_dir, &mut files);
    let start = Instant::now();
    let mut r = 1;
    while phase.rounds.len() < min_rounds || start.elapsed().as_secs_f64() < budget {
        join(coord, seed, r);
        let before = probes.map(|p| p.model.layers());
        let span = probes.map(|p| {
            p.tracer.set_round(r as u64);
            p.tracer.enter("coord-fleet.round")
        });
        let record = round(coord, &mut phase.rounds, 1e3, out);
        phase.client_rounds += live(coord) as f64;
        phase.threads_peak = phase.threads_peak.max(os_threads());
        if let Some(rec) = &record {
            phase.uplink.push(rec.faults.payload_bytes_encoded as f64);
            for &id in &rec.participants {
                let n = coord.registry().get(id).n_train;
                phase.samples += (train.effective_examples(n) * train.local_epochs) as f64;
            }
        }
        if let (Some(p), Some(span)) = (probes, span) {
            p.tracer.exit(span);
        }
        if let (Some(p), Some(layers0), Some(rec)) = (probes, before, &record) {
            let obs = p.sink.drain();
            p.model.layers().since(&layers0).push_to(layer);
            layer.push("core.select_ms", p.tracer.total_ms(r as u64, "core.select"));
            layer.push("coord.select_ms", obs.total_ms("coord.selection"));
            layer.push("coord.join_ms", obs.total_ms("coord.enroll"));
            layer.push("coord.heartbeat_ms", obs.total_ms("coord.heartbeat"));
            layer.push("coord.round_self_ms", obs.self_ms("coord.round"));
            layer.push("codec.decode_ms", obs.total_ms("codec.decode"));
            layer.push("codec.bytes_encoded_per_round", rec.faults.payload_bytes_encoded as f64);
            layer.push("wire.control_bytes_per_round", rec.faults.control_bytes as f64);
            if obs.total_ms("persist.write") > 0.0 {
                layer.push("persist.write_ms", obs.total_ms("persist.write"));
            }
            phase.snapshot_bytes += new_file_bytes(snap_dir, &mut files);
            layer.push("coord.os_threads", phase.threads_peak as f64);
        }
        r += 1;
    }
    phase
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    out.check(
        timed_matches_plain(SHAPE, MODEL_SEED),
        "timed model starts from ModelKind::build's parameters",
    );
    let snap_root = cfg.scratch.join("coord-fleet");

    // set-up and enrolment; this coordinator runs the steady rounds
    let (mut setup, mut enroll) = (Timed::new(PROBE), Timed::new(PROBE));
    let dir = snap_root.join("run");
    let mut coord = setup.measure(1.0, || build(cfg.seed, &dir, None));
    round(&mut coord, &mut enroll, 1.0, &mut out);
    let budget = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    // nearest-rank p90 needs 100 samples to leave 10 beyond it
    let min_rounds = if cfg.trace { 20 } else { 110 };
    let mut unused = Series::default();
    let p = steady(&mut coord, cfg.seed, budget, min_rounds, &dir, None, &mut unused, &mut out);
    check_manifest(&dir, &mut out);
    check_threads(&p, &mut out);
    out.threads_peak = p.threads_peak;
    // one coordinator's lifetime, before the extra set-ups below
    out.set("peak_rss_mb", peak_rss_mb());
    drop(coord);
    // more set-ups and enrolments, for their medians
    for i in 1..SETUPS {
        let dir = snap_root.join(format!("setup-{i}"));
        let mut c = setup.measure(1.0, || build(cfg.seed, &dir, None));
        round(&mut c, &mut enroll, 1.0, &mut out);
    }
    let wall_s = p.rounds.total() / 1e3;
    out.note(format!("{} steady rounds after enrolment; {SETUPS} set-ups", p.rounds.len()));
    out.set_timings(&setup, &enroll, &p.rounds, p.client_rounds);
    out.set("uplink_bytes_per_round", median(&p.uplink));
    out.set("train_samples_per_s", p.samples / wall_s);

    if cfg.trace {
        let probes = Probes::default();
        let dir = snap_root.join("traced");
        let mut c = build(cfg.seed, &dir, Some(&probes));
        let enroll_span = probes.tracer.enter("coord-fleet.round");
        round(&mut c, &mut Timed::new(PROBE), 1.0, &mut out);
        probes.tracer.exit(enroll_span);
        let mut layer = Series::default();
        layer.push("coord.enroll_ms", probes.sink.drain().total_ms("coord.enroll"));
        let traced =
            steady(&mut c, cfg.seed, budget, min_rounds, &dir, Some(&probes), &mut layer, &mut out);
        check_manifest(&dir, &mut out);
        check_threads(&traced, &mut out);
        layer.push("persist.bytes_per_round", traced.snapshot_bytes / traced.rounds.len() as f64);
        layer.push("trace.overhead_ratio", traced.rounds.raw(0.5) / p.rounds.raw(0.5));
        out.layers = layer;
        out.tracer = Some(probes.tracer);
    }
    let _ = std::fs::remove_dir_all(&snap_root);
    out
}
