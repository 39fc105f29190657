//! `engine-train`: the paper's setup on the `FedSim` loop engine.
//!
//! 50 clients, k = 10, CIFAR-like data at `Scale::Fast` (8×8, the MLP
//! `ModelKind::Mlp` builds), 75/12/7/6 majority-noise label skew, the
//! HACCS-P(y) selector, TTA target 0.5 — the `haccs-sim` defaults. The
//! run is a sequence of independent episodes (fresh data, model and
//! selector from a sub-seed), each 80 synchronous rounds. Local training
//! dominates each round, so this is where `nn` kernel work shows.

use crate::stats::{self, median, mix, os_threads, peak_rss_mb, Series, Timed};
use crate::trace::{in_span, Tracer};
use crate::wrap::{timed_factory, timed_matches_plain, MlpShape, Probes, TimedSelector};
use crate::{Outcome, RunConfig};
use haccs_core::{
    build_clusters, summarize_federation, ClusterCache, ExtractionMethod, HaccsSelector,
};
use haccs_data::{partition, DatasetKind};
use haccs_experiments::common::{Env, Scale, SMOOTH_WINDOW};
use haccs_fedsim::persist::{fnv1a64, SnapshotWriter};
use haccs_fedsim::{FedSim, RunResult, Selector};
use haccs_obs::Recorder;
use haccs_summary::Summarizer;
use haccs_sysmodel::Availability;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

const CLIENTS: usize = 50;
const K: usize = 10;
const CLASSES: usize = 10;
const ROUNDS: usize = 80;
const TARGET: f32 = 0.5;
const RHO: f32 = 0.5;
const MIN_PTS: usize = 2;
/// Correctness floor on an episode's final accuracy (mean of its last
/// `SMOOTH_WINDOW` evaluations); ten classes make chance 0.1.
const ACCURACY_FLOOR: f32 = 0.45;
const SHAPE: MlpShape = MlpShape { channels: 3, side: 8, classes: CLASSES };
/// Enrolments timed per episode: one takes well under a millisecond, too
/// little for a single reading to be steady.
const ENROLLS: usize = 8;
/// Local training is dense f32 arithmetic.
const PROBE: fn() -> f64 = stats::compute_probe_ms;

struct Episode {
    sim: FedSim,
    selector: Box<dyn Selector>,
}

/// Builds one episode: data and engine (timed into `setup`), then
/// summaries, the clustering cache and the HACCS selector, `ENROLLS`
/// times over (`enroll`); the last selector runs the episode.
fn build(
    seed: u64,
    probes: Option<&Probes>,
    setup: &mut Timed,
    enroll: &mut Timed,
    out: &mut Outcome,
) -> Episode {
    let (env, sim) = setup.measure(1.0, || world(seed, probes));
    let summarizer = Summarizer::label_dist();
    let mut enrolled = None;
    for i in 0..ENROLLS {
        // only the kept enrolment is traced, so its spans count once
        let tracer = probes.filter(|_| i + 1 == ENROLLS).map(|p| &p.tracer);
        enrolled = Some(enroll.measure(1.0, || {
            let summaries = summarize_federation(&env.fed, &summarizer, seed ^ 0xD9);
            let mut cache = ClusterCache::new(summarizer, MIN_PTS, ExtractionMethod::Auto);
            for (id, s) in summaries.iter().enumerate() {
                in_span(tracer, "core.cache.add", || cache.add_client(id, s.clone()));
            }
            let groups = in_span(tracer, "core.cache.recluster", || cache.recluster());
            let haccs = HaccsSelector::new(groups.clone(), RHO, "P(y)");
            (summaries, groups, haccs)
        }));
    }
    let (summaries, groups, haccs) = enrolled.expect("at least one enrolment");
    let (_, reference) = build_clusters(&summarizer, &summaries, MIN_PTS, ExtractionMethod::Auto);
    out.check(groups == reference, "cached HACCS groups equal build_clusters'");
    let selector: Box<dyn Selector> = match probes {
        None => Box::new(haccs),
        Some(p) => Box::new(TimedSelector::new(haccs, p.tracer.clone(), "core.select")),
    };
    Episode { sim, selector }
}

/// The federation and the engine over it.
fn world(seed: u64, probes: Option<&Probes>) -> (Env, FedSim) {
    let scale = Scale::Fast;
    let mut rng = StdRng::seed_from_u64(seed);
    let specs = partition::majority_noise(
        CLIENTS,
        CLASSES,
        &partition::MAJORITY_NOISE_75,
        scale.samples_range(),
        scale.test_n(),
        &mut rng,
    );
    let env = Env::new(DatasetKind::CifarLike, CLASSES, &specs, scale, seed);
    let sim = match probes {
        None => env.build_sim(K, Availability::AlwaysOn),
        Some(p) => {
            let recorder = Recorder::enabled().with_sink(p.sink.clone());
            FedSim::new(
                timed_factory(SHAPE, seed ^ 0x0DE1, p.model.clone()),
                env.fed.clone(),
                env.profiles.clone(),
                env.latency(),
                Availability::AlwaysOn,
                env.sim_config(K),
            )
            .with_recorder(recorder)
        }
    };
    (env, sim)
}

/// What one episode leaves behind.
struct Played {
    rounds: Timed,
    run: RunResult,
    digest: u64,
    samples: f64,
    uplink: Vec<f64>,
}

fn play(
    ep: &mut Episode,
    probes: Option<&Probes>,
    layer: &mut Series,
    round0: u64,
    out: &mut Outcome,
) -> Played {
    let mut rounds = Timed::new(PROBE);
    let mut samples = 0.0;
    let mut uplink = Vec::with_capacity(ROUNDS);
    let train = ep.sim.config().train;
    for r in 0..ROUNDS {
        let before =
            probes.map(|p| (p.model.layers(), p.model.train.read(), p.model.builds.load(Relaxed)));
        let round_span = probes.map(|p| {
            p.tracer.set_round(round0 + r as u64);
            p.tracer.enter("engine-train.round")
        });
        let record = rounds.measure(1e3, || ep.sim.run_round(ep.selector.as_mut()));
        out.check(record.participants.len() == K, "every round aggregates k updates");
        for &id in &record.participants {
            samples += (train.effective_examples(ep.sim.clients[id].data.n_train())
                * train.local_epochs) as f64;
        }
        uplink.push(record.faults.payload_bytes_encoded as f64);
        if let (Some(p), Some(span), Some((layers0, train0, builds0))) =
            (probes, round_span, before)
        {
            p.tracer.exit(span);
            let obs = p.sink.drain();
            let layers = p.model.layers().since(&layers0);
            let train_ms = obs.total_ms("engine.train");
            layers.push_to(layer);
            layer.push("fedsim.train_ms", train_ms);
            layer.push(
                "fedsim.train_other_ms",
                train_ms - p.model.train.read().since(&train0).total_ms(),
            );
            layer.push("fedsim.model_builds", (p.model.builds.load(Relaxed) - builds0) as f64);
            layer.push("fedsim.evaluate_ms", obs.total_ms("engine.evaluate"));
            layer.push("fedsim.aggregate_ms", obs.total_ms("engine.aggregate"));
            layer.push("core.select_ms", p.tracer.total_ms(round0 + r as u64, "core.select"));
            layer.push("wire.control_bytes_per_round", record.faults.control_bytes as f64);
            layer.push("codec.bytes_encoded_per_round", record.faults.payload_bytes_encoded as f64);
        }
    }
    let run = ep.sim.run(ep.selector.as_mut(), 0);
    let mut w = SnapshotWriter::new();
    run.save(&mut w);
    w.put_f32s(ep.sim.global_params());
    Played { rounds, run, digest: fnv1a64(&w.into_payload()), samples, uplink }
}

/// Smoothed time-to-accuracy of an episode: `(wall s, simulated s)`.
fn tta(p: &Played) -> Option<(f64, f64)> {
    let smoothed = p.run.smoothed(SMOOTH_WINDOW);
    let i = smoothed.curve.iter().position(|tp| tp.accuracy >= TARGET)?;
    Some((p.rounds.wall[..=i].iter().sum::<f64>() / 1e3, smoothed.curve[i].time_s))
}

fn final_accuracy(run: &RunResult) -> f32 {
    let tail = &run.curve[run.curve.len().saturating_sub(SMOOTH_WINDOW)..];
    tail.iter().map(|tp| tp.accuracy).sum::<f32>() / tail.len() as f32
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    out.check(
        timed_matches_plain(SHAPE, 7),
        "timed model starts from ModelKind::build's parameters",
    );
    let budget = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let min_episodes = if cfg.trace { 1 } else { 2 };

    // untraced episodes: every end-to-end metric
    let start = Instant::now();
    let (mut setup, mut enroll, mut rounds, mut uplink) =
        (Timed::new(PROBE), Timed::new(PROBE), Timed::new(PROBE), vec![]);
    let (mut ttas_wall, mut ttas_sim, mut finals) = (vec![], vec![], vec![]);
    let (mut samples, mut digests) = (0.0, vec![]);
    let mut unused = Series::default();
    while digests.len() < min_episodes || start.elapsed().as_secs_f64() < budget {
        let seed = mix(cfg.seed, digests.len() as u64);
        let mut ep = build(seed, None, &mut setup, &mut enroll, &mut out);
        let played = play(&mut ep, None, &mut unused, 0, &mut out);
        let fin = final_accuracy(&played.run);
        out.check(fin >= ACCURACY_FLOOR, "final accuracy stays above its floor");
        finals.push(fin as f64);
        let (w, s) = tta(&played).unwrap_or((f64::INFINITY, f64::INFINITY));
        ttas_wall.push(w);
        ttas_sim.push(s);
        samples += played.samples;
        rounds.extend(played.rounds);
        uplink.extend(played.uplink);
        digests.push(played.digest);
    }
    let wall_s = rounds.total() / 1e3;
    out.note(format!(
        "{} episodes x {ROUNDS} rounds = {} round samples",
        digests.len(),
        rounds.len()
    ));
    out.set_timings(&setup, &enroll, &rounds, (CLIENTS * rounds.len()) as f64);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("uplink_bytes_per_round", median(&uplink));
    out.set("train_samples_per_s", samples / wall_s);
    // an episode that never reached the target reads +inf, so the median
    // is finite only while most episodes reach it
    out.set("tta_wall_s", finite_or_zero(median(&ttas_wall)));
    out.set("tta_sim_s", finite_or_zero(median(&ttas_sim)));
    out.set("final_accuracy", median(&finals));
    if !cfg.trace {
        return out;
    }

    // traced replay of the same episodes: per-layer metrics, and the
    // history digest must match the untraced run bit for bit
    let mut layer = Series::default();
    let tracer = Tracer::default();
    let mut traced_walls = vec![];
    for (i, digest) in digests.iter().enumerate() {
        let probes = Probes { tracer: tracer.clone(), ..Probes::default() };
        tracer.set_round((i * ROUNDS) as u64);
        let ep_span = tracer.enter("engine-train.episode");
        let mut ep = build(
            mix(cfg.seed, i as u64),
            Some(&probes),
            &mut Timed::new(PROBE),
            &mut Timed::new(PROBE),
            &mut out,
        );
        let played = play(&mut ep, Some(&probes), &mut layer, (i * ROUNDS) as u64, &mut out);
        tracer.exit(ep_span);
        out.check(played.digest == *digest, "traced RoundRecord history equals the untraced one");
        traced_walls.extend(played.rounds.wall);
    }
    let per_episode = |name| {
        let totals: Vec<f64> =
            (0..digests.len()).map(|i| tracer.total_ms((i * ROUNDS) as u64, name)).collect();
        median(&totals)
    };
    // enrolment spans carry the episode's first round id
    layer.push("core.cache.add_ms", per_episode("core.cache.add"));
    layer.push("core.cache.recluster_ms", per_episode("core.cache.recluster"));
    layer.push("trace.overhead_ratio", median(&traced_walls) / rounds.raw(0.5));
    layer.push("coord.os_threads", os_threads() as f64);
    out.layers = layer;
    out.tracer = Some(tracer);
    out
}

fn finite_or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
