//! `recluster-drift`: a two-level `ClusterCache` under summary drift.
//!
//! About 8k clients with Dirichlet(α = 0.3) label mixes over 10 classes;
//! each client's P(y) summary is the label histogram of 50–500 labels
//! drawn from its mix. Each tick drifts 1% of the clients
//! (`update_summary`), replaces 0.5% (`remove_client` + `add_client`) and
//! re-clusters, so `summary` distances and warm OPTICS in `cluster` carry
//! the tick.

use crate::stats::{self, median, mix, peak_rss_mb, Series, Timed};
use crate::trace::{in_span, Tracer};
use crate::{Outcome, RunConfig};
use haccs_core::{summary_to_wire, ClusterCache, ExtractionMethod, TwoLevelConfig};
use haccs_data::partition;
use haccs_summary::{ClientSummary, Histogram, Summarizer};
use haccs_wire::{Message, ResourceEstimate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

const CLIENTS: usize = 8_000;
const CLASSES: usize = 10;
const ALPHA: f64 = 0.3;
const LABELS: (usize, usize) = (50, 500);
const MIN_PTS: usize = 2;
const DRIFT: usize = CLIENTS / 100;
const REPLACE: usize = CLIENTS / 200;
/// Set-up plus enrolment repetitions per run; the last one keeps running.
const SETUPS: usize = 10;
/// Summary distances and OPTICS are branchy scalar code.
const PROBE: fn() -> f64 = stats::scalar_probe_ms;

/// One client's P(y) summary: labels drawn from a Dirichlet mix.
fn draw(rng: &mut StdRng) -> ClientSummary {
    let spec = partition::dirichlet_skew(1, CLASSES, ALPHA, LABELS, 0, rng).remove(0);
    let labels: Vec<usize> = (0..spec.n_train)
        .map(|_| {
            let u = rng.gen_range(0.0f32..1.0);
            let mut acc = 0.0;
            spec.label_weights
                .iter()
                .position(|w| {
                    acc += w;
                    u < acc
                })
                .unwrap_or(CLASSES - 1)
        })
        .collect();
    ClientSummary::LabelDist(Histogram::from_labels(&labels, CLASSES))
}

fn new_cache() -> ClusterCache {
    ClusterCache::two_level(
        Summarizer::label_dist(),
        MIN_PTS,
        ExtractionMethod::Auto,
        TwoLevelConfig::default(),
    )
}

/// Inserts every client and runs the first, cold re-cluster.
fn enroll(members: &BTreeMap<usize, ClientSummary>) -> (ClusterCache, Vec<Vec<usize>>) {
    let mut cache = new_cache();
    for (&id, s) in members {
        cache.add_client(id, s.clone());
    }
    let groups = cache.recluster();
    (cache, groups)
}

/// One tick's edits, drawn before the tick is timed.
struct Edits {
    drift: Vec<(usize, ClientSummary)>,
    replace: Vec<(usize, usize, ClientSummary)>,
}

impl Edits {
    fn draw(
        members: &BTreeMap<usize, ClientSummary>,
        next_id: &mut usize,
        rng: &mut StdRng,
    ) -> Self {
        let ids: Vec<usize> = members.keys().copied().collect();
        let drift = (0..DRIFT).map(|_| (ids[rng.gen_range(0..ids.len())], draw(rng))).collect();
        let mut victims = std::collections::BTreeSet::new();
        while victims.len() < REPLACE {
            victims.insert(ids[rng.gen_range(0..ids.len())]);
        }
        let replace = victims
            .into_iter()
            .map(|victim| {
                *next_id += 1;
                (victim, *next_id - 1, draw(rng))
            })
            .collect();
        Edits { drift, replace }
    }

    /// Uplink frames these edits put on the wire: a `SummaryUpdate` per
    /// drift, a `Leave` and a `Join` per replacement.
    fn uplink_bytes(&self) -> usize {
        let update = |id: usize, s: &ClientSummary| {
            Message::SummaryUpdate { client_nonce: id as u64, summary: summary_to_wire(s) }
                .wire_size()
        };
        let resources = ResourceEstimate {
            compute_multiplier: 1.0,
            bandwidth_mbps: 10.0,
            rtt_ms: 50.0,
            n_train: 0,
        };
        let churn = |&(old, new, ref s): &(usize, usize, ClientSummary)| {
            Message::Leave { client_nonce: old as u64, round: 0 }.wire_size()
                + Message::Join {
                    client_nonce: new as u64,
                    summary: summary_to_wire(s),
                    resources: resources.clone(),
                }
                .wire_size()
        };
        self.drift.iter().map(|(id, s)| update(*id, s)).sum::<usize>()
            + self.replace.iter().map(churn).sum::<usize>()
    }
}

/// Applies one tick's edits and re-clusters; each call is a span when
/// traced.
fn tick(cache: &mut ClusterCache, edits: &Edits, tracer: Option<&Tracer>) -> Vec<Vec<usize>> {
    for (id, s) in &edits.drift {
        in_span(tracer, "core.cache.update", || cache.update_summary(*id, s.clone()));
    }
    for (old, new, s) in &edits.replace {
        in_span(tracer, "core.cache.remove", || cache.remove_client(*old));
        in_span(tracer, "core.cache.add", || cache.add_client(*new, s.clone()));
    }
    in_span(tracer, "core.cache.recluster", || cache.recluster())
}

fn apply(members: &mut BTreeMap<usize, ClientSummary>, edits: Edits) {
    for (id, s) in edits.drift {
        members.insert(id, s);
    }
    for (old, new, s) in edits.replace {
        members.remove(&old);
        members.insert(new, s);
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, mut enroll_s) = (Timed::new(PROBE), Timed::new(PROBE));
    let mut state = None;
    for i in 0..SETUPS {
        let mut rng = StdRng::seed_from_u64(mix(cfg.seed, i as u64));
        let members: BTreeMap<usize, ClientSummary> =
            setup.measure(1.0, || (0..CLIENTS).map(|id| (id, draw(&mut rng))).collect());
        drop(state.take()); // free the previous cache before timing the next
        let (cache, groups) = enroll_s.measure(1.0, || enroll(&members));
        state = Some((cache, groups, members, rng));
    }
    let (mut cache, mut groups, mut members, mut rng) = state.expect("at least one set-up");
    let mut next_id = CLIENTS;

    let budget = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    // nearest-rank p90 needs 100 samples to leave 10 beyond it
    let min_ticks = if cfg.trace { 20 } else { 110 };
    let mut phase = |tracer: Option<&Tracer>, layer: &mut Series, out: &mut Outcome| {
        let (mut ticks, mut uplink, mut client_ticks) = (Timed::new(PROBE), vec![], 0.0);
        let start = Instant::now();
        while ticks.len() < min_ticks || start.elapsed().as_secs_f64() < budget {
            let edits = Edits::draw(&members, &mut next_id, &mut rng);
            let before = (cache.distance_stats(), cache.warm_stats());
            let round = ticks.len() as u64;
            let span = tracer.map(|t| {
                t.set_round(round);
                t.enter("recluster-drift.tick")
            });
            groups = ticks.measure(1e3, || tick(&mut cache, &edits, tracer));
            out.check(!groups.is_empty(), "every tick re-clusters into groups");
            if let (Some(t), Some(span)) = (tracer, span) {
                t.exit(span);
                let (d0, w0) = before;
                let (d, w) = (cache.distance_stats(), cache.warm_stats());
                let computed = d.distances_computed as f64 - d0.distances_computed as f64;
                let reused = d.entries_reused as f64 - d0.entries_reused as f64;
                for (span_name, metric) in [
                    ("core.cache.add", "core.cache.add_ms"),
                    ("core.cache.remove", "core.cache.remove_ms"),
                    ("core.cache.update", "core.cache.update_ms"),
                    ("core.cache.recluster", "core.cache.recluster_ms"),
                ] {
                    layer.push(metric, t.total_ms(round, span_name));
                }
                layer.push("summary.distances_computed", computed);
                layer.push("summary.entries_reused", reused);
                layer.push(
                    "summary.reuse_ratio",
                    if computed + reused > 0.0 { reused / (computed + reused) } else { 0.0 },
                );
                layer.push("cluster.optics_expansions", (w.expansions - w0.expansions) as f64);
            }
            uplink.push(edits.uplink_bytes() as f64);
            client_ticks += cache.len() as f64;
            apply(&mut members, edits);
        }
        (ticks, uplink, client_ticks)
    };

    let mut unused = Series::default();
    let (ticks, uplink, client_ticks) = phase(None, &mut unused, &mut out);
    let traced = cfg.trace.then(|| {
        let tracer = Tracer::default();
        let mut layer = Series::default();
        let (traced, _, _) = phase(Some(&tracer), &mut layer, &mut out);
        layer.push("trace.overhead_ratio", traced.raw(0.5) / ticks.raw(0.5));
        (tracer, layer)
    });

    // the final groups must equal a cold build over the final membership,
    // which is also one more enrolment sample
    let (buckets, cells) = (cache.bucket_count(), cache.cell_count());
    drop(cache);
    let (_, fresh) = enroll_s.measure(1.0, || enroll(&members));
    out.check(fresh == groups, "incremental groups equal a fresh cache over the final membership");
    out.check(cells >= CLIENTS / 2, "summaries are diverse: cells >= n/2");
    out.note(format!(
        "{} ticks; {buckets} buckets, {cells} cells, {} groups",
        ticks.len(),
        groups.len()
    ));
    out.set_timings(&setup, &enroll_s, &ticks, client_ticks);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("uplink_bytes_per_round", median(&uplink));
    if let Some((tracer, mut layer)) = traced {
        layer.push("cluster.buckets", buckets as f64);
        layer.push("cluster.cells", cells as f64);
        layer.push("cluster.groups", groups.len() as f64);
        layer.push("coord.os_threads", crate::stats::os_threads() as f64);
        out.layers = layer;
        out.tracer = Some(tracer);
    }
    out
}
