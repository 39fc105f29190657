//! Property-based tests for the sharded coordinator core: shard routing
//! and per-shard liveness sweeps.
//!
//! Two families, mirroring the invariants `tests/sharded_parity.rs`
//! observes end-to-end:
//!
//! 1. **Routing** — `shard_of` is pure and in range, and a client's shard
//!    assignment never moves under churn (joins, leaves): ids are dense
//!    and never reused, so `shard_of(id, n_shards)` is fixed for the
//!    lifetime of the run.
//! 2. **Liveness** — an n-shard registry driven by the same transition
//!    stream as a single-shard one answers identically everywhere, and
//!    the per-shard probe cover re-sorted to id order equals the
//!    single-shard sweep.

use haccs::coord::{shard_of, ClientEntry, Liveness, ShardedRegistry};
use haccs::prelude::*;
use haccs::sysmodel::HeartbeatPolicy;
use haccs::wire::{ResourceEstimate, WireSummary};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A minimal enrollable entry; `enroll` normalizes liveness itself.
fn entry(id: usize) -> ClientEntry {
    ClientEntry {
        id,
        nonce: (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        profile: DeviceProfile::uniform_fast(),
        resources: ResourceEstimate {
            compute_multiplier: 1.0,
            bandwidth_mbps: 50.0,
            rtt_ms: 40.0,
            n_train: 32,
        },
        summary: WireSummary { histograms: vec![vec![0.25; 4]], prevalence: vec![] },
        n_train: 32,
        last_loss: None,
        participation_count: 0,
        liveness: Liveness::Alive,
        missed_heartbeats: 0,
    }
}

/// One liveness transition, id-addressed, identical against any shard
/// count (the coordinator applies them in ascending id order).
fn apply(reg: &mut ShardedRegistry, id: usize, op: u8, policy: &HeartbeatPolicy) {
    match op {
        0 => reg.observe_heartbeat(id, 0.5),
        1 => {
            let _ = reg.observe_miss(id, policy);
        }
        2 => reg.observe_leave(id),
        _ => {} // this client sits the round out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shard_routing_is_pure_and_in_range(n_shards in 1usize..64, id in 0usize..1_000_000) {
        let s = shard_of(id, n_shards);
        prop_assert!(s < n_shards);
        prop_assert_eq!(s, shard_of(id, n_shards));
    }

    #[test]
    fn shard_assignment_is_stable_under_churn(
        n_shards in 1usize..32,
        n0 in 1usize..60,
        extra in 1usize..60,
    ) {
        let mut reg = ShardedRegistry::new(n_shards);
        for id in 0..n0 {
            reg.enroll(entry(id));
        }
        let before: Vec<usize> = (0..n0).map(|id| reg.shard_for(id)).collect();

        // churn: more joins, then a leave — nobody moves shards
        for id in n0..n0 + extra {
            reg.enroll(entry(id));
        }
        reg.observe_leave(0);
        for id in 0..n0 {
            prop_assert_eq!(reg.shard_for(id), before[id], "client {} moved shards", id);
        }
        for id in 0..n0 + extra {
            prop_assert_eq!(reg.shard_for(id), shard_of(id, n_shards));
            prop_assert_eq!(reg.get(id).id, id, "locator must find {} across shards", id);
        }
    }

    #[test]
    fn per_shard_liveness_sweep_equals_flat(
        seed in any::<u64>(),
        n in 1usize..80,
        n_shards in 1usize..16,
        rounds in 1usize..12,
    ) {
        let policy = HeartbeatPolicy::new(1, 2, 4);
        let mut flat = ShardedRegistry::new(1);
        let mut sharded = ShardedRegistry::new(n_shards);
        for id in 0..n {
            flat.enroll(entry(id));
            sharded.enroll(entry(id));
        }

        let mut rng = StdRng::seed_from_u64(seed);
        for epoch in 0..rounds {
            let ops: Vec<(usize, u8)> = (0..n).map(|id| (id, rng.gen_range(0..4u8))).collect();
            for &(id, op) in &ops {
                apply(&mut flat, id, op, &policy);
                apply(&mut sharded, id, op, &policy);
            }

            // per-shard probe cover, restored to id order, equals the
            // single-shard sweep — the coordinator's probe_targets() path
            let mut cover: Vec<usize> =
                (0..n_shards).flat_map(|sh| sharded.probed_ids_in_shard(sh)).collect();
            cover.sort_unstable();
            prop_assert_eq!(&cover, &flat.probed_ids());

            prop_assert_eq!(&sharded.probed_ids(), &flat.probed_ids());
            prop_assert_eq!(
                sharded.selectable(epoch, &Availability::AlwaysOn),
                flat.selectable(epoch, &Availability::AlwaysOn)
            );
        }

        // final per-entry state matches field for field
        let fe = flat.entries();
        let se = sharded.entries();
        prop_assert_eq!(fe.len(), se.len());
        for (f, s) in fe.iter().zip(&se) {
            prop_assert_eq!(f.id, s.id);
            prop_assert_eq!(f.liveness, s.liveness);
            prop_assert_eq!(f.missed_heartbeats, s.missed_heartbeats);
            prop_assert_eq!(f.last_loss.map(f32::to_bits), s.last_loss.map(f32::to_bits));
        }
        prop_assert_eq!(
            flat.member_summaries().len(),
            sharded.member_summaries().len()
        );
    }

    #[test]
    fn shard_stagger_partitions_probing_rounds(
        probe_every in 1u64..5,
        n_shards in 1usize..16,
        round in 0u64..200,
    ) {
        let plain = HeartbeatPolicy::new(probe_every, 2, 4);
        let staggered = HeartbeatPolicy::new(probe_every, 2, 4).with_shard_stagger();

        // without stagger every shard follows the flat cadence exactly —
        // the parity-safe default the sharded coordinator ships with
        for shard in 0..n_shards {
            prop_assert_eq!(
                plain.probes_shard_in_round(round, shard, n_shards),
                plain.probes_in_round(round)
            );
        }

        // with stagger, probing rounds touch exactly one shard and the
        // rotation covers every shard over n_shards consecutive probes
        let probed: Vec<usize> = (0..n_shards)
            .filter(|&s| staggered.probes_shard_in_round(round, s, n_shards))
            .collect();
        if plain.probes_in_round(round) {
            prop_assert_eq!(probed.len(), 1, "exactly one shard per probing round");
        } else {
            prop_assert!(probed.is_empty());
        }
        let mut covered: Vec<usize> = (0..n_shards as u64)
            .filter_map(|k| {
                let r = (round / probe_every + k) * probe_every;
                (0..n_shards).find(|&s| staggered.probes_shard_in_round(r, s, n_shards))
            })
            .collect();
        covered.sort_unstable();
        covered.dedup();
        prop_assert_eq!(covered.len(), n_shards, "rotation must cover every shard");
    }
}
