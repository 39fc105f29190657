//! The coordinator's client registry: everything the server knows about an
//! enrolled client, including the liveness state machine driven by
//! heartbeat probes on the simulated clock.
//!
//! Liveness transitions (policy thresholds from
//! [`haccs_sysmodel::HeartbeatPolicy`]):
//!
//! ```text
//! Joined --Join processed--> Alive
//! Alive --misses >= suspect_after--> Suspected   (leaves the schedulable pool)
//! Suspected --ack--> Alive                        (miss streak resets)
//! Suspected --misses >= evict_after--> Left       (permanent)
//! any --Leave frame--> Left                       (graceful departure)
//! ```

use crate::shard::shard_of;
use haccs_sysmodel::{Availability, DeviceProfile, HeartbeatPolicy, LivenessVerdict};
use haccs_wire::{ResourceEstimate, WireSummary};
use std::collections::HashMap;

/// Where a client sits in the membership lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Spawned but its `Join` has not been processed yet.
    Joined,
    /// Enrolled and responding; eligible for selection.
    Alive,
    /// Missed enough consecutive heartbeats to be excluded from selection,
    /// but still probed — an ack restores `Alive`.
    Suspected,
    /// Departed (graceful `Leave` or eviction). Never probed or selected
    /// again.
    Left,
}

/// Server-side record for one enrolled client.
#[derive(Debug, Clone)]
pub struct ClientEntry {
    /// Registry id — doubles as the client index in the shared
    /// [`Availability`] model and fault hashes.
    pub id: usize,
    /// Session nonce from the client's `Join` frame.
    pub nonce: u64,
    /// Spawn-time device profile. Latency math uses these f64 fields
    /// directly; the f32 [`ResourceEstimate`] that crossed the wire is
    /// informational (an f32 round-trip would perturb simulated latencies).
    pub profile: DeviceProfile,
    /// The resource estimate exactly as received off the wire.
    pub resources: ResourceEstimate,
    /// Data summary from the `Join` frame, kept for §IV-C re-clustering.
    pub summary: WireSummary,
    /// Training-set size (from the wire resource estimate, exact in u32).
    pub n_train: usize,
    /// Most recent local loss (enrollment probe, round update, or
    /// heartbeat ack).
    pub last_loss: Option<f32>,
    /// Rounds this client's update was admitted to the global model.
    pub participation_count: usize,
    pub liveness: Liveness,
    /// Consecutive missed heartbeat probes.
    pub missed_heartbeats: u32,
}

/// The coordinator's client registry: every client that ever joined.
/// Ids are dense and never reused; departed clients stay as `Left`
/// tombstones. Entries are partitioned across [`shard_of`]-hashed shards
/// so per-shard sweeps touch only their own slice, while a global id →
/// `(shard, slot)` locator keeps `get` O(1) and id-ordered iteration
/// cheap.
///
/// Behavioural contract: the cross-shard queries ([`Self::probed_ids`],
/// [`Self::selectable`], [`Self::member_summaries`], [`Self::entries`])
/// answer in ascending id order, so the shard count is invisible to the
/// protocol — `ShardedRegistry::new(1)` and `new(n)` driven by the same
/// transitions answer identically (pinned by the shard property tests).
#[derive(Debug)]
pub struct ShardedRegistry {
    shards: Vec<Vec<ClientEntry>>,
    /// id → (shard, slot within shard); ids are dense and never reused.
    locator: Vec<(u32, u32)>,
    by_nonce: HashMap<u64, usize>,
}

impl ShardedRegistry {
    /// An empty registry partitioned into `n_shards` shards.
    pub fn new(n_shards: usize) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        ShardedRegistry {
            shards: (0..n_shards).map(|_| Vec::new()).collect(),
            locator: Vec::new(),
            by_nonce: HashMap::new(),
        }
    }

    /// Number of shards the id space is hashed across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard client `id` hashes to.
    pub fn shard_for(&self, id: usize) -> usize {
        shard_of(id, self.shards.len())
    }

    /// Number of clients ever enrolled (including `Left` tombstones).
    pub fn len(&self) -> usize {
        self.locator.len()
    }

    pub fn is_empty(&self) -> bool {
        self.locator.is_empty()
    }

    /// Records a processed `Join` into the entry's hash shard. The entry
    /// starts `Alive`: the frame itself is evidence of liveness.
    pub fn enroll(&mut self, mut entry: ClientEntry) -> usize {
        assert_eq!(entry.id, self.locator.len(), "registry ids must be dense");
        entry.liveness = Liveness::Alive;
        entry.missed_heartbeats = 0;
        self.by_nonce.insert(entry.nonce, entry.id);
        let id = entry.id;
        let shard = shard_of(id, self.shards.len());
        let slot = self.shards[shard].len();
        self.locator.push((shard as u32, slot as u32));
        self.shards[shard].push(entry);
        id
    }

    pub fn get(&self, id: usize) -> &ClientEntry {
        let (shard, slot) = self.locator[id];
        &self.shards[shard as usize][slot as usize]
    }

    pub fn get_mut(&mut self, id: usize) -> &mut ClientEntry {
        let (shard, slot) = self.locator[id];
        &mut self.shards[shard as usize][slot as usize]
    }

    pub fn nonce_to_id(&self, nonce: u64) -> Option<usize> {
        self.by_nonce.get(&nonce).copied()
    }

    /// Entries in ascending id order (crossing shards via the locator).
    pub fn entries(&self) -> Vec<&ClientEntry> {
        (0..self.len()).map(|id| self.get(id)).collect()
    }

    /// Entries of one shard, ascending id order within the shard.
    pub fn shard_entries(&self, shard: usize) -> &[ClientEntry] {
        &self.shards[shard]
    }

    /// Ids still probed within `shard`: everyone not `Left`, ascending.
    pub fn probed_ids_in_shard(&self, shard: usize) -> Vec<usize> {
        self.shards[shard].iter().filter(|e| e.liveness != Liveness::Left).map(|e| e.id).collect()
    }

    /// Ids the coordinator still probes: everyone not `Left`, ascending.
    pub fn probed_ids(&self) -> Vec<usize> {
        (0..self.len()).filter(|&id| self.get(id).liveness != Liveness::Left).collect()
    }

    /// The schedulable pool for `epoch`: `Alive` ∧ available, ascending —
    /// the coordinator's analogue of
    /// [`Availability::available_clients`](haccs_sysmodel::Availability).
    pub fn selectable(&self, epoch: usize, availability: &Availability) -> Vec<usize> {
        (0..self.len())
            .filter(|&id| {
                let e = self.get(id);
                e.liveness == Liveness::Alive && availability.is_available(id, epoch)
            })
            .collect()
    }

    /// `(id, summary)` pairs for every non-departed client, ascending —
    /// the input to the §IV-C re-clustering hook. `Suspected` clients are
    /// included: they may ack their way back into the pool and must stay
    /// clustered.
    pub fn member_summaries(&self) -> Vec<(usize, WireSummary)> {
        (0..self.len())
            .filter(|&id| self.get(id).liveness != Liveness::Left)
            .map(|id| (id, self.get(id).summary.clone()))
            .collect()
    }

    /// A heartbeat ack arrived: the miss streak resets and a `Suspected`
    /// client is restored to `Alive`.
    pub fn observe_heartbeat(&mut self, id: usize, last_loss: f32) {
        let e = self.get_mut(id);
        if e.liveness == Liveness::Left {
            return;
        }
        e.missed_heartbeats = 0;
        e.liveness = Liveness::Alive;
        e.last_loss = Some(last_loss);
    }

    /// A probe went unanswered (silent client or ack lost on the wire).
    /// Returns the verdict the policy assigns to the new miss streak.
    pub fn observe_miss(&mut self, id: usize, policy: &HeartbeatPolicy) -> LivenessVerdict {
        let e = self.get_mut(id);
        if e.liveness == Liveness::Left {
            return LivenessVerdict::Evicted;
        }
        e.missed_heartbeats += 1;
        let verdict = policy.classify(e.missed_heartbeats);
        e.liveness = match verdict {
            LivenessVerdict::Alive => e.liveness,
            LivenessVerdict::Suspected => Liveness::Suspected,
            LivenessVerdict::Evicted => Liveness::Left,
        };
        verdict
    }

    /// A graceful `Leave` frame was processed.
    pub fn observe_leave(&mut self, id: usize) {
        self.get_mut(id).liveness = Liveness::Left;
    }

    /// A `SummaryUpdate` frame was processed: the client's local data
    /// drifted (§IV-C) and it shipped a fresh summary. Departed clients
    /// are ignored (a late frame can race a `Leave`).
    pub fn observe_summary_update(&mut self, id: usize, summary: WireSummary) {
        let e = self.get_mut(id);
        if e.liveness == Liveness::Left {
            return;
        }
        e.summary = summary;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: usize) -> ClientEntry {
        ClientEntry {
            id,
            nonce: 0xABC0 + id as u64,
            profile: DeviceProfile::uniform_fast(),
            resources: ResourceEstimate {
                compute_multiplier: 1.0,
                bandwidth_mbps: 100.0,
                rtt_ms: 20.0,
                n_train: 100,
            },
            summary: WireSummary { histograms: vec![vec![1.0]], prevalence: vec![] },
            n_train: 100,
            last_loss: None,
            participation_count: 0,
            liveness: Liveness::Joined,
            missed_heartbeats: 0,
        }
    }

    #[test]
    fn enroll_marks_alive_and_indexes_nonce() {
        let mut r = ShardedRegistry::new(1);
        let id = r.enroll(entry(0));
        assert_eq!(id, 0);
        assert_eq!(r.get(0).liveness, Liveness::Alive);
        assert_eq!(r.nonce_to_id(0xABC0), Some(0));
        assert_eq!(r.nonce_to_id(0xDEAD), None);
    }

    #[test]
    fn miss_streak_walks_suspected_then_left_and_ack_recovers() {
        let mut r = ShardedRegistry::new(1);
        r.enroll(entry(0));
        let p = HeartbeatPolicy::new(1, 2, 4);
        assert_eq!(r.observe_miss(0, &p), LivenessVerdict::Alive);
        assert_eq!(r.observe_miss(0, &p), LivenessVerdict::Suspected);
        assert_eq!(r.get(0).liveness, Liveness::Suspected);
        // ack restores Alive and resets the streak
        r.observe_heartbeat(0, 0.5);
        assert_eq!(r.get(0).liveness, Liveness::Alive);
        assert_eq!(r.get(0).missed_heartbeats, 0);
        assert_eq!(r.get(0).last_loss, Some(0.5));
        for _ in 0..4 {
            r.observe_miss(0, &p);
        }
        assert_eq!(r.get(0).liveness, Liveness::Left);
        // Left is permanent: a late ack no longer resurrects the client
        r.observe_heartbeat(0, 0.1);
        assert_eq!(r.get(0).liveness, Liveness::Left);
    }

    #[test]
    fn sharded_registry_answers_identically_to_single_shard() {
        let mut single = ShardedRegistry::new(1);
        let mut sharded = ShardedRegistry::new(4);
        for id in 0..13 {
            single.enroll(entry(id));
            sharded.enroll(entry(id));
        }
        let p = HeartbeatPolicy::new(1, 1, 3);
        single.observe_miss(3, &p);
        sharded.observe_miss(3, &p);
        single.observe_leave(7);
        sharded.observe_leave(7);
        single.observe_heartbeat(5, 0.25);
        sharded.observe_heartbeat(5, 0.25);

        assert_eq!(single.len(), sharded.len());
        assert_eq!(single.probed_ids(), sharded.probed_ids());
        let avail = Availability::AlwaysOn;
        assert_eq!(single.selectable(0, &avail), sharded.selectable(0, &avail));
        let fm: Vec<usize> = single.member_summaries().iter().map(|(id, _)| *id).collect();
        let sm: Vec<usize> = sharded.member_summaries().iter().map(|(id, _)| *id).collect();
        assert_eq!(fm, sm);
        for id in 0..13 {
            assert_eq!(single.get(id).liveness, sharded.get(id).liveness, "client {id}");
            assert_eq!(single.get(id).last_loss, sharded.get(id).last_loss);
        }
        // per-shard views cover the id space exactly once, ascending
        let mut cover: Vec<usize> =
            (0..sharded.shard_count()).flat_map(|s| sharded.probed_ids_in_shard(s)).collect();
        cover.sort_unstable();
        assert_eq!(cover, sharded.probed_ids());
        for s in 0..sharded.shard_count() {
            for e in sharded.shard_entries(s) {
                assert_eq!(sharded.shard_for(e.id), s, "locator/shard mismatch for {}", e.id);
            }
        }
    }

    #[test]
    fn selectable_excludes_suspected_and_left_but_probes_suspected() {
        let mut r = ShardedRegistry::new(1);
        for id in 0..3 {
            r.enroll(entry(id));
        }
        let p = HeartbeatPolicy::new(1, 1, 3);
        r.observe_miss(1, &p); // -> Suspected
        r.observe_leave(2);
        let avail = Availability::AlwaysOn;
        assert_eq!(r.selectable(0, &avail), [0]);
        assert_eq!(r.probed_ids(), [0, 1]);
        let members: Vec<usize> = r.member_summaries().iter().map(|(id, _)| *id).collect();
        assert_eq!(members, [0, 1]);
    }
}
