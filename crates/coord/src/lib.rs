//! # haccs-coord
//!
//! A message-driven coordinator runtime for the HACCS federation: the
//! same federated rounds [`haccs_fedsim::FedSim`] executes as a loop, run
//! instead as a distributed system in miniature. Client agents own their
//! data and model replicas and talk to the server exclusively in encoded
//! [`haccs_wire::Message`] frames — in-process agents as state machines
//! multiplexed over a fixed worker pool, remote ones over a socket; the
//! coordinator drives an explicit round state machine, a liveness
//! registry fed by heartbeats on the simulated clock, and the §IV-C
//! dynamic-membership path (mid-training joins, graceful leaves,
//! suspicion and eviction) — with any [`haccs_fedsim::Selector`]
//! plugged in unchanged.
//!
//! Pieces:
//!
//! * [`events::EventQueue`] — total order `(time, client, seq)` over
//!   racing agent traffic; the determinism backbone,
//! * [`registry::ShardedRegistry`] — per-client membership, telemetry and
//!   the `Joined → Alive ⇄ Suspected → Left` liveness machine, sharded by
//!   client-id hash,
//! * [`shard`] — the thread-free event-loop core: a fixed worker pool
//!   multiplexing cohort-batched client agents,
//! * [`agent`] — the client side: enroll, train on `ModelPush`, ack
//!   heartbeats, depart gracefully,
//! * [`coordinator::Coordinator`] — the server side: enroll → cluster →
//!   select → dispatch → aggregate → commit, bit-identical to the loop
//!   engine on fault-free same-seed runs (`tests/coordinator_parity.rs`
//!   pins this).

pub mod agent;
pub mod coordinator;
pub mod events;
pub mod net;
pub mod registry;
pub mod shard;

pub use agent::{AgentConfig, Envelope, TransmitOutcome};
pub use coordinator::{
    default_summary_seed, haccs_recluster_hook, session_nonce, CoordError, Coordinator, RemoteLink,
    RoundPhase, DEFAULT_EVENT_CAPACITY,
};
pub use events::{Event, EventQueue, QueueFull};
pub use net::{accept_remote_clients, remote_agent_config, run_tcp_federation, serve_agent_tcp};
pub use registry::{ClientEntry, Liveness, ShardedRegistry};
pub use shard::{shard_of, ShardConfig};
