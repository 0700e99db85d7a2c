#![warn(missing_docs)]
//! # scidl-comm
//!
//! Thread-backed replacement for Intel MLSL (Sec. III-D/E): the
//! communication primitives the distributed training engines are built
//! on, with *real* concurrency so the correctness properties (gradient
//! equivalence of all-reduce, FIFO update application and staleness
//! semantics at the parameter server) hold by construction rather than by
//! simulation.
//!
//! * [`world`] — [`CommWorld`]/[`Communicator`]: rank/size handles over a
//!   shared-memory "fabric", with `split` into disjoint communication
//!   groups (our analogue of the MLSL extension the paper wrote to place
//!   nodes into disjoint groups, Sec. III-E(b)).
//! * [`allreduce`] — the ring reduce-scatter/all-gather over per-rank
//!   mailboxes (what MLSL runs on the Aries network); [`world`]'s
//!   shared-accumulator tree carries the small collectives (loss scalar,
//!   status word, model broadcast). Both produce the exact mean of the
//!   contributions.
//! * [`bucket`] — bucketed, backward-overlapped gradient all-reduce
//!   (Sec. V / Das et al. 1602.06709): a [`BucketPlan`] coalesces
//!   parameter blocks into buckets in backward-readiness order and an
//!   [`OverlapContext`] — this crate's MLSL endpoint proxy thread —
//!   ring-reduces each bucket on a dedicated comm thread while shallower
//!   layers still backprop, bit-identical to the sequential
//!   [`bucketed_allreduce_mean`] baseline. It is the one gradient
//!   reduction the engines run, overlapped or not.
//! * [`ps`] — per-layer parameter servers (Sec. III-E(c)): each trainable
//!   block gets a dedicated server thread owning that shard of the model,
//!   applying updates in arrival order and returning the fresh shard;
//!   versions are tracked so staleness is measurable. One update message
//!   ([`PsUpdate`]) carries dense and compressed gradients alike.
//! * [`compress`] — the Sec. VIII-B optimisation: top-k sparsification
//!   and int8/int16 gradient quantisation with per-rank error feedback
//!   ("communicating high-order bits of weight updates"), wired into
//!   both the bucketed ring and the PS exchange; a [`Compression`]
//!   policy makes bytes-on-wire a first-class knob.
//! * [`error`] — [`CommError`]/[`CommResult`]: every cross-thread
//!   operation returns a result instead of panicking, so peer failures
//!   are recoverable events (Sec. VIII-A).
//! * [`supervisor`] — the PS bank: one supervised shard per block,
//!   exchanged fork-join as in Fig. 4 (post to every shard, then
//!   collect); snapshots each shard, detects dead or hung servers and
//!   respawns them from the last snapshot with bounded retry +
//!   exponential backoff, per shard.
//!
//! ## Example
//!
//! ```
//! use scidl_comm::CommWorld;
//!
//! let handles: Vec<_> = CommWorld::new(3)
//!     .into_iter()
//!     .map(|comm| {
//!         std::thread::spawn(move || {
//!             let mut grad = vec![comm.rank() as f32; 4];
//!             comm.allreduce_mean(&mut grad);
//!             grad[0]
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     assert_eq!(h.join().unwrap(), 1.0); // mean of 0, 1, 2
//! }
//! ```

pub mod allreduce;
pub mod bucket;
pub mod compress;
pub mod error;
pub mod ps;
pub mod supervisor;
pub mod world;

pub use allreduce::{
    ring_allreduce_mean, ring_allreduce_mean_scratch, RingEndpoint, RingFabric, RingScratch,
};
pub use bucket::{
    bucketed_allreduce_mean, bucketed_allreduce_mean_compressed, BucketPlan, BucketSink,
    BucketStream, OverlapContext,
};
pub use compress::{CompressedGrad, Compression, ErrorFeedback};
pub use error::{CommError, CommResult};
pub use ps::{PsReply, PsServer, PsUpdate};
pub use supervisor::{SupervisedPs, SupervisedPsBank, SupervisorConfig, UpdateFactory};
pub use world::{CommWorld, Communicator};
