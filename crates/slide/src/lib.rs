//! The shared LSH layer: SimHash tables and sampled-softmax candidate
//! selection.
//!
//! Originally this crate was a standalone SLIDE-style CPU baseline (the
//! paper's fourth comparator). The LSH machinery has since been promoted to
//! a first-class subsystem of the *main* trainer: at full label scale the
//! dense output GEMM is the wall, and the trainer's `ASGD_SOFTMAX=sampled`
//! path computes only an LSH-selected candidate subset of the output layer
//! per batch. This crate is deliberately a **leaf** (no dependency on
//! `asgd-core` or `asgd-model`) so both the main trainer and the ported
//! SLIDE baseline (`asgd_core::slide`) can build on it.
//!
//! * [`lsh`] — SimHash tables over output neurons, with per-class
//!   signatures stored at rebuild so bucket neighborhoods can be queried
//!   without an activation.
//! * [`sampler`] — deterministic per-batch candidate selection (true labels
//!   ∪ seeded LSH-bucket negatives, fixed-size, order-canonical) and its
//!   determinism contract.

pub mod lsh;
pub mod sampler;

pub use lsh::{LshIndex, NeuronRows};
pub use sampler::CandidateSampler;
