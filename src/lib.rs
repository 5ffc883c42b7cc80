//! **adaptive-sgd** — a Rust reproduction of *"Adaptive Optimization for
//! Sparse Data on Heterogeneous GPUs"* (Ma, Rusu, Wu, Sim — IEEE IPDPSW
//! 2022).
//!
//! This façade crate re-exports the whole workspace under one name. The
//! pieces:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `asgd-core` | Adaptive SGD (Algorithms 1–2), the HeteroGPU trainer, baselines |
//! | [`slide`] | `asgd-slide` | shared LSH layer (SimHash tables, sampled-softmax candidate selection) |
//! | [`model`] | `asgd-model` | the 3-layer sparse-input MLP |
//! | [`data`] | `asgd-data` | synthetic XML datasets + libSVM ingestion |
//! | [`gpusim`] | `asgd-gpusim` | the simulated heterogeneous multi-GPU server |
//! | [`collective`] | `asgd-collective` | ring/tree/multi-stream all-reduce |
//! | [`sparse`] | `asgd-sparse` | CSR matrices + SpMM kernels |
//! | [`tensor`] | `asgd-tensor` | dense kernels (GEMM, softmax, …) |
//! | [`stats`] | `asgd-stats` | seeded distributions + streaming statistics |
//! | [`serve`] | `asgd-serve` | online inference: one scheduler loop serves a single model (a static single-tenant fleet) or a multi-tenant fleet |
//!
//! # Quickstart
//!
//! ```
//! use adaptive_sgd::core::{algorithms, trainer::{RunConfig, Trainer}};
//! use adaptive_sgd::data::{generate, DatasetSpec};
//! use adaptive_sgd::gpusim::profile::heterogeneous_server;
//!
//! // A tiny synthetic XML dataset and a 2-GPU heterogeneous server.
//! let dataset = generate(&DatasetSpec::tiny("readme"), 1);
//! let mut config = RunConfig::paper_defaults(32, 4);
//! config.hidden = 16;
//! config.mega_batch_limit = Some(3);
//!
//! let result = Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), config)
//!     .run(&dataset);
//! println!("best top-1 accuracy: {:.3}", result.best_accuracy());
//! ```

pub use asgd_collective as collective;
pub use asgd_core as core;
pub use asgd_data as data;
pub use asgd_gpusim as gpusim;
pub use asgd_model as model;
pub use asgd_serve as serve;
pub use asgd_slide as slide;
pub use asgd_sparse as sparse;
pub use asgd_stats as stats;
pub use asgd_tensor as tensor;
