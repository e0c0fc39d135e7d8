//! From-scratch multi-layer perceptron used as the function approximator of
//! the NPU-style accelerator in the Rumba reproduction.
//!
//! The original paper obtained accelerator outputs by training networks with
//! the pyBrain library; this crate replaces that dependency with a small,
//! deterministic, dependency-free implementation:
//!
//! - [`Mlp`]: dense feed-forward network with per-layer activations,
//! - [`Trainer`]: mini-batch stochastic gradient descent with momentum,
//! - [`NnDataset`]: flat, row-major training data container,
//! - [`Normalizer`]: min-max feature scaling recorded at training time,
//! - [`Matrix`]/[`Scratch`]: contiguous row-major batches plus reusable,
//!   tile-bounded workspaces backing the zero-allocation batched paths,
//!   which walk [`TILE_ROWS`]-row tiles through every layer,
//! - [`TrainedModel`]: normalizing wrapper bundling the above,
//! - [`TopologySearch`]: the paper's "accelerator trainer" that picks the
//!   smallest topology meeting an error cap (at most two hidden layers of at
//!   most 32 neurons, the same restriction as the NPU work).
//!
//! Everything is seeded explicitly, so a given topology trained on a given
//! dataset reproduces bit-for-bit.
//!
//! # Examples
//!
//! Train a tiny network on a 1-D function and evaluate it:
//!
//! ```
//! use rumba_nn::{Activation, Mlp, NnDataset, TrainParams, Trainer};
//!
//! # fn main() -> Result<(), rumba_nn::NnError> {
//! let data = NnDataset::from_fn(1, 1, 256, |i, x, y| {
//!     let t = i as f64 / 256.0;
//!     x[0] = t;
//!     y[0] = (t * std::f64::consts::PI).sin();
//! })?;
//! let mut mlp = Mlp::new(&[1, 8, 1], Activation::Sigmoid, 7)?;
//! let report = Trainer::new(TrainParams::default()).train(&mut mlp, &data)?;
//! assert!(report.final_loss() < 0.05);
//! # Ok(())
//! # }
//! ```

mod activation;
mod config_words;
mod dataset;
mod error;
mod fixed;
mod matrix;
mod mlp;
mod model;
mod simd;
mod topology;
mod trainer;
mod walk;

pub use activation::Activation;
pub use config_words::{decode_model, encode_model, MODEL_MAGIC};
pub use dataset::{NnDataset, Normalizer};
pub use error::NnError;
pub use fixed::FixedModel;
pub use matrix::{Matrix, MatrixView, MatrixViewMut, Scratch};
pub use mlp::{Layer, Mlp};
pub use model::TrainedModel;
pub use simd::{active_isa, detected_isa, set_simd_override, simd_mode, Isa, SimdMode};
pub use topology::{TopologyCandidate, TopologySearch, TopologySearchReport};
pub use trainer::{TrainParams, TrainReport, Trainer};
pub use walk::{RowEdit, TILE_ROWS};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, NnError>;
