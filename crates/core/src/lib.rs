//! Rumba: online quality management for approximate accelerators.
//!
//! This crate implements the paper's contribution — the detection and
//! recovery runtime of Figure 4 — on top of the workspace substrates:
//!
//! - **Offline** ([`trainer`]): the accelerator trainer (fits the Table-1
//!   topology on the train split) and the error-predictor trainer (fits the
//!   linear/tree/EVP checkers on the accelerator's observed training
//!   errors).
//! - **Online detection** ([`runtime`]): every accelerator invocation is
//!   scored by a light-weight checker; scores above the tuning threshold
//!   set a recovery bit in the recovery queue.
//! - **Online recovery** ([`runtime`], [`pipeline`]): the CPU drains the
//!   recovery queue and re-executes flagged iterations exactly, overlapped
//!   with accelerator execution (Figure 8); the output merger commits exact
//!   results over approximate ones.
//! - **Online tuning** ([`tuner`]): the threshold adapts per invocation
//!   window under one of three modes — target output quality, energy
//!   budget, or best-effort quality (§3.4).
//! - **Evaluation** ([`scheme`], [`analysis`], [`context`]): the
//!   Ideal/Random/Uniform/EMA/linearErrors/treeErrors comparison machinery
//!   behind every figure of §5.
//!
//! # Examples
//!
//! End-to-end: train offline, run the managed system online, compare with
//! the unchecked accelerator:
//!
//! ```no_run
//! use rumba_apps::kernel_by_name;
//! use rumba_core::context::AppContext;
//! use rumba_core::scheme::SchemeKind;
//!
//! let kernel = kernel_by_name("inversek2j").expect("known benchmark");
//! let ctx = AppContext::build(kernel.as_ref(), 42).expect("training succeeds");
//! let unchecked = ctx.unchecked_output_error();
//! let at_toq = ctx.fixes_for_target_error(SchemeKind::TreeErrors, 0.10);
//! println!("unchecked error {unchecked:.3}, tree fixes {:?}", at_toq);
//! ```

pub mod analysis;
pub mod cache;
pub mod context;
pub mod event_sim;
pub mod openworld;
pub mod pipeline;
pub mod report;
pub mod runtime;
pub mod scheme;
pub mod trainer;
pub mod tuner;
pub mod zoo;

mod error;

pub use error::RumbaError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, RumbaError>;
