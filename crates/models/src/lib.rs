//! # fa-models
//!
//! LLM attention-layer configurations and synthetic workload generation.
//!
//! The paper injects faults into "the first attention layer of four LLMs
//! with different hidden dimensions using the same embedding prompt with
//! sequence length of 256": Bert (d=64), Phi-3-mini (d=96), Llama-3.1
//! (d=128) and Gemma2 (d=256), pulled from HuggingFace with PromptBench
//! prompts (§IV-B). This crate substitutes synthetic embeddings with
//! matched statistics: the checker's behaviour depends on
//! score/weight distributions, not on which English words produced them,
//! and the distribution sweep in [`workload`] demonstrates insensitivity.

pub mod stats;
pub mod workload;

mod configs;

pub use configs::{LlmModel, ModelConfig, PAPER_MODELS};
pub use stats::WorkloadStats;
pub use workload::{Workload, WorkloadSpec};
