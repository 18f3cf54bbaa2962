//! Umbrella crate: re-exports the Flash-ABFT reproduction workspace crates.
pub use fa_abft as abft;
pub use fa_accel_sim as accel_sim;
pub use fa_attention as attention;
pub use fa_fault as fault;
pub use fa_models as models;
pub use fa_numerics as numerics;
pub use fa_tensor as tensor;
pub use flash_abft as core_abft;

/// Compiles and runs the README's Rust examples as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
