//! # fa-accel-sim
//!
//! Cycle-level simulator and hardware cost model of the block-parallel
//! FlashAttention-2 accelerator with the Flash-ABFT checker (paper
//! Fig. 2/3) — the substitute for the paper's Catapult-HLS/28 nm flow.
//!
//! ## What is modelled
//!
//! * **Datapath** — `parallel_queries` query blocks, each holding a query
//!   vector, output accumulator, running max `m`, sum-of-exponentials `ℓ`
//!   and (checker) per-query checksum `c` in *named, bit-accurate
//!   registers*. Keys and values stream one row per cycle, broadcast to
//!   all blocks; a shared adder computes `sumrow_i(V)` for the checker.
//!   When the sequence has more queries than blocks, the accelerator runs
//!   multiple passes, re-streaming K/V (exactly the schedule of Fig. 2).
//! * **Faults** — a [`Fault`](fault::Fault) flips one bit of one register
//!   at one cycle. Every storage bit is enumerable
//!   ([`storage::StorageMap`]) so campaigns can sample uniformly over
//!   bits, matching the paper's §IV-B methodology.
//! * **Cost** — an analytical area/power model ([`area`], [`power`],
//!   [`components`]) with per-component 28 nm-style relative costs. The
//!   checker *share* — the number the paper reports — is computed from
//!   structural component counts, not hard-coded.
//!
//! ## Precision policy
//!
//! Register widths are configurable per register class
//! ([`config::PrecisionPolicy`]). The default matches the paper's stated
//! design (BF16 datapath operands, double-precision checksum
//! accumulators) with wide output/ℓ accumulators — required for the
//! paper's 10⁻⁶ fault-free bound to hold; the narrow-accumulator ablation
//! is available as [`config::PrecisionPolicy::narrow`].
//!
//! # Example
//!
//! ```
//! use fa_tensor::{Matrix, random::ElementDist};
//! use fa_numerics::BF16;
//! use fa_accel_sim::{Accelerator, config::AcceleratorConfig};
//!
//! let cfg = AcceleratorConfig::new(4, 8); // 4 parallel queries, d=8
//! let accel = Accelerator::new(cfg);
//! let q = Matrix::<BF16>::random_seeded(8, 8, ElementDist::default(), 1);
//! let k = Matrix::<BF16>::random_seeded(8, 8, ElementDist::default(), 2);
//! let v = Matrix::<BF16>::random_seeded(8, 8, ElementDist::default(), 3);
//! let run = accel.run(&q, &k, &v);
//! assert!((run.predicted - run.actual).abs() < 1e-6, "fault-free check holds");
//! ```

pub mod activity;
pub mod area;
pub mod components;
pub mod config;
pub mod fault;
pub mod power;
pub mod register;
pub mod storage;
pub mod trace;

mod accelerator;
pub mod block;

pub use accelerator::{run_multihead, Accelerator, RunResult};
pub use block::{BlockResult, CycleEvent};
pub use register::{RegWidth, Register};
