//! # fa-fault
//!
//! Fault-injection campaign framework for the Flash-ABFT accelerator —
//! the machinery behind the paper's §IV-B evaluation (Table I, the
//! multi-fault experiment and the threshold determination).
//!
//! A campaign injects bit flips into uniformly random storage bits at
//! uniformly random cycles of the simulated accelerator, classifies each
//! outcome against a golden run, and aggregates statistics with
//! confidence intervals.
//!
//! ## Detection criteria
//!
//! Two criteria are implemented (see the `fa_accel_sim` crate docs for
//! the architectural background):
//!
//! * [`DetectionCriterion::HardwareComparator`] — the strict runtime
//!   mechanism: alarm iff `|predicted − actual| > τ` *within the faulty
//!   run*. Faults that scale output and checksum coherently (query, max,
//!   ℓ registers) are invisible to it by construction.
//! * [`DetectionCriterion::ChecksumDiscrepancy`] — the paper's stated
//!   evaluation criterion (§IV-B: "a fault detected if the predicted
//!   checksum differs by the true output checksum by more than 10⁻⁶"),
//!   taken as the union with the runtime comparator. This is the
//!   criterion under which Table I's numbers are reproducible.
//!
//! # Example
//!
//! ```
//! use fa_accel_sim::config::AcceleratorConfig;
//! use fa_fault::{CampaignSpec, DetectionCriterion, run_campaigns};
//! use fa_models::{LlmModel, Workload, WorkloadSpec};
//!
//! let model = LlmModel::Bert.config();
//! let workload = Workload::generate(&model, WorkloadSpec { seq_len: 16, ..WorkloadSpec::paper(1) });
//! let spec = CampaignSpec::new(AcceleratorConfig::new(4, model.head_dim), 50, 99)
//!     .with_criterion(DetectionCriterion::ChecksumDiscrepancy);
//! let stats = run_campaigns(&spec, &workload);
//! assert_eq!(stats.total(), 50);
//! ```

pub mod campaign;
pub mod classify;
pub mod criticality;
pub mod drill;
pub mod live;
pub mod recovery;
pub mod stats;

pub use campaign::{run_campaigns, CampaignSpec};
pub use classify::{classify, Classified, DetectionCriterion, FaultCategory};
pub use criticality::{CriticalityProbe, CriticalityReport};
pub use drill::{run_drill, run_drill_shard, DrillSpec, DrillStats};
pub use live::{run_live, run_live_shard, LiveCampaignSpec, LiveCampaignStats};
pub use recovery::{CheckGranularity, RecoveryModel};
pub use stats::CampaignStats;
