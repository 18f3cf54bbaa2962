//! Accelerator configuration: geometry and register precision policy.

use crate::register::RegWidth;
use fa_attention::AttentionConfig;

/// Which exponential implementation the datapath uses (see
/// `fa_numerics::exp`). All three are coherent between the output and
/// checksum lanes (the same unit feeds both), so checker behaviour is
/// identical; only absolute output accuracy differs — an ablation the
/// test-suite pins down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ExpUnitKind {
    /// Reference libm `exp` (default).
    #[default]
    Libm,
    /// Range-reduced degree-9 polynomial (HLS-style shared FP pipeline).
    Poly,
    /// Dual 64-entry LUT with degree-2 residual polynomial.
    Table,
}

impl ExpUnitKind {
    /// Evaluates e^x with the selected unit.
    #[inline]
    pub fn eval(self, x: f64) -> f64 {
        use fa_numerics::exp::{ExpUnit, PolyExp, TableExp};
        match self {
            ExpUnitKind::Libm => x.exp(),
            ExpUnitKind::Poly => PolyExp::new().eval(x),
            ExpUnitKind::Table => {
                thread_local! {
                    static TABLE: TableExp = TableExp::new();
                }
                TABLE.with(|t| t.eval(x))
            }
        }
    }
}

/// Per-register-class width assignment.
///
/// The paper states: operands in BFloat16, "all checksum accumulators ...
/// built with double-precision floats" (§IV-A). It is silent on the width
/// of the output/ℓ accumulators; for the stated 10⁻⁶ fault-free bound to
/// hold they must be wide, which [`PrecisionPolicy::paper`] adopts. [`PrecisionPolicy::narrow`]
/// makes every kernel register BF16 — the ablation showing why narrow
/// accumulators break the absolute threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PrecisionPolicy {
    /// Query vector registers (loaded from BF16 memory).
    pub query: RegWidth,
    /// Output accumulator registers `o`.
    pub output: RegWidth,
    /// Running-maximum register `m`.
    pub max_score: RegWidth,
    /// Sum-of-exponentials register `ℓ`.
    pub sum_exp: RegWidth,
    /// Per-query checksum register `c` (checker).
    pub check: RegWidth,
    /// Shared `sumrow_i(V)` pipeline register (checker).
    pub sumrow: RegWidth,
    /// Global checksum accumulator (checker).
    pub global: RegWidth,
}

impl PrecisionPolicy {
    /// The paper-faithful policy: BF16 query registers, wide (f64)
    /// kernel accumulators, double-precision checksum state.
    pub const fn paper() -> Self {
        PrecisionPolicy {
            query: RegWidth::Bf16,
            output: RegWidth::F64,
            max_score: RegWidth::F64,
            sum_exp: RegWidth::F64,
            check: RegWidth::F64,
            sumrow: RegWidth::F64,
            global: RegWidth::F64,
        }
    }

    /// Narrow ablation: every kernel register BF16 (checksum state stays
    /// f64 as the paper requires). Fault-free residuals balloon to BF16
    /// format noise — the threshold-sweep experiment quantifies it.
    pub const fn narrow() -> Self {
        PrecisionPolicy {
            query: RegWidth::Bf16,
            output: RegWidth::Bf16,
            max_score: RegWidth::Bf16,
            sum_exp: RegWidth::F64,
            check: RegWidth::F64,
            sumrow: RegWidth::F64,
            global: RegWidth::F64,
        }
    }

    /// Intermediate policy: f32 kernel accumulators.
    pub const fn f32_accumulators() -> Self {
        PrecisionPolicy {
            query: RegWidth::Bf16,
            output: RegWidth::F32,
            max_score: RegWidth::F32,
            sum_exp: RegWidth::F32,
            check: RegWidth::F64,
            sumrow: RegWidth::F64,
            global: RegWidth::F64,
        }
    }
}

impl Default for PrecisionPolicy {
    fn default() -> Self {
        Self::paper()
    }
}

/// Full accelerator configuration.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AcceleratorConfig {
    /// Number of query vectors served in parallel (16 or 32 in the paper).
    pub parallel_queries: usize,
    /// Attention kernel configuration (head dimension, scaling).
    pub attention: AttentionConfig,
    /// Register precision policy.
    pub precision: PrecisionPolicy,
    /// Whether the Flash-ABFT checker hardware is instantiated. Disabling
    /// it models the baseline accelerator for overhead comparisons.
    pub checker_enabled: bool,
    /// Epilogue cycles per pass (division + global accumulation).
    pub epilogue_cycles: u64,
    /// Exponential unit implementation.
    pub exp_unit: ExpUnitKind,
}

impl AcceleratorConfig {
    /// Creates a configuration with the defaults: standard 1/√d-scaled
    /// attention, paper precision policy, checker enabled, two epilogue
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `parallel_queries == 0` or `head_dim == 0`.
    pub fn new(parallel_queries: usize, head_dim: usize) -> Self {
        assert!(parallel_queries > 0, "parallel_queries must be positive");
        AcceleratorConfig {
            parallel_queries,
            attention: AttentionConfig::new(head_dim),
            precision: PrecisionPolicy::paper(),
            checker_enabled: true,
            epilogue_cycles: 2,
            exp_unit: ExpUnitKind::Libm,
        }
    }

    /// Overrides the attention configuration.
    pub fn with_attention(mut self, attention: AttentionConfig) -> Self {
        self.attention = attention;
        self
    }

    /// Overrides the precision policy.
    pub fn with_precision(mut self, precision: PrecisionPolicy) -> Self {
        self.precision = precision;
        self
    }

    /// Enables or disables the checker hardware.
    pub fn with_checker(mut self, enabled: bool) -> Self {
        self.checker_enabled = enabled;
        self
    }

    /// Selects the exponential unit implementation.
    pub fn with_exp_unit(mut self, exp_unit: ExpUnitKind) -> Self {
        self.exp_unit = exp_unit;
        self
    }

    /// Head dimension shortcut.
    pub fn head_dim(&self) -> usize {
        self.attention.head_dim()
    }

    /// Number of passes needed to serve `n_queries`.
    pub fn passes(&self, n_queries: usize) -> usize {
        n_queries.div_ceil(self.parallel_queries)
    }

    /// Cycles per pass for a sequence of `n_keys` keys: one streaming
    /// cycle per key plus the epilogue.
    pub fn cycles_per_pass(&self, n_keys: usize) -> u64 {
        n_keys as u64 + self.epilogue_cycles
    }

    /// Total cycles to compute attention for `n_queries` × `n_keys`.
    pub fn total_cycles(&self, n_queries: usize, n_keys: usize) -> u64 {
        self.passes(n_queries) as u64 * self.cycles_per_pass(n_keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_policy_widths() {
        let p = PrecisionPolicy::paper();
        assert_eq!(p.query, RegWidth::Bf16);
        assert_eq!(p.output, RegWidth::F64);
        assert_eq!(p.check, RegWidth::F64);
        assert_eq!(PrecisionPolicy::default(), p);
    }

    #[test]
    fn narrow_policy_is_bf16_kernel() {
        let p = PrecisionPolicy::narrow();
        assert_eq!(p.output, RegWidth::Bf16);
        assert_eq!(p.max_score, RegWidth::Bf16);
        assert_eq!(p.check, RegWidth::F64, "checksum stays f64 per the paper");
    }

    #[test]
    fn pass_and_cycle_arithmetic() {
        let cfg = AcceleratorConfig::new(16, 128);
        assert_eq!(cfg.passes(256), 16);
        assert_eq!(cfg.passes(250), 16, "partial final pass");
        assert_eq!(cfg.passes(16), 1);
        assert_eq!(cfg.cycles_per_pass(256), 258);
        assert_eq!(cfg.total_cycles(256, 256), 16 * 258);
    }

    #[test]
    fn builders() {
        let cfg = AcceleratorConfig::new(4, 8)
            .with_checker(false)
            .with_precision(PrecisionPolicy::narrow());
        assert!(!cfg.checker_enabled);
        assert_eq!(cfg.precision, PrecisionPolicy::narrow());
        assert_eq!(cfg.head_dim(), 8);
    }

    #[test]
    #[should_panic(expected = "parallel_queries must be positive")]
    fn zero_blocks_panics() {
        let _ = AcceleratorConfig::new(0, 8);
    }
}
