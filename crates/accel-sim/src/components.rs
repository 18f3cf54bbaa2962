//! Component cost library — the analytical substitute for the paper's
//! 28 nm standard-cell synthesis.
//!
//! Costs are expressed in *relative units*: 1.0 area unit = one BF16
//! adder, 1.0 energy unit = one BF16 addition. Ratios are calibrated to
//! published 28 nm datapoints (a floating multiplier is ~8× an adder of
//! the same width; doubling operand width roughly quadruples multiplier
//! area and doubles adder area; a register bit with clocking is ~0.35
//! adder-equivalents). Absolute conversions to µm²/mW are provided as
//! documented constants so reports can print paper-style axes; only the
//! *shares* are meaningful for reproduction.

/// Relative area/energy costs of the primitive hardware components.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ComponentCosts {
    /// Area of a BF16 multiplier.
    pub area_mult_bf16: f64,
    /// Area of a BF16 adder (the unit).
    pub area_add_bf16: f64,
    /// Area of a double-precision adder.
    pub area_add_f64: f64,
    /// Area of a mixed 64×16-bit multiplier (checksum rescale MAC).
    pub area_mult_mixed: f64,
    /// Area of an exponential unit (LUT + multiply + add, see fa-numerics::exp).
    pub area_exp: f64,
    /// Area of a single-precision divider.
    pub area_div_f32: f64,
    /// Area of a double-precision divider.
    pub area_div_f64: f64,
    /// Area of a magnitude comparator.
    pub area_cmp: f64,
    /// Area of one register bit (flop + clock share).
    pub area_reg_bit: f64,

    /// Energy of a BF16 multiply.
    pub energy_mult_bf16: f64,
    /// Energy of a BF16 add (the unit).
    pub energy_add_bf16: f64,
    /// Energy of an f64 add.
    pub energy_add_f64: f64,
    /// Energy of a mixed 64×16 multiply.
    pub energy_mult_mixed: f64,
    /// Energy of one exponential evaluation.
    pub energy_exp: f64,
    /// Energy of one division.
    pub energy_div: f64,
    /// Energy of one comparison.
    pub energy_cmp: f64,
    /// Energy of writing one register bit.
    pub energy_reg_bit: f64,
}

impl Default for ComponentCosts {
    fn default() -> Self {
        ComponentCosts {
            area_mult_bf16: 8.0,
            area_add_bf16: 1.0,
            area_add_f64: 10.0,
            area_mult_mixed: 32.0,
            area_exp: 14.0,
            area_div_f32: 18.0,
            area_div_f64: 80.0,
            area_cmp: 1.0,
            area_reg_bit: 0.35,
            energy_mult_bf16: 4.0,
            energy_add_bf16: 1.0,
            energy_add_f64: 6.0,
            energy_mult_mixed: 7.0,
            energy_exp: 10.0,
            energy_div: 20.0,
            energy_cmp: 0.5,
            energy_reg_bit: 0.08,
        }
    }
}

/// Conversion constants from relative units to physical units, anchored
/// on a 28 nm BF16 adder ≈ 150 µm² and ≈ 0.15 pJ/op at 0.9 V. Only used
/// for printing paper-style axes; shares are unit-free.
pub mod physical {
    /// µm² per area unit.
    pub const UM2_PER_AREA_UNIT: f64 = 150.0;
    /// pJ per energy unit.
    pub const PJ_PER_ENERGY_UNIT: f64 = 0.15;
    /// Clock frequency assumed when converting energy/cycle to power (Hz).
    pub const CLOCK_HZ: f64 = 500.0e6;
}

/// Structural component inventory of one configuration, split into
/// kernel and checker contributions. Counts follow Fig. 2/3:
///
/// **Kernel, per block**: a d-wide BF16 dot-product unit (d multipliers,
/// d−1 adders), two exponential units, the d-lane output update (2d
/// multipliers, d adders), the ℓ update (2 mult, 1 add), a max
/// comparator, a divider, and registers (q, o, m, ℓ).
///
/// **Checker, per block**: the c-lane MAC (2 mixed multipliers, 1 f64
/// adder), the per-block check divider, the c register and its two
/// pipeline stages.
///
/// **Checker, shared**: the sumrow adder tree (d−1 BF16 adders feeding an
/// f64 accumulator), the global checksum and output-sum accumulators
/// (one f64 adder each), the final comparator, and their registers.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ComponentCounts {
    /// BF16 multipliers.
    pub mult_bf16: u64,
    /// BF16 adders.
    pub add_bf16: u64,
    /// f64 adders.
    pub add_f64: u64,
    /// Mixed-width multipliers.
    pub mult_mixed: u64,
    /// Exponential units.
    pub exp: u64,
    /// f32 dividers.
    pub div_f32: u64,
    /// f64 dividers.
    pub div_f64: u64,
    /// Comparators.
    pub cmp: u64,
    /// Register bits.
    pub reg_bits: u64,
}

impl ComponentCounts {
    /// Total area in relative units.
    pub fn area(&self, c: &ComponentCosts) -> f64 {
        self.mult_bf16 as f64 * c.area_mult_bf16
            + self.add_bf16 as f64 * c.area_add_bf16
            + self.add_f64 as f64 * c.area_add_f64
            + self.mult_mixed as f64 * c.area_mult_mixed
            + self.exp as f64 * c.area_exp
            + self.div_f32 as f64 * c.area_div_f32
            + self.div_f64 as f64 * c.area_div_f64
            + self.cmp as f64 * c.area_cmp
            + self.reg_bits as f64 * c.area_reg_bit
    }
}

/// Kernel component counts for one configuration (P blocks, dimension d).
pub fn kernel_components(parallel_queries: u64, d: u64) -> ComponentCounts {
    let p = parallel_queries;
    ComponentCounts {
        // dot product (d) + output update (2d) + l update (2)
        mult_bf16: p * (d + 2 * d + 2),
        // dot tree (d-1) + output accumulate (d) + l accumulate (1)
        add_bf16: p * ((d - 1) + d + 1),
        add_f64: 0,
        mult_mixed: 0,
        exp: p * 2,
        div_f32: p,
        div_f64: 0,
        cmp: p,
        // q (16d) + o (16d) + m (16) + l (32) bits per block
        reg_bits: p * (16 * d + 16 * d + 16 + 32),
    }
}

/// Checker component counts (per-block lanes plus shared logic).
pub fn checker_components(parallel_queries: u64, d: u64, shared_sumrow: bool) -> ComponentCounts {
    let p = parallel_queries;
    // Per block: c MAC (2 mixed mult + 1 f64 add), check divider, c
    // register + pipeline stage (2×64 bits).
    let mut counts = ComponentCounts {
        mult_bf16: 0,
        add_bf16: 0,
        add_f64: p,
        mult_mixed: p * 2,
        exp: 0,
        div_f32: 0,
        div_f64: p,
        cmp: 0,
        reg_bits: p * 3 * 64,
    };
    // Shared: sumrow tree + f64 accumulate stage, global + output-sum
    // accumulators, final comparator, registers.
    let tree_instances = if shared_sumrow { 1 } else { p };
    counts.add_bf16 += tree_instances * (d - 1);
    counts.add_f64 += tree_instances + 2;
    counts.cmp += 1;
    counts.reg_bits += tree_instances * 64 + 2 * 64;
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cost_ratios_are_sane() {
        let c = ComponentCosts::default();
        assert!(c.area_mult_bf16 > c.area_add_bf16);
        assert!(c.area_div_f64 > c.area_div_f32);
        assert!(c.area_add_f64 > c.area_add_bf16);
        assert!(c.energy_div > c.energy_mult_bf16);
    }

    #[test]
    fn kernel_counts_scale_linearly_with_blocks() {
        let one = kernel_components(1, 128);
        let sixteen = kernel_components(16, 128);
        assert_eq!(sixteen.mult_bf16, 16 * one.mult_bf16);
        assert_eq!(sixteen.reg_bits, 16 * one.reg_bits);
    }

    #[test]
    fn shared_sumrow_reduces_checker_area() {
        let c = ComponentCosts::default();
        let shared = checker_components(16, 128, true);
        let replicated = checker_components(16, 128, false);
        assert!(shared.area(&c) < replicated.area(&c));
        // The tree is (d−1) adders: replicating it 16× adds 15×127 bf16 adds.
        assert_eq!(replicated.add_bf16 - shared.add_bf16, 15 * 127);
    }

    #[test]
    fn area_computation_is_weighted_sum() {
        let c = ComponentCosts::default();
        let counts = ComponentCounts {
            mult_bf16: 2,
            add_bf16: 3,
            ..Default::default()
        };
        assert_eq!(counts.area(&c), 2.0 * 8.0 + 3.0);
    }

    #[test]
    fn physical_constants_exist() {
        const { assert!(physical::UM2_PER_AREA_UNIT > 0.0) }
        const { assert!(physical::PJ_PER_ENERGY_UNIT > 0.0) }
        assert_eq!(physical::CLOCK_HZ, 5.0e8);
    }
}
