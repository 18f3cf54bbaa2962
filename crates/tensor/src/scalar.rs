//! The sealed scalar trait.

use fa_numerics::BF16;

mod private {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
    impl Sealed for fa_numerics::BF16 {}
}

/// Element type of a [`Matrix`](crate::Matrix).
///
/// Sealed: implemented exactly for `f32`, `f64` and [`BF16`]. All
/// arithmetic is defined in terms of conversions through `f64` plus the
/// type's own rounding, which models a hardware datapath that widens
/// operands into its internal pipeline and rounds results back to the
/// storage format.
///
/// ```
/// use fa_tensor::Scalar;
/// assert_eq!(<f64 as Scalar>::from_f64(1.5).to_f64(), 1.5);
/// ```
pub trait Scalar:
    private::Sealed + Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static
{
    /// Human-readable name of the format ("f32", "f64", "bf16").
    const NAME: &'static str;
    /// Storage width in bits.
    const BIT_WIDTH: u32;

    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Converts from `f64`, rounding to this format.
    fn from_f64(value: f64) -> Self;
    /// Widens to `f64` exactly (all three formats embed in f64).
    fn to_f64(self) -> f64;

    /// `self + rhs` rounded to this format.
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::from_f64(self.to_f64() + rhs.to_f64())
    }
    /// `self - rhs` rounded to this format.
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::from_f64(self.to_f64() - rhs.to_f64())
    }
    /// `self * rhs` rounded to this format.
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::from_f64(self.to_f64() * rhs.to_f64())
    }
    /// `self / rhs` rounded to this format.
    #[inline]
    fn div(self, rhs: Self) -> Self {
        Self::from_f64(self.to_f64() / rhs.to_f64())
    }
    /// Fused multiply-accumulate in the format's own precision:
    /// `acc + a*b` with each step rounded (two roundings, as a
    /// non-fused hardware MAC performs).
    #[inline]
    fn mac(self, a: Self, b: Self) -> Self {
        self.add(a.mul(b))
    }

    /// [`mac`](Self::mac) with identical rounding semantics computed in
    /// the cheapest equivalent arithmetic for the format — the hot-path
    /// form the blocked matmul kernels call.
    ///
    /// Bit-identical to `mac` for every finite or infinite input: formats
    /// narrower than `binary32` round through `f32` instead of `f64`,
    /// which is exact for products (a 7+7-bit significand product fits 24
    /// bits) and safe for sums by the double-rounding theorem (`f64`'s 53
    /// significand bits ≥ 2·24+2, so `round32(round64(x)) = round32(x)`
    /// for sums of `f32`-representable operands). NaN *payload*
    /// propagation is implementation-defined in both paths.
    #[inline]
    fn mac_fast(self, a: Self, b: Self) -> Self {
        self.mac(a, b)
    }

    /// The storage bit pattern, zero-extended to 64 bits (`BIT_WIDTH`
    /// low bits used) — the word integer fingerprints sum.
    fn raw_bits(self) -> u64;
    /// The value whose storage bit pattern is the low `BIT_WIDTH` bits
    /// of `bits` (inverse of [`raw_bits`](Self::raw_bits)).
    fn from_raw_bits(bits: u64) -> Self;

    /// Whether the value is NaN.
    fn is_nan(self) -> bool;
    /// Whether the value is finite.
    fn is_finite(self) -> bool;
}

impl Scalar for f32 {
    const NAME: &'static str = "f32";
    const BIT_WIDTH: u32 = 32;

    // round32(round64(x)) = round32(x) for f32-operand sums/products
    // (53 ≥ 2·24+2), so native f32 arithmetic is bit-identical to the
    // default widening round-trip.
    #[inline]
    fn mac_fast(self, a: Self, b: Self) -> Self {
        self + a * b
    }

    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(value: f64) -> Self {
        value as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn raw_bits(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn from_raw_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
    #[inline]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

impl Scalar for f64 {
    const NAME: &'static str = "f64";
    const BIT_WIDTH: u32 = 64;

    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(value: f64) -> Self {
        value
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    // Native f64 arithmetic: the default widening round-trip is exact here
    // but the direct forms are clearer and faster.
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }
    #[inline]
    fn raw_bits(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_raw_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    #[inline]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

impl Scalar for BF16 {
    const NAME: &'static str = "bf16";
    const BIT_WIDTH: u32 = 16;

    // BF16 products are exact in f32 (7+7-bit significands) and BF16 sums
    // satisfy the double-rounding theorem through f32, so staying in f32
    // reproduces the default f64 round-trip bit for bit while skipping
    // four f32↔f64 conversions per MAC.
    #[inline]
    fn mac_fast(self, a: Self, b: Self) -> Self {
        let prod = BF16::from_f32(a.to_f32() * b.to_f32());
        BF16::from_f32(self.to_f32() + prod.to_f32())
    }

    #[inline]
    fn zero() -> Self {
        BF16::ZERO
    }
    #[inline]
    fn one() -> Self {
        BF16::ONE
    }
    #[inline]
    fn from_f64(value: f64) -> Self {
        BF16::from_f64(value)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        BF16::to_f64(self)
    }
    #[inline]
    fn raw_bits(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn from_raw_bits(bits: u64) -> Self {
        BF16::from_bits(bits as u16)
    }
    #[inline]
    fn is_nan(self) -> bool {
        BF16::is_nan(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        BF16::is_finite(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_bits() {
        assert_eq!(f32::NAME, "f32");
        assert_eq!(f64::NAME, "f64");
        assert_eq!(BF16::NAME, "bf16");
        assert_eq!(<f32 as Scalar>::BIT_WIDTH, 32);
        assert_eq!(<f64 as Scalar>::BIT_WIDTH, 64);
        assert_eq!(<BF16 as Scalar>::BIT_WIDTH, 16);
    }

    #[test]
    fn identities() {
        assert_eq!(<f64 as Scalar>::zero(), 0.0);
        assert_eq!(<f32 as Scalar>::one(), 1.0);
        assert_eq!(<BF16 as Scalar>::one(), BF16::ONE);
    }

    #[test]
    fn f64_arithmetic_is_native() {
        assert_eq!(Scalar::add(0.1f64, 0.2), 0.1 + 0.2);
        assert_eq!(Scalar::mul(3.0f64, 7.0), 21.0);
        assert_eq!(Scalar::div(1.0f64, 3.0), 1.0 / 3.0);
    }

    #[test]
    fn bf16_arithmetic_rounds() {
        let a = BF16::from_f32(1.0);
        let eps = BF16::from_f32(0.001);
        // 1.0 + 0.001 is below half an ULP of 1.0 in BF16: absorbed.
        assert_eq!(Scalar::add(a, eps), a);
    }

    #[test]
    fn mac_double_rounds() {
        // In BF16, mac(acc, a, b) = round(acc + round(a*b)).
        let acc = BF16::from_f32(100.0);
        let a = BF16::from_f32(1.02);
        let b = BF16::from_f32(1.02);
        let product = Scalar::mul(a, b);
        assert_eq!(Scalar::mac(acc, a, b), Scalar::add(acc, product));
    }

    #[test]
    fn nan_and_finite_checks() {
        assert!(<f64 as Scalar>::is_nan(f64::NAN));
        assert!(!<f64 as Scalar>::is_finite(f64::INFINITY));
        assert!(<BF16 as Scalar>::is_nan(BF16::NAN));
        assert!(<f32 as Scalar>::is_finite(1.0f32));
    }
}
