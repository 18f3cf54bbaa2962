//! The workspace's single head-count type.
//!
//! Every attention layout this repository serves is a special case of
//! grouped-query attention: `query_heads` query heads share `kv_heads`
//! key/value heads, with plain multi-head attention the degenerate
//! `kv_heads == query_heads` point and multi-query attention the
//! `kv_heads == 1` point. [`HeadTopology`] carries that pair (plus the
//! per-head kernel config) through the whole serving stack — the paged
//! [`KvCache`](crate::batch::KvCache) allocates, demotes, and evicts
//! blocks per **kv head**, and the decode/prefill schedulers fan out
//! `(sequence, kv_head)` streams where one contiguous K/V pass feeds all
//! `group_size` query states.
//!
//! [`MultiHeadConfig`] and [`GqaConfig`] both convert into a topology
//! (`From` impls), so existing call sites keep working while the engines
//! themselves speak one type.

use crate::gqa::GqaConfig;
use crate::multihead::MultiHeadConfig;
use crate::AttentionConfig;

/// Head layout of one attention layer: `query_heads` query heads sharing
/// `kv_heads` key/value heads (`query_heads % kv_heads == 0`), each of
/// dimension `head.head_dim()`.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HeadTopology {
    /// Number of query heads.
    pub query_heads: usize,
    /// Number of key/value heads; each serves a *group* of
    /// `query_heads / kv_heads` query heads.
    pub kv_heads: usize,
    /// Per-head kernel configuration.
    pub head: AttentionConfig,
}

impl HeadTopology {
    /// Creates a grouped topology.
    ///
    /// # Panics
    ///
    /// Panics if either head count is zero or `query_heads` is not a
    /// multiple of `kv_heads`.
    pub fn gqa(query_heads: usize, kv_heads: usize, head: AttentionConfig) -> Self {
        assert!(
            query_heads > 0 && kv_heads > 0,
            "head counts must be positive"
        );
        assert_eq!(
            query_heads % kv_heads,
            0,
            "query_heads {query_heads} must be a multiple of kv_heads {kv_heads}"
        );
        HeadTopology {
            query_heads,
            kv_heads,
            head,
        }
    }

    /// Creates the degenerate multi-head topology
    /// (`kv_heads == query_heads`).
    ///
    /// # Panics
    ///
    /// Panics if `heads == 0`.
    pub fn mha(heads: usize, head: AttentionConfig) -> Self {
        Self::gqa(heads, heads, head)
    }

    /// Query heads per KV group.
    #[inline]
    pub fn group_size(&self) -> usize {
        self.query_heads / self.kv_heads
    }

    /// Width of packed Q (and output) matrices: `query_heads · head_dim`.
    #[inline]
    pub fn q_dim(&self) -> usize {
        self.query_heads * self.head.head_dim()
    }

    /// Width of packed K/V matrices: `kv_heads · head_dim`.
    #[inline]
    pub fn kv_dim(&self) -> usize {
        self.kv_heads * self.head.head_dim()
    }

    /// The KV group (kv-head index) serving query head `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h >= query_heads`.
    #[inline]
    pub fn group_of(&self, query_head: usize) -> usize {
        assert!(
            query_head < self.query_heads,
            "query head {query_head} out of {}",
            self.query_heads
        );
        query_head / self.group_size()
    }

    /// The column range kv head `g`'s **whole group** of query heads
    /// occupies in packed `N × q_dim` matrices (`group_size · head_dim`
    /// lanes, member-major) — what a `(sequence, kv_head)` group pass
    /// slices out of a packed Q row.
    ///
    /// # Panics
    ///
    /// Panics if `g >= kv_heads`.
    #[inline]
    pub fn group_q_cols(&self, g: usize) -> core::ops::Range<usize> {
        assert!(g < self.kv_heads, "kv head {g} out of {}", self.kv_heads);
        let gd = self.group_size() * self.head.head_dim();
        g * gd..(g + 1) * gd
    }

    /// The column range query head `h` occupies in packed
    /// `N × q_dim` matrices.
    ///
    /// # Panics
    ///
    /// Panics if `h >= query_heads`.
    #[inline]
    pub fn q_head_cols(&self, h: usize) -> core::ops::Range<usize> {
        assert!(
            h < self.query_heads,
            "query head {h} out of {}",
            self.query_heads
        );
        let d = self.head.head_dim();
        h * d..(h + 1) * d
    }

    /// The column range kv head `g` occupies in packed `N × kv_dim`
    /// matrices.
    ///
    /// # Panics
    ///
    /// Panics if `g >= kv_heads`.
    #[inline]
    pub fn kv_head_cols(&self, g: usize) -> core::ops::Range<usize> {
        assert!(g < self.kv_heads, "kv head {g} out of {}", self.kv_heads);
        let d = self.head.head_dim();
        g * d..(g + 1) * d
    }
}

impl From<MultiHeadConfig> for HeadTopology {
    fn from(cfg: MultiHeadConfig) -> Self {
        HeadTopology::mha(cfg.num_heads, cfg.head)
    }
}

impl From<GqaConfig> for HeadTopology {
    fn from(cfg: GqaConfig) -> Self {
        HeadTopology::gqa(cfg.query_heads, cfg.kv_heads, cfg.head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gqa_arithmetic() {
        let t = HeadTopology::gqa(8, 2, AttentionConfig::new(16));
        assert_eq!(t.group_size(), 4);
        assert_eq!(t.q_dim(), 128);
        assert_eq!(t.kv_dim(), 32);
        assert_eq!(t.group_of(0), 0);
        assert_eq!(t.group_of(3), 0);
        assert_eq!(t.group_of(4), 1);
        assert_eq!(t.q_head_cols(2), 32..48);
        assert_eq!(t.kv_head_cols(1), 16..32);
    }

    #[test]
    fn mha_is_the_degenerate_point() {
        let t = HeadTopology::mha(3, AttentionConfig::new(4));
        assert_eq!(t.group_size(), 1);
        assert_eq!(t.q_dim(), t.kv_dim());
        for h in 0..3 {
            assert_eq!(t.group_of(h), h);
        }
    }

    #[test]
    fn conversions_preserve_head_counts() {
        let head = AttentionConfig::new(8);
        let from_mha: HeadTopology = MultiHeadConfig::new(4, head).into();
        assert_eq!((from_mha.query_heads, from_mha.kv_heads), (4, 4));
        assert_eq!(from_mha.head, head);
        let from_gqa: HeadTopology = GqaConfig::new(4, 2, head).into();
        assert_eq!((from_gqa.query_heads, from_gqa.kv_heads), (4, 2));
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn non_divisible_heads_panic() {
        let _ = HeadTopology::gqa(5, 2, AttentionConfig::new(4));
    }

    #[test]
    #[should_panic(expected = "head counts must be positive")]
    fn zero_heads_panic() {
        let _ = HeadTopology::gqa(0, 1, AttentionConfig::new(4));
    }
}
