//! The engine's one scoring pass: Alg. 3's blocked sweep — the
//! FlashAttention-2 loop (Dao 2023) with the checksum lane riding next
//! to the output lanes — run per (sequence, kv head) over a **panel** of
//! consecutive query positions.
//!
//! Every query shape the engine scores is a panel, and every scoring
//! entry point builds its panels and hands them to one append-and-score
//! step, `DecodeBatch::append_and_score` (in `batch.rs`), which appends
//! each panel's K/V rows and then runs every panel × kv head pass in a
//! single fork:
//!
//! * a decode step ([`DecodeBatch::step_decode`]) is a 1-position panel
//!   at `seq_len − 1`; readers of a shared prefix share its physical
//!   K/V rows and `sumrow` lanes, and each reader scores them through
//!   this same pass;
//! * a chunked-prefill chunk is one panel per (prompt, kv head) spanning
//!   the chunk's positions;
//! * a speculative window ([`DecodeBatch::speculate`]) is one panel per
//!   segment (the whole window, or its Mixed-format claim segments).
//!
//! A panel's queries are rows of the caller's Q matrix; the pass reads
//! each group member's sub-row in place, with no packed copy.
//!
//! The sweep visits each retained block once. Inside a block, every
//! position whose causal/window range reaches into it scores its own
//! rows per group member through the GEMV kernels
//! ([`ops::dot_then_scale_rows`] / [`ops::dot_then_scale_rows_bf16`])
//! and folds them, with the block's V rows in their stored format and
//! its `sumrow` lanes, through [`MergedAccumulator::fold`] — the same
//! fold the fused kernel and the golden sessions use. Each query therefore
//! sees exactly its own rows, in ascending order, with the per-row
//! arithmetic of a one-query sweep: a panel is bit-identical to scoring
//! its positions one at a time (unit-tested below), and every engine
//! path stays bit-identical to the golden sessions (property-tested).

use super::{DecodeBatch, DecodeStepOutput, HeadBlockData};
use fa_tensor::{online::MergedAccumulator, ops, Matrix, Scalar};
use std::ops::Range;

impl<T: Scalar> DecodeBatch<T> {
    /// One fused Alg. 3 sweep for one (sequence, **kv head**) over a
    /// panel of consecutive query positions starting at `pos0`,
    /// computing scores, online-softmax state, output lanes and (when
    /// `checked`) the checksum lane for every (position, group member).
    ///
    /// Position `pos0 + j` queries with row `q_rows.start + j` of `q`
    /// (`N × q_dim`); member `m` (query head `kv_head·group_size + m`)
    /// reads that row's `head_dim` lanes of its head, in place.
    /// Position `p` attends to `[lo(p), p]`: the causal bound, floored by
    /// the tighter of the configured sliding window and the eviction
    /// window (eviction frees exactly the rows that mask hides, so
    /// evicted blocks are never reached) — the masking of
    /// `DecodeSession::step_with_state`.
    ///
    /// Each retained K/V block streams once for the whole panel, and a
    /// grouped topology pays one kv head's traffic for `group_size`
    /// query states. The checksum lane reads the block's own per-(row,
    /// kv head) `sumrow` lane beside the V rows it weights, shared by the
    /// group's members and, for a shared prefix block, by every reader
    /// (one physical lane, like the K/V rows). Each reader of a shared
    /// block scores it with its own queries, exactly as it scores a
    /// private block. Returns the unnormalized states position-major,
    /// member-minor: state `j·group_size + m` is position `pos0 + j`,
    /// member `m`.
    pub(super) fn panel_pass(
        &self,
        seq: usize,
        kv_head: usize,
        q: &Matrix<T>,
        q_rows: Range<usize>,
        pos0: usize,
        checked: bool,
    ) -> Vec<MergedAccumulator> {
        let d = self.cfg.head.head_dim();
        let gs = self.cfg.group_size();
        let scale = self.cfg.head.scale();
        let (row0, n_pos) = (q_rows.start, q_rows.len());
        let col0 = self.cfg.group_q_cols(kv_head).start;
        let query = |qi: usize| {
            let c = col0 + qi % gs * d;
            &q.row(row0 + qi / gs)[c..c + d]
        };
        let mut panel = Panel {
            positions: pos0..pos0 + n_pos,
            gs,
            mask_window: self.mask_window,
            checked,
            states: (0..n_pos * gs).map(|_| MergedAccumulator::new(d)).collect(),
            scores: Vec::new(),
        };
        // Demoted blocks score through the mixed-operand kernel, which
        // widens BF16 keys per lane (exact), so a demoted block scores
        // bit for bit like its widened contents through the f64 kernel —
        // what keeps mixed-format decode pinned to the f64 golden
        // session. The widened queries are built on the first demoted
        // block the sweep meets.
        let mut q_wide: Vec<f64> = Vec::new();
        for blk in self.cache.head_stream(seq, kv_head) {
            if blk.first >= panel.positions.end {
                break;
            }
            let (first, rows, sumrow) = (blk.first, blk.rows, blk.sumrow);
            match blk.data {
                HeadBlockData::Native { k, v } => {
                    panel.fold_block((first, rows), v, sumrow, |qi, r0, n, out| {
                        ops::dot_then_scale_rows(query(qi), &k[r0 * d..], d, n, scale, out);
                    })
                }
                HeadBlockData::Demoted { k, v } => {
                    if q_wide.is_empty() {
                        q_wide = (0..n_pos * gs)
                            .flat_map(|qi| query(qi).iter().map(|x| x.to_f64()))
                            .collect();
                    }
                    let q_wide = &q_wide;
                    panel.fold_block((first, rows), v, sumrow, |qi, r0, n, out| {
                        let q = &q_wide[qi * d..(qi + 1) * d];
                        ops::dot_then_scale_rows_bf16(q, &k[r0 * d..], d, n, scale, out);
                    })
                }
            }
        }
        panel.states
    }
}

/// One [`DecodeBatch::panel_pass`] in flight: the panel's geometry plus
/// its per-(position, member) online states.
struct Panel {
    positions: Range<usize>,
    gs: usize,
    mask_window: Option<usize>,
    checked: bool,
    /// One accumulator per query, in packing order.
    states: Vec<MergedAccumulator>,
    /// Per-member score scratch, reused across blocks and queries.
    scores: Vec<f64>,
}

impl Panel {
    /// The per-block body, generic over the block's stored value format:
    /// for each panel position whose visible range `[r0, r1)` reaches
    /// into the block (`first`, `rows`), each member's scores come from
    /// `score(query, r0, rows, out)` and fold through the query's
    /// accumulator with the block's values `v` and (when checked) its
    /// checksum lanes `sumrow`.
    fn fold_block<V: Scalar>(
        &mut self,
        (first, rows): (usize, usize),
        v: &[V],
        sumrow: &[f64],
        mut score: impl FnMut(usize, usize, usize, &mut Vec<f64>),
    ) {
        for p in self.positions.start.max(first)..self.positions.end {
            let lo = self.mask_window.map_or(0, |w| (p + 1).saturating_sub(w));
            let r1 = (p + 1 - first).min(rows);
            let r0 = lo.saturating_sub(first).min(r1);
            if r0 == r1 {
                continue;
            }
            let n = r1 - r0;
            for m in 0..self.gs {
                let qi = (p - self.positions.start) * self.gs + m;
                score(qi, r0, n, &mut self.scores);
                let acc = &mut self.states[qi];
                let d = acc.dim();
                let sumrow = self.checked.then(|| &sumrow[r0..r1]);
                acc.fold(&self.scores, &v[r0 * d..r1 * d], sumrow);
            }
        }
    }
}

/// Normalizes one token's per-query-head states, given in query-head
/// order, into its `q_dim`-wide output row and checksum pair (Alg. 3
/// lines 9–11): `actual` sums the normalized lanes and `predicted` the
/// per-head checks, both in head order.
pub(super) fn finalize_token<'a>(
    q_dim: usize,
    heads: impl IntoIterator<Item = &'a MergedAccumulator>,
) -> DecodeStepOutput {
    let mut output = Vec::with_capacity(q_dim);
    let mut predicted = 0.0f64;
    let mut actual = 0.0f64;
    for acc in heads {
        let (lanes, check) = acc.normalized().expect("every query sees its own row");
        for val in lanes {
            output.push(val);
            actual += val;
        }
        predicted += check;
    }
    DecodeStepOutput {
        output,
        predicted,
        actual,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
    use crate::topology::HeadTopology;
    use crate::AttentionConfig;
    use fa_tensor::{random::ElementDist, Matrix};

    fn rand(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        Matrix::random_seeded(rows, cols, ElementDist::default(), seed)
    }

    #[test]
    fn panel_is_bit_identical_to_one_position_panels() {
        // 4-row blocks and an 8-token window: the panels below straddle
        // block edges (16, 20) and cut blocks at different window floors
        // per position. Head dim 20 straddles the 16-lane dot blocking.
        let formats = [
            KvFormat::F64,
            KvFormat::Bf16,
            KvFormat::Mixed { burst_blocks: 1 },
        ];
        let evictions = [
            EvictionPolicy::RetainAll,
            EvictionPolicy::SlidingWindow { window_blocks: 2 },
        ];
        let topos = [
            HeadTopology::mha(2, AttentionConfig::new(20)),
            HeadTopology::gqa(8, 2, AttentionConfig::new(20)),
        ];
        for format in formats {
            for eviction in evictions {
                for topo in topos {
                    let what = format!("{format:?}/{eviction:?}/group {}", topo.group_size());
                    let mut b =
                        DecodeBatch::with_policy(topo, 4, KvLayout::HeadMajor, format, eviction);
                    let seq = b.add_sequence();
                    let n = 23;
                    let (k, v) = (rand(n, topo.kv_dim(), 1), rand(n, topo.kv_dim(), 2));
                    // Decode-style appends up to 14, then anchor eviction
                    // there as a prefill chunk starting at 14 would: every
                    // panel below stays fully retained.
                    for i in 0..n {
                        b.cache.append_anchored(seq, k.row(i), v.row(i), i.min(14));
                    }
                    if format != KvFormat::F64 {
                        assert!(b.cache().seq_blocks(seq).iter().any(|blk| blk.bf16));
                    }
                    let q = rand(n, topo.q_dim(), 3);
                    let gs = topo.group_size();
                    for (pos0, n_pos) in [(14, 9), (15, 3), (17, 6), (19, 4), (22, 1)] {
                        for g in 0..topo.kv_heads {
                            let rows = pos0..pos0 + n_pos;
                            let states = b.panel_pass(seq, g, &q, rows, pos0, true);
                            assert_eq!(states.len(), n_pos * gs, "{what}");
                            for j in 0..n_pos {
                                let p = pos0 + j;
                                let single = b.panel_pass(seq, g, &q, p..p + 1, p, true);
                                for (m, s) in single.iter().enumerate() {
                                    let x = &states[j * gs + m];
                                    let at = format!(
                                        "{what}: panel {pos0}+{n_pos} kv {g} pos {p} member {m}"
                                    );
                                    assert_eq!(
                                        x.sum_exp().to_bits(),
                                        s.sum_exp().to_bits(),
                                        "{at}"
                                    );
                                    assert_eq!(
                                        x.checksum().to_bits(),
                                        s.checksum().to_bits(),
                                        "{at}"
                                    );
                                    for (a, c) in x.output().iter().zip(s.output()) {
                                        assert_eq!(a.to_bits(), c.to_bits(), "{at}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
