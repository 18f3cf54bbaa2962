//! The engine's one scoring pass: Alg. 3's blocked sweep — the
//! FlashAttention-2 loop (Dao 2023) with the checksum lane riding next
//! to the output lanes — run per (sequence, kv head) over a **panel** of
//! consecutive query positions.
//!
//! Every query shape the engine scores is a panel:
//!
//! * a decode step ([`DecodeBatch::step_decode`]) is a 1-position panel
//!   at `seq_len − 1`; blocks that several stepping readers share (a
//!   resident prefix) are scored once for all of them by
//!   [`DecodeBatch::build_shared_scores`], and the pass reads those
//!   tiles instead of re-streaming K;
//! * a chunked-prefill chunk is one panel per (prompt, kv head) spanning
//!   the chunk's positions;
//! * a speculative window ([`DecodeBatch::speculate`]) is one panel per
//!   segment (the whole window, or its Mixed-format claim segments).
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

/// Sort key of one tile candidate: `(physical block index, stored as
/// BF16, first visible row, one-past-last visible row)`. Two readers
/// with equal keys score the identical K rows, so their entries fuse
/// into one tile.
type TileKey = (usize, bool, usize, usize);

/// One (sequence, kv head) pass's view of the step's shared scores:
/// its `index` row (per retained block `(r0, r1, offset)`) plus the
/// score arena the offsets point into.
pub(super) type SharedTiles<'a> = (&'a [(usize, usize, usize)], &'a [f64]);

/// The decode step's shared-block score table plus every buffer needed
/// to build it. Filled by [`DecodeBatch::build_shared_scores`] before
/// the pass fork; the panel pass consumes the slices instead of
/// re-sweeping the K panel once per reader. The struct lives on the
/// engine so capacities persist across steps — the table is rebuilt
/// every decode step, and per-step allocation (score arena, index rows)
/// plus per-entry hashing measurably outweighed the batched sweep's
/// bandwidth win before this was amortized. Lookups on both sides are
/// plain array indexing. Contents are only meaningful for the step that
/// built them (`active`).
pub(super) struct SharedScratch<T> {
    /// One entry per (reader, shared block): key
    /// `(block index, bf16, r0, r1)` identifies the physical block and
    /// visible row range, payload is `(batch slot, retained-block
    /// index)`. Sorted, so runs of equal key are tiles.
    entries: Vec<(TileKey, u32, u32)>,
    /// Row `batch_slot · kv_heads + kv_head`, indexed by retained-block
    /// index `bi`: `(r0, r1, offset)` gives the visible row range scored
    /// and the start of `group_size · (r1 − r0)` member-major score
    /// entries in `scores`. Offset [`SHARED_NONE`] (or a row too short
    /// to contain `bi`) means the block has no tile and keeps the GEMV
    /// path.
    index: Vec<Vec<(usize, usize, usize)>>,
    /// Tile arena: `used` marks this step's live prefix; the tail is
    /// stale capacity from earlier (larger) steps, never referenced
    /// because offsets in `index` stay below `used`.
    scores: Vec<f64>,
    used: usize,
    /// Whether this step produced any tiles.
    active: bool,
    /// Per-kv-head packed query panels, valid for `packed_readers` when
    /// the matching `_ok` flag is set. In the hot case every tile shares
    /// one reader set — all of a shared prefix's blocks — so packing
    /// happens once per step per head, not once per block.
    packed: Vec<Vec<T>>,
    packed_wide: Vec<Vec<f64>>,
    packed_ok: Vec<bool>,
    packed_wide_ok: Vec<bool>,
    packed_readers: Vec<u32>,
}

impl<T> Default for SharedScratch<T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            index: Vec::new(),
            scores: Vec::new(),
            used: 0,
            active: false,
            packed: Vec::new(),
            packed_wide: Vec::new(),
            packed_ok: Vec::new(),
            packed_wide_ok: Vec::new(),
            packed_readers: Vec::new(),
        }
    }
}

/// Cloning an engine (the golden-twin pattern) starts the twin with
/// cold scratch instead of duplicating up to a megabyte of step-local
/// buffers that the next decode step would overwrite anyway.
impl<T> Clone for SharedScratch<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<T> std::fmt::Debug for SharedScratch<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedScratch")
            .field("used", &self.used)
            .field("active", &self.active)
            .finish_non_exhaustive()
    }
}

impl<T> SharedScratch<T> {
    /// Pass `flat`'s (`batch_slot · kv_heads + kv_head`) view of this
    /// step's tiles, or `None` when it has none.
    pub(super) fn tiles_for(&self, flat: usize) -> Option<SharedTiles<'_>> {
        let row = self.index.get(flat)?.as_slice();
        (self.active && !row.is_empty()).then_some((row, self.scores.as_slice()))
    }
}

/// Sentinel offset marking "no shared tile for this block" in
/// [`SharedScratch::index`].
const SHARED_NONE: usize = usize::MAX;

impl<T: Scalar> DecodeBatch<T> {
    /// One fused Alg. 3 sweep for one (sequence, **kv head**) over a
    /// panel of consecutive query positions starting at `pos0`,
    /// computing scores, online-softmax state, output lanes and (when
    /// `checked`) the checksum lane for every (position, group member).
    ///
    /// `queries` packs the panel position-major, member-minor: query
    /// `j·group_size + m` is position `pos0 + j`'s sub-row for member `m`
    /// (query head `kv_head·group_size + m`), `head_dim` lanes each.
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
    /// (one physical lane, like the K/V rows). `shared` carries a decode
    /// step's shared-score row (1-position panels only): a block whose
    /// tile covers the query's exact range is read from the tile instead
    /// of being re-scored — same per-(query, row) dot kernel, same bits.
    /// Returns the unnormalized states in packing order.
    pub(super) fn panel_pass(
        &self,
        seq: usize,
        kv_head: usize,
        queries: &[T],
        pos0: usize,
        checked: bool,
        shared: Option<SharedTiles<'_>>,
    ) -> Vec<MergedAccumulator> {
        let d = self.cfg.head.head_dim();
        let gs = self.cfg.group_size();
        let scale = self.cfg.head.scale();
        let n_pos = queries.len() / (gs * d);
        debug_assert_eq!(queries.len(), n_pos * gs * d);
        debug_assert!(shared.is_none() || n_pos == 1, "tiles score one position");
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
        for (bi, blk) in self.cache.head_stream(seq, kv_head).enumerate() {
            if blk.first >= panel.positions.end {
                break;
            }
            let tile = shared.and_then(|(row, arena)| {
                let &(r0, r1, off) = row.get(bi)?;
                (off != SHARED_NONE).then(|| (r0, r1, &arena[off..off + gs * (r1 - r0)]))
            });
            let (first, rows, sumrow) = (blk.first, blk.rows, blk.sumrow);
            match blk.data {
                HeadBlockData::Native { k, v } => {
                    panel.fold_block((first, rows), v, sumrow, tile, |qi, r0, n, out| {
                        let q = &queries[qi * d..(qi + 1) * d];
                        ops::dot_then_scale_rows(q, &k[r0 * d..], d, n, scale, out);
                    })
                }
                HeadBlockData::Demoted { k, v } => {
                    if q_wide.is_empty() {
                        q_wide = queries.iter().map(|x| x.to_f64()).collect();
                    }
                    let q_wide = &q_wide;
                    panel.fold_block((first, rows), v, sumrow, tile, |qi, r0, n, out| {
                        let q = &q_wide[qi * d..(qi + 1) * d];
                        ops::dot_then_scale_rows_bf16(q, &k[r0 * d..], d, n, scale, out);
                    })
                }
            }
        }
        panel.states
    }

    /// Builds the decode step's shared-block score table: for every
    /// physical block read by **two or more** of the stepping sequences
    /// at the same visible row range, all readers' per-member score
    /// rows are computed in one K-panel sweep
    /// ([`ops::dot_then_scale_rows_multi_into`] — 16-row tiles outer,
    /// queries inner, so each K row is loaded from DRAM once and reused
    /// L1-hot across all `k · group_size` queries: the
    /// (k·gs × d)·(dᵀ × rows) matmul realized with the same block scorer
    /// the GEMV path uses, hence bit-identical scores). Returns the number of tiles built;
    /// leaves `s.active` false when sharing is off or no block qualifies.
    ///
    /// The table is rebuilt every step, so the builder stays strictly
    /// O(readers · blocks) with no hashing and (in steady state) no
    /// allocation: reader×block pairs are sort-grouped by (physical
    /// block, range) in the scratch's persistent buffers, tiles land
    /// directly in the score arena, and the packed query panel —
    /// identical for every tile with the same reader set, i.e. all of a
    /// shared prefix's blocks — is reused across tiles instead of
    /// repacked per block (at `k = 32` readers that repacking alone
    /// outweighed the batched sweep's saving, and per-step
    /// allocation + hashing cost as much as the k-GEMV work replaced).
    pub(super) fn build_shared_scores(
        &self,
        seq_ids: &[usize],
        qs: &Matrix<T>,
        s: &mut SharedScratch<T>,
    ) -> u64 {
        let mut tiles = 0;
        s.used = 0;
        s.active = false;
        if !self.shared_scoring {
            return 0;
        }
        let kv = self.cfg.kv_heads;
        let gs = self.cfg.group_size();
        let d = self.cfg.head.head_dim();
        let scale = self.cfg.head.scale();
        let block_rows = self.cache.block_rows();
        // Reset the step-local views: index rows empty (capacity kept),
        // packed panels invalid (queries change every step).
        for row in s.index.iter_mut() {
            row.clear();
        }
        if s.index.len() < seq_ids.len() * kv {
            s.index.resize_with(seq_ids.len() * kv, Vec::new);
        }
        if s.packed.len() < kv {
            s.packed.resize_with(kv, Vec::new);
            s.packed_wide.resize_with(kv, Vec::new);
            s.packed_ok.resize(kv, false);
            s.packed_wide_ok.resize(kv, false);
        }
        s.packed_readers.clear();
        // One entry per (reader, shared block): key = (physical block,
        // visible range), payload = (batch slot, retained-block index).
        // Readers at different ranges (sliding windows cutting a block
        // differently) keep the GEMV path — correctness first, the
        // prefix-sharing hot case (retain-all decode: every reader sees
        // the full block) always batches.
        s.entries.clear();
        for (i, &seq) in seq_ids.iter().enumerate() {
            let blocks = self.cache.seq_blocks(seq);
            if !blocks.iter().any(|&b| self.cache.block_ref_count(b) > 1) {
                continue;
            }
            let start = self.cache.first_retained(seq);
            let last_pos = self.cache.seq_len(seq) - 1;
            let lo = match self.mask_window {
                Some(w) => (last_pos + 1).saturating_sub(w),
                None => 0,
            };
            for (bi, &blk) in blocks.iter().enumerate() {
                if self.cache.block_ref_count(blk) < 2 {
                    continue;
                }
                let first = start + bi * block_rows;
                if first > last_pos {
                    break;
                }
                let rows = (last_pos + 1 - first).min(block_rows);
                let r1 = rows;
                let r0 = lo.saturating_sub(first).min(r1);
                if r0 == r1 {
                    continue;
                }
                s.entries
                    .push(((blk.index, blk.bf16, r0, r1), i as u32, bi as u32));
            }
        }
        if s.entries.is_empty() {
            return 0;
        }
        // Runs of equal key are tiles; within a run readers stay in
        // batch order, which is also the qbuf packing order below.
        s.entries.sort_unstable();
        let mut run = 0;
        while run < s.entries.len() {
            let key = s.entries[run].0;
            let mut end = run + 1;
            while end < s.entries.len() && s.entries[end].0 == key {
                end += 1;
            }
            let span = run..end;
            run = end;
            if span.len() < 2 {
                continue;
            }
            let readers_match = s.packed_readers.len() == span.len()
                && s.packed_readers
                    .iter()
                    .zip(&s.entries[span.clone()])
                    .all(|(&p, &(_, i, _))| p == i);
            if !readers_match {
                s.packed_readers.clear();
                let (head, tail) = (&mut s.packed_readers, &s.entries[span.clone()]);
                head.extend(tail.iter().map(|&(_, i, _)| i));
                s.packed_ok.iter_mut().for_each(|v| *v = false);
                s.packed_wide_ok.iter_mut().for_each(|v| *v = false);
            }
            let (_, bf16, r0, r1) = key;
            let rows = r1 - r0;
            // One representative reader locates the panel; all readers
            // share the physical storage by construction.
            let (_, i0, bi0) = s.entries[span.start];
            let seq0 = seq_ids[i0 as usize];
            for g in 0..kv {
                let cols = self.cfg.group_q_cols(g);
                let hb = self.cache.head_block(seq0, bi0 as usize, g);
                let base = s.used;
                s.used += span.len() * gs * rows;
                // Grow-only arena: new capacity is zero-filled once,
                // then every slot of the step's live prefix is
                // overwritten by the sweeps below — later steps reuse
                // the allocation with no memset.
                if s.scores.len() < s.used {
                    s.scores.resize(s.used, 0.0);
                }
                match hb.data {
                    HeadBlockData::Native { k, .. } => {
                        if !s.packed_ok[g] {
                            s.packed[g].clear();
                            for &(_, i, _) in &s.entries[span.clone()] {
                                s.packed[g].extend_from_slice(&qs.row(i as usize)[cols.clone()]);
                            }
                            s.packed_ok[g] = true;
                        }
                        ops::dot_then_scale_rows_multi_into(
                            &s.packed[g],
                            d,
                            &k[r0 * d..],
                            d,
                            rows,
                            scale,
                            &mut s.scores[base..s.used],
                        );
                    }
                    HeadBlockData::Demoted { k, .. } => {
                        if !s.packed_wide_ok[g] {
                            s.packed_wide[g].clear();
                            for &(_, i, _) in &s.entries[span.clone()] {
                                s.packed_wide[g].extend(
                                    qs.row(i as usize)[cols.clone()].iter().map(|x| x.to_f64()),
                                );
                            }
                            s.packed_wide_ok[g] = true;
                        }
                        ops::dot_then_scale_rows_multi_bf16_into(
                            &s.packed_wide[g],
                            d,
                            &k[r0 * d..],
                            d,
                            rows,
                            scale,
                            &mut s.scores[base..s.used],
                        );
                    }
                }
                debug_assert!(bf16 == matches!(hb.data, HeadBlockData::Demoted { .. }));
                for (j, &(_, i, bi)) in s.entries[span.clone()].iter().enumerate() {
                    let row = &mut s.index[i as usize * kv + g];
                    let bi = bi as usize;
                    if row.len() <= bi {
                        row.resize(bi + 1, (0, 0, SHARED_NONE));
                    }
                    row[bi] = (r0, r1, base + j * gs * rows);
                }
                tiles += 1;
            }
        }
        s.active = tiles > 0;
        tiles
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
    /// the shared `tile` when its range matches, else from
    /// `score(query, r0, rows, out)`, and fold through the query's
    /// accumulator with the block's values `v` and (when checked) its
    /// checksum lanes `sumrow`.
    fn fold_block<V: Scalar>(
        &mut self,
        (first, rows): (usize, usize),
        v: &[V],
        sumrow: &[f64],
        tile: Option<(usize, usize, &[f64])>,
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
                let member_scores: &[f64] = match tile {
                    Some((t0, t1, t)) if (t0, t1) == (r0, r1) => &t[m * n..(m + 1) * n],
                    _ => {
                        score(qi, r0, n, &mut self.scores);
                        &self.scores
                    }
                };
                let acc = &mut self.states[qi];
                let d = acc.dim();
                let sumrow = self.checked.then(|| &sumrow[r0..r1]);
                acc.fold(member_scores, &v[r0 * d..r1 * d], sumrow);
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

/// Packs columns `cols` of rows `rows` of `m` position-major — a panel's
/// query layout (a kv group's query heads are contiguous in a packed Q
/// row, so `cols` is the group's `HeadTopology::group_q_cols`).
pub(super) fn pack_panel<T: Scalar>(
    m: &Matrix<T>,
    rows: Range<usize>,
    cols: Range<usize>,
) -> Vec<T> {
    let mut out = Vec::with_capacity(rows.len() * cols.len());
    for r in rows {
        out.extend_from_slice(&m.row(r)[cols.clone()]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
    use super::pack_panel;
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
                        b.append_token_anchored(seq, k.row(i), v.row(i), i.min(14));
                    }
                    if format != KvFormat::F64 {
                        assert!(b.cache().seq_blocks(seq).iter().any(|blk| blk.bf16));
                    }
                    let q = rand(n, topo.q_dim(), 3);
                    let gs = topo.group_size();
                    for (pos0, n_pos) in [(14, 9), (15, 3), (17, 6), (19, 4), (22, 1)] {
                        for g in 0..topo.kv_heads {
                            let cols = topo.group_q_cols(g);
                            let rows = pos0..pos0 + n_pos;
                            let panel = pack_panel(&q, rows, cols.clone());
                            let states = b.panel_pass(seq, g, &panel, pos0, true, None);
                            assert_eq!(states.len(), n_pos * gs, "{what}");
                            for j in 0..n_pos {
                                let p = pos0 + j;
                                let one = pack_panel(&q, p..p + 1, cols.clone());
                                let single = b.panel_pass(seq, g, &one, p, true, None);
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
