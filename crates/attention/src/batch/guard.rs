//! Live fault injection, block-granular localization, and recovery for
//! the serving engine — the paper's detect-and-recover story promoted
//! from one-shot kernels to the continuous-batching stack.
//!
//! The online checksum lane gives [`DecodeBatch`] a *sequence-level*
//! verdict ([`DecodeBatch::global_residual`]): a corrupted step pushes
//! `predicted − actual` out of tolerance, but says nothing about *where*
//! the poison lives. This module adds the three missing pieces:
//!
//! * **Injection** — [`flip_storage_bit`](DecodeBatch::flip_storage_bit)
//!   / [`flip_sumrow_bit`](DecodeBatch::flip_sumrow_bit) /
//!   [`flip_total_bit`](DecodeBatch::flip_total_bit) flip single bits in
//!   a *live* engine's K/V block storage (native f64 or demoted BF16
//!   rows), its blocks' `sumrow(V)` checksum lanes, and its running
//!   verdict accumulator — each a distinct detection story (see below).
//! * **Localization** — [`audit`](DecodeBatch::audit) walks the
//!   per-(sequence, kv head, block) [`BlockCheck`]
//!   reference structure, comparing stored references against a fresh
//!   recompute **bitwise** (the folds share one summation order, so a
//!   clean block matches exactly), and pins each fault as a
//!   [`LocalizedFault`] instead of just failing the sequence verdict.
//! * **Recovery** — with the opt-in
//!   [`enable_recovery_log`](DecodeBatch::enable_recovery_log), the
//!   engine retains each sequence's original rows;
//!   [`recover_block`](DecodeBatch::recover_block) rewrites **only the
//!   poisoned block** from the log, in place in the block's arena (the
//!   native or the BF16 one; see `batch/arena.rs`) through the append
//!   path's row scatter, so restored bits equal the never-corrupted bits
//!   exactly — rebuilds its reference checksum and `sumrow` lanes, and
//!   [`clear_verdict`](DecodeBatch::clear_verdict) opens a fresh verdict
//!   epoch — decode resumes **bit-identical** to an uninjected run
//!   (property-tested across formats, eviction policies, and GQA group
//!   sizes).
//!
//! # Detection stories by site
//!
//! | site | online residual | audit |
//! |---|---|---|
//! | V storage | alarms (prediction uses clean `sumrow`s, outputs use corrupted rows) | value-side [`LocalizedFault::CorruptBlock`] |
//! | K storage | **coherent** — corrupted scores weight output lanes *and* checksum lane identically, so the residual stays small while outputs diverge | key-side [`LocalizedFault::CorruptBlock`] (the periodic scrub is the only lane that sees it) |
//! | `sumrow` lane | alarms (prediction corrupted, outputs clean — the checker-site false-positive story); a lane of a shared prefix block is one cell, so every reader alarms | [`LocalizedFault::CorruptSumrow`] |
//! | totals | session verdict alarms, outputs untouched | [`LocalizedFault::CorruptTotals`] |
//!
//! One honest caveat the live campaign measures: under
//! [`KvFormat::Mixed`](super::KvFormat::Mixed), demotion *launders*
//! storage corruption — the demote path recomputes the block's reference
//! and `sumrow` lanes from the (corrupted) stored rows, after which both
//! agree with the poison. Corruption must be audited before the
//! block ages out of the burst.

use super::{BlockCheck, DecodeBatch};
use fa_numerics::BF16;
use fa_tensor::Scalar;

/// One sequence's fused verdict over a resolved speculative window
/// (see [`super::spec`]): the accepted-prefix checksum totals, produced
/// by [`DecodeBatch::resolve_speculation`]. Covers exactly the tokens
/// that were committed — rejected tail tokens were scored (their budget
/// was spent) but their checksum pairs were rolled back with their
/// appends, so they never touch the session verdict.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowVerdict {
    /// The windowed sequence id.
    pub seq: usize,
    /// Tokens committed from the window (the accepted prefix length).
    pub accepted: usize,
    /// Sum of the accepted tokens' predicted checksums.
    pub predicted: f64,
    /// Sum of the accepted tokens' actual checksums.
    pub actual: f64,
}

impl WindowVerdict {
    /// `predicted − actual` over the accepted prefix — the window-level
    /// analogue of [`DecodeStepOutput::residual`](super::DecodeStepOutput::residual).
    pub fn residual(&self) -> f64 {
        self.predicted - self.actual
    }
}

impl<T: Scalar> DecodeBatch<T> {
    /// Post-rollback integrity sweep: recomputes every retained block's
    /// reference checksum from its stored rows and every retained
    /// position's `sumrow(V)` lanes from its stored value row, and
    /// compares both against the stored ones **bitwise**.
    /// After [`resolve_speculation`](Self::resolve_speculation) rewinds
    /// rejected speculative appends this must hold for every windowed
    /// sequence — the check-rewind half of the rollback contract (the
    /// other half, bit-identical replay of the accepted prefix, is
    /// property-tested against a non-speculative twin).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn rewind_checks_clean(&self, seq: usize) -> bool {
        let kv = self.cfg.kv_heads;
        let br = self.cache.block_rows();
        let start = self.cache.first_retained(seq);
        let len = self.cache.seq_len(seq);
        let state = &self.cache.seqs[seq];
        for (bi, &blk) in state.blocks.iter().enumerate() {
            let first = start + bi * br;
            let rows = (len - first).min(br);
            let fresh = self.cache.recompute_block_check(blk, rows);
            let stored = &state.checks[bi];
            for g in 0..kv {
                if fresh.ksum[g].to_bits() != stored.ksum[g].to_bits()
                    || fresh.vsum[g].to_bits() != stored.vsum[g].to_bits()
                {
                    return false;
                }
            }
        }
        (start..len).all(|p| {
            (0..kv).all(|g| {
                let (stored, fresh) = self.cache.sumrow(seq, p, g);
                stored.to_bits() == fresh.to_bits()
            })
        })
    }
}

/// Which live engine state a campaign injection targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InjectionSite {
    /// A stored key lane of a retained cache block.
    Key,
    /// A stored value lane of a retained cache block.
    Value,
    /// A block's `sumrow(V)` checksum lane (checker state).
    Sumrow,
    /// The running (predicted, actual) verdict accumulator (checker
    /// state).
    Accumulator,
}

impl InjectionSite {
    /// Whether the site is checker storage (its corruption can raise an
    /// alarm without corrupting any output) — the site-attribution bit
    /// `fa_fault` classification consumes.
    pub fn is_checker(self) -> bool {
        matches!(self, InjectionSite::Sumrow | InjectionSite::Accumulator)
    }

    /// All injection sites, in campaign sweep order.
    pub const ALL: [InjectionSite; 4] = [
        InjectionSite::Key,
        InjectionSite::Value,
        InjectionSite::Sumrow,
        InjectionSite::Accumulator,
    ];
}

/// A fault pinned by [`DecodeBatch::audit`]: which structure is
/// poisoned, and exactly where.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LocalizedFault {
    /// One (block, kv head)'s stored rows disagree with the block's
    /// reference checksum — storage corruption, recoverable by
    /// [`DecodeBatch::recover_block`].
    CorruptBlock {
        /// Index into [`KvCache::seq_blocks`](super::KvCache::seq_blocks)
        /// (retained blocks, position order).
        block: usize,
        /// The kv head whose reference mismatched.
        kv_head: usize,
        /// Logical position of the block's first row.
        first: usize,
        /// Valid rows in the block.
        rows: usize,
        /// `true` when the key-side reference mismatched, `false` for
        /// the value side.
        key_side: bool,
    },
    /// A stored `sumrow` lane disagrees with the (clean) stored value
    /// row — checker-input corruption, recoverable by
    /// [`DecodeBatch::repair_sumrow`].
    CorruptSumrow {
        /// The corrupted position.
        pos: usize,
        /// The corrupted kv head's stream.
        kv_head: usize,
    },
    /// Block and `sumrow` structure are clean but the session verdict is
    /// out of tolerance — accumulator corruption (or the trace of steps
    /// decoded against since-laundered poison), cleared by
    /// [`DecodeBatch::clear_verdict`].
    CorruptTotals {
        /// The out-of-tolerance `global_residual`.
        residual: f64,
    },
}

/// A corrupt site pinned by the audit — [`DecodeBatch::audit`] and
/// [`DecodeBatch::scrub_step`](DecodeBatch::scrub_step) return **every**
/// site they can localize (a multi-fault burst yields one entry per
/// poisoned (block, kv head, side) / `sumrow` cell), and
/// [`DecodeBatch::repair`] fixes them all in one pass.
pub type CorruptSite = LocalizedFault;

/// What one [`DecodeBatch::repair`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Distinct blocks rewritten from the recovery log.
    pub blocks_recovered: usize,
    /// Rows rewritten across those blocks (the block-granular recovery
    /// cost — compare against recomputing the whole sequence).
    pub rows_rewritten: usize,
    /// `sumrow` lanes recomputed from clean storage.
    pub sumrows_repaired: usize,
    /// Distinct corrupt blocks the log could **not** restore (its rows
    /// were truncated past them, or the log is disabled) — the signal
    /// that the sequence needs [`DecodeBatch::quarantine`] instead.
    pub blocks_unrecoverable: usize,
}

/// Bit-level injection and block-granular audit/recovery are defined on
/// the f64 serving engine (bit flips are format-specific; the f64 engine
/// is the one the serving stack and benches run, with BF16 storage
/// reached through the cache's format policy).
impl DecodeBatch<f64> {
    /// Starts retaining every appended row (prompt and decode) for
    /// block-granular recovery. Must be called before any sequence
    /// caches rows, so the log covers position 0 upward.
    ///
    /// # Panics
    ///
    /// Panics if a live sequence already holds cached rows.
    pub fn enable_recovery_log(&mut self) {
        assert!(
            self.cache
                .seqs
                .iter()
                .all(|s| s.retired || (s.len == 0 && s.blocks.is_empty())),
            "enable the recovery log before caching any rows"
        );
        self.recovery_log = true;
    }

    /// Whether position `pos` of sequence `seq` is stored in a BF16
    /// block (16 flippable bits per lane) rather than a native one (64)
    /// — injection campaigns pick their bit range by this.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired, or `pos` is out of
    /// range or evicted.
    pub fn storage_is_bf16(&self, seq: usize, pos: usize) -> bool {
        self.cache.block_of(seq, pos).0.bf16
    }

    /// Flips one bit of the stored K (`key_side`) or V lane
    /// `(seq, pos, kv_head, lane)` — in the native arena as an f64 bit
    /// (`bit % 64`), in the BF16 arena as a raw BF16 bit (`bit % 16`).
    /// Returns whether the hit block was BF16.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired, `pos` is out of range
    /// or evicted, or `kv_head`/`lane` is out of range.
    pub fn flip_storage_bit(
        &mut self,
        seq: usize,
        pos: usize,
        kv_head: usize,
        lane: usize,
        key_side: bool,
        bit: u32,
    ) -> bool {
        let cache = &mut self.cache;
        assert!(kv_head < cache.heads, "kv head out of range");
        assert!(lane < cache.head_dim, "lane out of range");
        let (blk, r) = cache.block_of(seq, pos);
        if blk.bf16 {
            let x = cache
                .bf16
                .element_mut(key_side, blk.index, r, kv_head, lane);
            *x = BF16::from_bits(x.to_bits() ^ (1 << (bit % 16)));
        } else {
            let x = cache
                .native
                .element_mut(key_side, blk.index, r, kv_head, lane);
            *x = f64::from_bits(x.to_bits() ^ (1u64 << (bit % 64)));
        }
        blk.bf16
    }

    /// Flips one f64 bit of the stored `sumrow` checksum lane of
    /// `(seq, pos, kv_head)`. The lane lives in the block holding the
    /// row, so a flip inside a shared prefix block hits every reader.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired, `pos` is out of range
    /// or evicted, or `kv_head` is out of range.
    pub fn flip_sumrow_bit(&mut self, seq: usize, pos: usize, kv_head: usize, bit: u32) {
        let cell = self.cache.sumrow_mut(seq, pos, kv_head);
        *cell = f64::from_bits(cell.to_bits() ^ (1u64 << (bit % 64)));
    }

    /// Flips one f64 bit of the running verdict accumulator — the
    /// predicted total when `predicted_side`, the actual total
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn flip_total_bit(&mut self, seq: usize, predicted_side: bool, bit: u32) {
        let totals = &mut self.seqs[seq].totals;
        let cell = if predicted_side {
            &mut totals.0
        } else {
            &mut totals.1
        };
        *cell = f64::from_bits(cell.to_bits() ^ (1u64 << (bit % 64)));
    }

    /// Walks sequence `seq`'s checksum structure and pins every fault it
    /// can localize:
    ///
    /// 1. per retained (block, kv head): the stored
    ///    [`BlockCheck`] reference vs a fresh
    ///    recompute, compared **bitwise** (one shared fold order makes a
    ///    clean block an exact match) — mismatches become
    ///    [`LocalizedFault::CorruptBlock`];
    /// 2. per retained (position, kv head): the stored `sumrow` lane vs
    ///    its recompute from the stored value row, bitwise — skipping
    ///    positions inside value-corrupted blocks (there the *storage*
    ///    is the liar and the stored `sumrow` the witness) — mismatches
    ///    become [`LocalizedFault::CorruptSumrow`];
    /// 3. only when the structure is clean: a NaN-safe tolerance check
    ///    of [`global_residual`](DecodeBatch::global_residual)
    ///    (`!(|residual| ≤ tol)`, so a NaN-poisoned verdict alarms)
    ///    becomes [`LocalizedFault::CorruptTotals`].
    ///
    /// An empty result means structure and verdict are consistent.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn audit(&self, seq: usize, tol: f64) -> Vec<LocalizedFault> {
        let kv = self.cfg.kv_heads;
        let cache = &self.cache;
        let state = cache.live(seq);
        let mut faults = Vec::new();
        let mut value_bad = vec![false; state.blocks.len()];
        for (bi, (&blk, check)) in state.blocks.iter().zip(&state.checks).enumerate() {
            let first = state.start + bi * cache.block_rows;
            let rows = (state.len - first).min(cache.block_rows);
            let recomputed = cache.recompute_block_check(blk, rows);
            for g in 0..kv {
                if recomputed.ksum[g].to_bits() != check.ksum[g].to_bits() {
                    faults.push(LocalizedFault::CorruptBlock {
                        block: bi,
                        kv_head: g,
                        first,
                        rows,
                        key_side: true,
                    });
                }
                if recomputed.vsum[g].to_bits() != check.vsum[g].to_bits() {
                    value_bad[bi] = true;
                    faults.push(LocalizedFault::CorruptBlock {
                        block: bi,
                        kv_head: g,
                        first,
                        rows,
                        key_side: false,
                    });
                }
            }
        }
        for p in state.start..state.len {
            if value_bad[(p - state.start) / cache.block_rows] {
                continue;
            }
            for g in 0..kv {
                let (stored, fresh) = cache.sumrow(seq, p, g);
                if stored.to_bits() != fresh.to_bits() {
                    faults.push(LocalizedFault::CorruptSumrow { pos: p, kv_head: g });
                }
            }
        }
        if faults.is_empty() {
            let residual = self.global_residual(seq);
            // NaN-safe alarm form: a poisoned residual must not pass.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(residual.abs() <= tol) {
                faults.push(LocalizedFault::CorruptTotals { residual });
            }
        }
        faults
    }

    /// [`audit`](Self::audit) over every live sequence — the periodic
    /// scrub a serving loop runs to catch residual-coherent corruption
    /// (key-side flips) the online verdict is blind to. Returns only
    /// sequences with findings.
    pub fn audit_all(&self, tol: f64) -> Vec<(usize, Vec<LocalizedFault>)> {
        (0..self.num_sequences())
            .filter(|&s| !self.is_retired(s))
            .filter_map(|s| {
                let faults = self.audit(s, tol);
                (!faults.is_empty()).then_some((s, faults))
            })
            .collect()
    }

    /// Rewrites retained block `block` of sequence `seq` from the
    /// recovery log — **only this block** — through the same row scatter
    /// appends use, into the arena that stores the block (native rows are
    /// copied back exactly; BF16 rows re-round through
    /// [`round_bf16`](super::round_bf16), reproducing the never-corrupted
    /// stored bits exactly), refolding the block's reference checksum and
    /// `sumrow` lanes from the restored storage row by row. Returns the
    /// number of rows rewritten (the recovery cost).
    ///
    /// # Panics
    ///
    /// Panics if the recovery log is not enabled, `seq` is out of range
    /// or retired, or `block` is out of range.
    pub fn recover_block(&mut self, seq: usize, block: usize) -> usize {
        assert!(
            self.recovery_log,
            "block recovery requires the recovery log (enable_recovery_log)"
        );
        let cache = &mut self.cache;
        let state = &cache.seqs[seq];
        assert!(!state.retired, "sequence {seq} is retired");
        assert!(
            block < state.blocks.len(),
            "block {block} out of {} retained",
            state.blocks.len()
        );
        let first = state.start + block * cache.block_rows;
        let rows = (state.len - first).min(cache.block_rows);
        let width = cache.width;
        let log = &self.seqs[seq];
        assert!(
            log.log_start <= first,
            "block {block}'s log rows were truncated (log starts at {}, block at {first}); \
             quarantine the sequence instead",
            log.log_start
        );
        cache.seqs[seq].checks[block] = BlockCheck::zeroed(cache.heads);
        for r in 0..rows {
            let at = (first + r - log.log_start) * width;
            let (k, v) = (&log.log_k[at..at + width], &log.log_v[at..at + width]);
            cache.write_row(seq, block, r, k, v);
        }
        rows
    }

    /// Whether retained block `block` of sequence `seq` can be restored
    /// from the recovery log: the log is enabled and its retained rows
    /// still cover the block's positions (budget truncation drops leading
    /// rows only after a scrub verdict or eviction, so a freshly-corrupt
    /// block normally stays covered — but a flip discovered in a
    /// *previously verified, since-truncated* block is unrecoverable and
    /// needs [`DecodeBatch::quarantine`]).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired, or `block` is out of
    /// range.
    pub fn block_recoverable(&self, seq: usize, block: usize) -> bool {
        let state = self.cache.live(seq);
        assert!(
            block < state.blocks.len(),
            "block {block} out of {} retained",
            state.blocks.len()
        );
        let first = state.start + block * self.cache.block_rows;
        self.recovery_log && self.seqs[seq].log_start <= first
    }

    /// Recomputes one `sumrow` checksum lane from the (clean) stored
    /// value row — the repair for [`LocalizedFault::CorruptSumrow`]. A
    /// lane of a shared prefix block is repaired once for every reader.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired, `pos` is out of range
    /// or evicted, or `kv_head` is out of range.
    pub fn repair_sumrow(&mut self, seq: usize, pos: usize, kv_head: usize) {
        let (_, fresh) = self.cache.sumrow(seq, pos, kv_head);
        *self.cache.sumrow_mut(seq, pos, kv_head) = fresh;
    }

    /// Resets sequence `seq`'s running (predicted, actual) verdict
    /// totals, opening a fresh verdict epoch — the repair for
    /// [`LocalizedFault::CorruptTotals`], and the final step of every
    /// [`repair`](Self::repair): steps decoded against poisoned state
    /// left their residual in the totals, and the totals never feed
    /// outputs, so the reset does not perturb decode. Per-step verdicts
    /// for the pre-repair epoch were already delivered per step.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn clear_verdict(&mut self, seq: usize) {
        self.seqs[seq].totals = (0.0, 0.0);
    }

    /// Applies the matching repair to every audited fault — block
    /// recovery for [`LocalizedFault::CorruptBlock`] (each distinct
    /// block once), `sumrow` recomputation for
    /// [`LocalizedFault::CorruptSumrow`] — then opens a fresh verdict
    /// epoch via [`clear_verdict`](Self::clear_verdict). After a repair,
    /// [`audit`](Self::audit) is clean and subsequent decode is
    /// bit-identical to a never-injected engine (property-tested).
    ///
    /// Corrupt blocks the log no longer covers (disabled, or truncated
    /// past them by the row budget) are *not* repairable in place: they
    /// are skipped and counted in
    /// [`blocks_unrecoverable`](RepairReport::blocks_unrecoverable),
    /// signalling the caller to [`quarantine`](Self::quarantine) the
    /// sequence instead.
    ///
    /// Repairs write into the *physical* block and its lanes, so a block
    /// shared through the prefix registry repairs **exactly once for all
    /// readers**: a poisoned shared block or lane alarms every reader's
    /// audit, one repair through any single reader restores it, and
    /// every other reader's next audit is clean (property-tested). Repair
    /// never triggers copy-on-write — the restored bits are the bits
    /// every reader expects, unlike a demotion's rounding.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn repair(&mut self, seq: usize, faults: &[LocalizedFault]) -> RepairReport {
        let mut report = RepairReport::default();
        let mut recovered: Vec<usize> = Vec::new();
        for fault in faults {
            match *fault {
                LocalizedFault::CorruptBlock { block, .. } => {
                    if !recovered.contains(&block) {
                        recovered.push(block);
                        if self.block_recoverable(seq, block) {
                            report.rows_rewritten += self.recover_block(seq, block);
                            report.blocks_recovered += 1;
                        } else {
                            report.blocks_unrecoverable += 1;
                        }
                    }
                }
                LocalizedFault::CorruptSumrow { pos, kv_head } => {
                    self.repair_sumrow(seq, pos, kv_head);
                    report.sumrows_repaired += 1;
                }
                LocalizedFault::CorruptTotals { .. } => {}
            }
        }
        self.clear_verdict(seq);
        report
    }

    /// One-call verdict absorption for a serving frontend:
    /// [`audit`](Self::audit)s `seq` and [`repair`](Self::repair)s
    /// everything repairable in place. The caller inspects the returned
    /// report — a nonzero
    /// [`blocks_unrecoverable`](RepairReport::blocks_unrecoverable) is
    /// the signal to escalate to [`quarantine`](Self::quarantine) +
    /// resubmit (evict-and-requeue with recompute-on-resume); a clean
    /// report means the sequence keeps decoding bit-identical to a
    /// never-corrupted twin.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn audit_and_repair(&mut self, seq: usize, tol: f64) -> RepairReport {
        let faults = self.audit(seq, tol);
        self.repair(seq, &faults)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
    use super::*;
    use crate::topology::HeadTopology;
    use crate::AttentionConfig;
    use fa_tensor::{random::ElementDist, Matrix};

    const TOL: f64 = 1e-6;

    fn rand(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        Matrix::random_seeded(rows, cols, ElementDist::default(), seed)
    }

    fn mha(heads: usize, d: usize) -> HeadTopology {
        HeadTopology::mha(heads, AttentionConfig::new(d))
    }

    /// A pair of identical engines (subject with recovery log, golden
    /// without), fed the same prompts and decoded `steps` tokens in
    /// lockstep (bit-identity asserted along the way).
    fn lockstep_pair(
        format: KvFormat,
        eviction: EvictionPolicy,
        topo: HeadTopology,
        prefill: usize,
        steps: usize,
    ) -> (DecodeBatch<f64>, DecodeBatch<f64>, Vec<usize>) {
        let mk = || DecodeBatch::<f64>::with_policy(topo, 4, KvLayout::HeadMajor, format, eviction);
        let mut subject = mk();
        subject.enable_recovery_log();
        let mut golden = mk();
        let batch = 2;
        let ids: Vec<usize> = (0..batch).map(|_| subject.add_sequence()).collect();
        for _ in 0..batch {
            golden.add_sequence();
        }
        for (i, &id) in ids.iter().enumerate() {
            let k = rand(prefill, topo.kv_dim(), 1000 + i as u64);
            let v = rand(prefill, topo.kv_dim(), 2000 + i as u64);
            subject.prefill(id, &k, &v);
            golden.prefill(id, &k, &v);
        }
        decode_lockstep(&mut subject, &mut golden, &ids, 0, steps, true);
        (subject, golden, ids)
    }

    /// Decodes `steps` tokens on both engines with identical traffic;
    /// when `expect_identical`, asserts bitwise-equal outputs.
    fn decode_lockstep(
        subject: &mut DecodeBatch<f64>,
        golden: &mut DecodeBatch<f64>,
        ids: &[usize],
        t0: usize,
        steps: usize,
        expect_identical: bool,
    ) {
        let topo = *subject.config();
        for t in t0..t0 + steps {
            let qs = rand(ids.len(), topo.q_dim(), 5000 + t as u64);
            let ks = rand(ids.len(), topo.kv_dim(), 6000 + t as u64);
            let vs = rand(ids.len(), topo.kv_dim(), 7000 + t as u64);
            let a = subject.step_decode(ids, &qs, &ks, &vs);
            let b = golden.step_decode(ids, &qs, &ks, &vs);
            if expect_identical {
                for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                    for (c, (xa, ya)) in x.output.iter().zip(&y.output).enumerate() {
                        assert_eq!(xa.to_bits(), ya.to_bits(), "step {t} seq {i} lane {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn fault_free_engines_audit_clean() {
        for format in [
            KvFormat::F64,
            KvFormat::Bf16,
            KvFormat::Mixed { burst_blocks: 1 },
        ] {
            for eviction in [
                EvictionPolicy::RetainAll,
                EvictionPolicy::SlidingWindow { window_blocks: 2 },
            ] {
                let (subject, _, ids) = lockstep_pair(format, eviction, mha(2, 4), 10, 6);
                for &id in &ids {
                    assert!(
                        subject.audit(id, TOL).is_empty(),
                        "{format:?}/{eviction:?} clean engine must audit clean"
                    );
                }
                assert!(subject.audit_all(TOL).is_empty());
            }
        }
    }

    #[test]
    fn value_flip_alarms_online_and_localizes() {
        let (mut subject, mut golden, ids) =
            lockstep_pair(KvFormat::F64, EvictionPolicy::RetainAll, mha(2, 4), 10, 3);
        let seq = ids[0];
        let topo = *subject.config();
        subject.flip_storage_bit(seq, 5, 1, 2, false, 60);
        // The next checked step predicts from clean sumrows but streams
        // the corrupted V row: the online residual alarms while the
        // golden engine's stays clean.
        let qs = rand(ids.len(), topo.q_dim(), 81);
        let ks = rand(ids.len(), topo.kv_dim(), 82);
        let vs = rand(ids.len(), topo.kv_dim(), 83);
        let out = subject.step_decode(&ids, &qs, &ks, &vs);
        let gold = golden.step_decode(&ids, &qs, &ks, &vs);
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        {
            assert!(
                !(out[0].residual().abs() <= TOL),
                "V-storage flip must fail the per-step residual: {}",
                out[0].residual()
            );
        }
        assert!(gold[0].residual().abs() <= TOL);
        assert!(
            out[0]
                .output
                .iter()
                .zip(&gold[0].output)
                .any(|(a, b)| a.to_bits() != b.to_bits()),
            "corrupted values must corrupt the output"
        );
        // Pos 5 lives in block 1 (block_rows = 4); the audit pins it.
        let faults = subject.audit(seq, TOL);
        assert!(
            faults.iter().any(|f| matches!(
                f,
                LocalizedFault::CorruptBlock {
                    block: 1,
                    kv_head: 1,
                    key_side: false,
                    ..
                }
            )),
            "audit pins the value-side block: {faults:?}"
        );
    }

    #[test]
    fn key_flip_is_residual_coherent_but_audited() {
        let (mut subject, mut golden, ids) =
            lockstep_pair(KvFormat::F64, EvictionPolicy::RetainAll, mha(2, 4), 10, 3);
        let seq = ids[0];
        let topo = *subject.config();
        subject.flip_storage_bit(seq, 4, 0, 1, true, 58);
        // Corrupted keys corrupt the scores; the corrupted weights hit
        // output lanes and checksum lane identically, so the online
        // residual stays in tolerance while outputs diverge.
        let qs = rand(ids.len(), topo.q_dim(), 91);
        let ks = rand(ids.len(), topo.kv_dim(), 92);
        let vs = rand(ids.len(), topo.kv_dim(), 93);
        let out = subject.step_decode(&ids, &qs, &ks, &vs);
        let gold = golden.step_decode(&ids, &qs, &ks, &vs);
        assert!(
            out[0].residual().abs() <= TOL,
            "K flips are residual-coherent: {}",
            out[0].residual()
        );
        assert!(
            out[0]
                .output
                .iter()
                .zip(&gold[0].output)
                .any(|(a, b)| a.to_bits() != b.to_bits()),
            "corrupted keys must corrupt the output"
        );
        // The scrub is the lane that sees it.
        let faults = subject.audit(seq, TOL);
        assert!(
            faults.iter().any(|f| matches!(
                f,
                LocalizedFault::CorruptBlock {
                    block: 1,
                    kv_head: 0,
                    key_side: true,
                    ..
                }
            )),
            "audit pins the key-side block: {faults:?}"
        );
    }

    #[test]
    fn sumrow_flip_is_checker_site_story() {
        let (mut subject, mut golden, ids) =
            lockstep_pair(KvFormat::F64, EvictionPolicy::RetainAll, mha(2, 4), 10, 3);
        let seq = ids[0];
        let topo = *subject.config();
        subject.flip_sumrow_bit(seq, 6, 1, 57);
        let qs = rand(ids.len(), topo.q_dim(), 101);
        let ks = rand(ids.len(), topo.kv_dim(), 102);
        let vs = rand(ids.len(), topo.kv_dim(), 103);
        let out = subject.step_decode(&ids, &qs, &ks, &vs);
        let gold = golden.step_decode(&ids, &qs, &ks, &vs);
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        {
            assert!(
                !(out[0].residual().abs() <= TOL),
                "sumrow flip corrupts the prediction: {}",
                out[0].residual()
            );
        }
        for (a, b) in out[0].output.iter().zip(&gold[0].output) {
            assert_eq!(a.to_bits(), b.to_bits(), "outputs stay clean");
        }
        let faults = subject.audit(seq, TOL);
        assert_eq!(
            faults,
            vec![LocalizedFault::CorruptSumrow { pos: 6, kv_head: 1 }],
            "audit discriminates sumrow corruption from storage corruption"
        );
        // Repair recomputes the sumrow from clean storage; the verdict
        // epoch resets and decode continues bit-identical.
        let report = subject.repair(seq, &faults);
        assert_eq!(report.sumrows_repaired, 1);
        assert_eq!(report.blocks_recovered, 0);
        assert!(subject.audit(seq, TOL).is_empty());
        decode_lockstep(&mut subject, &mut golden, &ids, 200, 3, true);
    }

    #[test]
    fn totals_flip_corrupts_verdict_only() {
        let (mut subject, _, ids) =
            lockstep_pair(KvFormat::F64, EvictionPolicy::RetainAll, mha(2, 4), 8, 4);
        let seq = ids[0];
        assert!(subject.global_residual(seq).abs() <= TOL);
        subject.flip_total_bit(seq, true, 62);
        let faults = subject.audit(seq, TOL);
        assert_eq!(faults.len(), 1);
        assert!(matches!(faults[0], LocalizedFault::CorruptTotals { .. }));
        subject.repair(seq, &faults);
        assert!(subject.audit(seq, TOL).is_empty());
        assert_eq!(subject.global_residual(seq), 0.0, "fresh verdict epoch");
    }

    #[test]
    fn recovery_restores_bitwise_decode() {
        for format in [
            KvFormat::F64,
            KvFormat::Bf16,
            KvFormat::Mixed { burst_blocks: 1 },
        ] {
            let (mut subject, mut golden, ids) =
                lockstep_pair(format, EvictionPolicy::RetainAll, mha(2, 4), 10, 3);
            let seq = ids[0];
            let bit = if subject.storage_is_bf16(seq, 2) {
                13
            } else {
                59
            };
            subject.flip_storage_bit(seq, 2, 0, 3, false, bit);
            let faults = subject.audit(seq, TOL);
            assert!(
                faults
                    .iter()
                    .any(|f| matches!(f, LocalizedFault::CorruptBlock { block: 0, .. })),
                "{format:?}: audit localizes the poisoned block: {faults:?}"
            );
            let report = subject.repair(seq, &faults);
            assert!(report.blocks_recovered >= 1);
            assert!(
                report.rows_rewritten <= subject.cache().block_rows(),
                "{format:?}: recovery is block-granular"
            );
            assert!(
                subject.audit(seq, TOL).is_empty(),
                "{format:?}: clean after repair"
            );
            // Post-recovery decode is bit-identical to the uninjected
            // golden engine.
            decode_lockstep(&mut subject, &mut golden, &ids, 100, 4, true);
        }
    }

    #[test]
    fn mixed_demotion_launders_corruption_honestly() {
        // Under Mixed, a block demoted *after* injection recomputes its
        // reference and sumrows from the corrupted storage: the audit
        // goes structurally blind. This is the detection race the live
        // campaign measures — pin it so the story stays honest.
        let topo = mha(1, 4);
        let mut subject = DecodeBatch::<f64>::with_policy(
            topo,
            4,
            KvLayout::HeadMajor,
            KvFormat::Mixed { burst_blocks: 1 },
            EvictionPolicy::RetainAll,
        );
        subject.enable_recovery_log();
        let seq = subject.add_sequence();
        subject.prefill(seq, &rand(6, 4, 1), &rand(6, 4, 2));
        // Position 2 sits in block 0, still native (the burst covers it).
        assert!(!subject.storage_is_bf16(seq, 2));
        subject.flip_storage_bit(seq, 2, 0, 1, false, 61);
        assert!(!subject.audit(seq, TOL).is_empty(), "visible pre-demotion");
        // Decode until block 0 ages out of the burst and demotes.
        let ids = [seq];
        while subject.demoted_len(seq) == 0 {
            let t = subject.seq_len(seq) as u64;
            subject.step_decode(
                &ids,
                &rand(1, 4, 300 + t),
                &rand(1, 4, 400 + t),
                &rand(1, 4, 500 + t),
            );
        }
        // Structure is consistent with the poison now (only the verdict
        // totals, fed by the pre-demotion alarming steps, still scream).
        let faults = subject.audit(seq, TOL);
        assert!(
            !faults.iter().any(|f| matches!(
                f,
                LocalizedFault::CorruptBlock { .. } | LocalizedFault::CorruptSumrow { .. }
            )),
            "demotion recomputed references from poisoned rows: {faults:?}"
        );
    }

    #[test]
    fn bf16_injection_uses_16_bit_space() {
        let (mut subject, _, ids) =
            lockstep_pair(KvFormat::Bf16, EvictionPolicy::RetainAll, mha(2, 4), 9, 2);
        let seq = ids[0];
        assert!(subject.storage_is_bf16(seq, 3));
        let was_bf16 = subject.flip_storage_bit(seq, 3, 0, 0, false, 14);
        assert!(was_bf16);
        let faults = subject.audit(seq, TOL);
        assert!(faults.iter().any(|f| matches!(
            f,
            LocalizedFault::CorruptBlock {
                block: 0,
                key_side: false,
                ..
            }
        )));
    }

    #[test]
    fn sliding_window_audit_covers_retained_blocks_only() {
        let (mut subject, _, ids) = lockstep_pair(
            KvFormat::F64,
            EvictionPolicy::SlidingWindow { window_blocks: 2 },
            mha(2, 4),
            16,
            6,
        );
        let seq = ids[0];
        assert!(subject.evicted_len(seq) > 0, "window evicted a prefix");
        let first = subject.evicted_len(seq);
        subject.flip_storage_bit(seq, first, 0, 0, false, 60);
        let faults = subject.audit(seq, TOL);
        assert!(
            faults
                .iter()
                .any(|f| matches!(f, LocalizedFault::CorruptBlock { block: 0, .. })),
            "oldest retained block is auditable: {faults:?}"
        );
        subject.repair(seq, &faults);
        assert!(subject.audit(seq, TOL).is_empty());
    }

    #[test]
    #[should_panic(expected = "evicted")]
    fn sumrow_flip_at_evicted_position_panics() {
        // The lane left with its evicted block: there is nothing to flip.
        let (mut subject, _, ids) = lockstep_pair(
            KvFormat::F64,
            EvictionPolicy::SlidingWindow { window_blocks: 2 },
            mha(2, 4),
            16,
            6,
        );
        assert!(subject.evicted_len(ids[0]) > 0, "window evicted a prefix");
        subject.flip_sumrow_bit(ids[0], 0, 0, 60);
    }

    #[test]
    fn gqa_audit_pins_kv_head() {
        let topo = HeadTopology::gqa(4, 2, AttentionConfig::new(4));
        let (mut subject, _, ids) =
            lockstep_pair(KvFormat::F64, EvictionPolicy::RetainAll, topo, 8, 2);
        let seq = ids[0];
        subject.flip_storage_bit(seq, 1, 1, 2, true, 55);
        let faults = subject.audit(seq, TOL);
        assert_eq!(
            faults,
            vec![LocalizedFault::CorruptBlock {
                block: 0,
                kv_head: 1,
                first: 0,
                rows: 4,
                key_side: true,
            }]
        );
    }

    #[test]
    #[should_panic(expected = "requires the recovery log")]
    fn recovery_without_log_panics() {
        let mut batch = DecodeBatch::<f64>::new(mha(1, 2), 4);
        let seq = batch.add_sequence();
        batch.prefill(seq, &rand(4, 2, 1), &rand(4, 2, 2));
        let _ = batch.recover_block(seq, 0);
    }

    #[test]
    #[should_panic(expected = "before caching any rows")]
    fn late_log_enable_panics() {
        let mut batch = DecodeBatch::<f64>::new(mha(1, 2), 4);
        let seq = batch.add_sequence();
        batch.prefill(seq, &rand(4, 2, 1), &rand(4, 2, 2));
        batch.enable_recovery_log();
    }

    #[test]
    fn log_survives_slot_reuse_correctly() {
        // Retiring a sequence clears its log; the recycled slot's new
        // owner recovers from *its own* rows, never the previous
        // tenant's.
        let mut subject = DecodeBatch::<f64>::new(mha(1, 4), 4);
        subject.enable_recovery_log();
        let s0 = subject.add_sequence();
        subject.prefill(s0, &rand(6, 4, 1), &rand(6, 4, 2));
        subject.retire(s0);
        let s1 = subject.add_sequence();
        assert_eq!(s1, s0, "slot reused");
        subject.prefill(s1, &rand(6, 4, 3), &rand(6, 4, 4));
        subject.flip_storage_bit(s1, 1, 0, 0, false, 60);
        let faults = subject.audit(s1, TOL);
        assert!(!faults.is_empty());
        subject.repair(s1, &faults);
        assert!(subject.audit(s1, TOL).is_empty());
        assert_eq!(
            subject.cache().value_row(s1, 1),
            rand(6, 4, 4).row(1).to_vec()
        );
    }
}
