//! Live fault injection, word-exact localization, and in-place repair
//! for the serving engine — the paper's detect-and-recover story
//! promoted from one-shot kernels to the continuous-batching stack.
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
//!   Injection never touches a block's fingerprints.
//! * **Localization** — every cache block carries integer fingerprints
//!   of its stored bits (see `batch/arena.rs`): per (kv head, side), a
//!   wrapping `u64` sum of each row's and each lane's raw element bits —
//!   Huang & Abraham's row/column checksums over the integers mod 2⁶⁴,
//!   so a clean block matches a recompute exactly, whatever the flipped
//!   bit. [`audit`](DecodeBatch::audit) compares them and pins each
//!   fault as a [`LocalizedFault`]; a single corrupted word shows the
//!   same delta in exactly one row word and one lane word, which names
//!   the word itself.
//! * **Repair** — [`repair`](DecodeBatch::repair) subtracts that delta
//!   from the word **in place** (in whichever arena holds the block),
//!   so the mended bits equal the never-corrupted bits exactly, then
//!   recomputes the panel's `sumrow` lanes, and
//!   [`clear_verdict`](DecodeBatch::clear_verdict) opens a fresh verdict
//!   epoch — decode resumes **bit-identical** to an uninjected run
//!   (property-tested across formats, eviction policies, and GQA group
//!   sizes). Damage beyond one word per panel is reported
//!   [`blocks_unrecoverable`](RepairReport::blocks_unrecoverable): the
//!   caller [`quarantine`](DecodeBatch::quarantine)s the sequence and
//!   [`resubmit`](DecodeBatch::resubmit)s its history.
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
//! Under [`KvFormat::Mixed`](super::KvFormat::Mixed), demotion checks a
//! native block against its fingerprints before narrowing it to BF16:
//! one-word damage is mended first, so it never rounds into the BF16
//! copy, and the finding stays on the sequence — the next audit or scrub
//! of the block still reports it, and the next repair settles it.

use super::{Damage, DecodeBatch};
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
    /// Integrity sweep: every retained block's fingerprints match a
    /// recompute from its stored bits, and every retained position's
    /// `sumrow(V)` lanes match a recompute from its stored value row,
    /// bitwise. After [`resolve_speculation`](Self::resolve_speculation)
    /// rewinds rejected speculative appends this must hold for every
    /// windowed sequence — the check-rewind half of the rollback
    /// contract (the other half, bit-identical replay of the accepted
    /// prefix, is property-tested against a non-speculative twin).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn rewind_checks_clean(&self, seq: usize) -> bool {
        let cache = &self.cache;
        (0..cache.live(seq).blocks.len()).all(|bi| {
            let (first, rows) = cache.block_span(seq, bi);
            let blk = cache.seqs[seq].blocks[bi];
            cache.inspect(blk, rows).is_empty()
                && cache.lanes_words_match(blk, rows)
                && (first..first + rows).all(|p| {
                    (0..cache.heads).all(|g| {
                        let (stored, fresh) = cache.sumrow(seq, p, g);
                        stored.to_bits() == fresh.to_bits()
                    })
                })
        })
    }

    /// [`rewind_checks_clean`](Self::rewind_checks_clean) over every live
    /// sequence, plus the fingerprints of every registered prefix's
    /// blocks — the cache-wide invariant that every retained block's
    /// stored fingerprints equal a recompute from its stored bits.
    pub fn fingerprints_clean(&self) -> bool {
        let cache = &self.cache;
        (0..cache.num_sequences())
            .filter(|&s| !cache.is_retired(s))
            .all(|s| self.rewind_checks_clean(s))
            && self.prefixes.iter().flatten().all(|p| {
                p.blocks.iter().enumerate().all(|(bi, &blk)| {
                    let rows = (p.rows - (p.start + bi * cache.block_rows)).min(cache.block_rows);
                    cache.inspect(blk, rows).is_empty() && cache.lanes_words_match(blk, rows)
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
    /// One (block, kv head, side) panel's stored rows disagree with its
    /// fingerprints — storage corruption, mended in place by
    /// [`DecodeBatch::repair`] when it is one word.
    CorruptBlock {
        /// Index into [`KvCache::seq_blocks`](super::KvCache::seq_blocks)
        /// (retained blocks, position order).
        block: usize,
        /// The kv head whose fingerprints mismatched.
        kv_head: usize,
        /// Logical position of the block's first row.
        first: usize,
        /// Valid rows in the block.
        rows: usize,
        /// `true` when the key-side fingerprints mismatched, `false`
        /// for the value side.
        key_side: bool,
        /// The corrupted word as (row within the block, lane) when the
        /// damage is exactly one word — the repairable case — else
        /// `None`.
        word: Option<(usize, usize)>,
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
    /// decoded against since-repaired poison), cleared by
    /// [`DecodeBatch::clear_verdict`].
    CorruptTotals {
        /// The out-of-tolerance `global_residual`.
        residual: f64,
    },
}

/// A corrupt site pinned by the audit — [`DecodeBatch::audit`] and
/// [`DecodeBatch::scrub_step`](DecodeBatch::scrub_step) return **every**
/// site they can localize (a multi-fault burst yields one entry per
/// poisoned (block, kv head, side) panel / `sumrow` cell), and
/// [`DecodeBatch::repair`] fixes everything repairable in one pass.
pub type CorruptSite = LocalizedFault;

/// What one [`DecodeBatch::repair`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Distinct corrupt blocks mended in place from their fingerprints.
    pub blocks_recovered: usize,
    /// Rows rewritten across those blocks: one per mended word (the
    /// repair cost — compare against recomputing the whole sequence).
    pub rows_rewritten: usize,
    /// `sumrow` lanes recomputed from clean storage.
    pub sumrows_repaired: usize,
    /// Distinct corrupt blocks the fingerprints could **not** mend (a
    /// panel with more than one corrupted word, or a corrupted
    /// fingerprint) — the signal that the sequence needs
    /// [`DecodeBatch::quarantine`] and a resubmitted history instead.
    pub blocks_unrecoverable: usize,
}

/// Bit-level injection and fingerprint audit/repair are defined on
/// the f64 serving engine (bit flips are format-specific; the f64 engine
/// is the one the serving stack and benches run, with BF16 storage
/// reached through the cache's format policy).
impl DecodeBatch<f64> {
    /// Does nothing: repair mends damage from the blocks' integer
    /// fingerprints, so there is no recovery log to enable. Kept only
    /// because servebench's frozen replay calls it; it goes with
    /// `cache.recovery_log_mb_peak`.
    pub fn enable_recovery_log(&mut self) {}

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
    /// The block's fingerprints are left as they were. Returns whether
    /// the hit block was BF16.
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
    /// 1. per retained block, [`block_sites`](Self::block_sites): each
    ///    (kv head, side) panel's fingerprints against a recompute from
    ///    the stored bits, then the `sumrow` lanes of panels whose value
    ///    side is clean;
    /// 2. only when the structure is clean: a NaN-safe tolerance check
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
        let blocks = self.cache.live(seq).blocks.len();
        let mut faults: Vec<LocalizedFault> =
            (0..blocks).flat_map(|b| self.block_sites(seq, b)).collect();
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

    /// Audits one retained block of one sequence — the unit of audit and
    /// scrub work:
    ///
    /// * per (kv head, side) panel, the stored fingerprints against a
    ///   recompute from the stored bits, compared as integers — each
    ///   mismatch, and each finding a demotion left on the block, is a
    ///   [`LocalizedFault::CorruptBlock`] (with the word when it is one);
    /// * per kv head whose value panel is clean, the stored `sumrow`
    ///   lanes against the head's lane word; when that disagrees, each
    ///   lane against its recompute from the stored value row, bitwise —
    ///   a mismatch is a [`LocalizedFault::CorruptSumrow`]. (In a
    ///   value-corrupt panel the storage is the liar and the stored lane
    ///   the witness, so its lanes are not judged.)
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired, or `block` is out of
    /// range.
    pub fn block_sites(&self, seq: usize, block: usize) -> Vec<CorruptSite> {
        let cache = &self.cache;
        let (first, rows) = cache.block_span(seq, block);
        let state = &cache.seqs[seq];
        let site = |kv_head, key_side, word| LocalizedFault::CorruptBlock {
            block,
            kv_head,
            first,
            rows,
            key_side,
            word,
        };
        let mut bad_sumrows = Vec::new();
        let mut sites: Vec<CorruptSite> = cache
            .check_block(state.blocks[block], rows, Some(&mut bad_sumrows))
            .into_iter()
            .map(|(g, key_side, damage)| {
                let word = match damage {
                    Damage::Word { row, lane, .. } => Some((row, lane)),
                    Damage::Beyond => None,
                };
                site(g, key_side, word)
            })
            .collect();
        for f in state.findings.iter().filter(|f| f.first == first) {
            let seen = sites.iter().any(|s| {
                matches!(*s, LocalizedFault::CorruptBlock { kv_head, key_side, .. }
                    if kv_head == f.kv_head && key_side == f.key_side)
            });
            if !seen {
                sites.push(site(f.kv_head, f.key_side, f.word));
            }
        }
        let value_bad = |g| {
            sites.iter().any(|s| {
                matches!(*s, LocalizedFault::CorruptBlock { kv_head, key_side: false, .. }
                    if kv_head == g)
            })
        };
        bad_sumrows.retain(|&(_, g)| !value_bad(g));
        bad_sumrows.sort_unstable();
        sites.extend(
            bad_sumrows
                .into_iter()
                .map(|(r, g)| LocalizedFault::CorruptSumrow {
                    pos: first + r,
                    kv_head: g,
                }),
        );
        sites
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

    /// Applies the matching repair to every audited fault — for each
    /// distinct block named by a [`LocalizedFault::CorruptBlock`], every
    /// one-word panel is mended in place from its fingerprints (and its
    /// `sumrow` lanes recomputed); for [`LocalizedFault::CorruptSumrow`]
    /// the lane is recomputed — then opens a fresh verdict epoch via
    /// [`clear_verdict`](Self::clear_verdict). After a repair of mendable
    /// damage, [`audit`](Self::audit) is clean and subsequent decode is
    /// bit-identical to a never-injected engine (property-tested).
    ///
    /// A block with a panel damaged beyond one word is counted in
    /// [`blocks_unrecoverable`](RepairReport::blocks_unrecoverable),
    /// signalling the caller to [`quarantine`](Self::quarantine) the
    /// sequence and [`resubmit`](Self::resubmit) its history. Findings a
    /// demotion left on a block settle here too: mended ones count as
    /// recovered, the rest as unrecoverable.
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
        let mut repaired: Vec<usize> = Vec::new();
        for fault in faults {
            match *fault {
                LocalizedFault::CorruptBlock { block, .. } => {
                    if repaired.contains(&block) {
                        continue;
                    }
                    repaired.push(block);
                    let (first, rows) = self.cache.block_span(seq, block);
                    let blk = self.cache.seqs[seq].blocks[block];
                    let mut found = self.cache.mend_block(blk, first, rows);
                    let earlier = &mut self.cache.seqs[seq].findings;
                    found.extend(earlier.iter().filter(|f| f.first == first));
                    earlier.retain(|f| f.first != first);
                    if found.iter().any(|f| f.word.is_none()) {
                        report.blocks_unrecoverable += 1;
                    } else if !found.is_empty() {
                        report.blocks_recovered += 1;
                        report.rows_rewritten += found.len();
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

    /// A pair of identical engines (subject to inject into, golden twin),
    /// fed the same prompts and decoded `steps` tokens in lockstep
    /// (bit-identity asserted along the way).
    fn lockstep_pair(
        format: KvFormat,
        eviction: EvictionPolicy,
        topo: HeadTopology,
        prefill: usize,
        steps: usize,
    ) -> (DecodeBatch<f64>, DecodeBatch<f64>, Vec<usize>) {
        let mk = || DecodeBatch::<f64>::with_policy(topo, 4, KvLayout::HeadMajor, format, eviction);
        let mut subject = mk();
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

    /// Every stored K/V row and `sumrow` lane of `seq` in `a` equals
    /// `b`'s bitwise.
    fn assert_storage_eq(a: &DecodeBatch<f64>, b: &DecodeBatch<f64>, seq: usize, what: &str) {
        let bits = |row: Vec<f64>| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for p in a.cache().first_retained(seq)..a.seq_len(seq) {
            let (ca, cb) = (a.cache(), b.cache());
            assert_eq!(
                bits(ca.key_row(seq, p)),
                bits(cb.key_row(seq, p)),
                "{what}: K {p}"
            );
            assert_eq!(
                bits(ca.value_row(seq, p)),
                bits(cb.value_row(seq, p)),
                "{what}: V {p}"
            );
            for g in 0..a.config().kv_heads {
                let (x, y) = (ca.sumrow(seq, p, g).0, cb.sumrow(seq, p, g).0);
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: sumrow {p} head {g}");
            }
        }
    }

    /// One word flipped in a native block one step before the block
    /// leaves the Mixed burst: demotion mends it before narrowing, so
    /// the BF16 copy holds the never-corrupted rounding, and the finding
    /// survives for the audit to report and the repair to settle —
    /// decode stays bit-identical to the golden twin throughout.
    #[test]
    fn demotion_mends_and_reports_a_word_flipped_before_it() {
        for key_side in [true, false] {
            for bit in [0u32, 30, 62] {
                let what = format!("key_side {key_side} bit {bit}");
                let (mut subject, mut golden, ids) = lockstep_pair(
                    KvFormat::Mixed { burst_blocks: 1 },
                    EvictionPolicy::RetainAll,
                    mha(2, 4),
                    6,
                    2,
                );
                let seq = ids[0];
                // Length 8: the next append claims block 2 and demotes
                // block 0, still native now.
                assert_eq!(subject.seq_len(seq), 8);
                assert!(!subject.storage_is_bf16(seq, 2));
                subject.flip_storage_bit(seq, 2, 1, 3, key_side, bit);
                decode_lockstep(&mut subject, &mut golden, &ids, 50, 1, true);
                assert!(subject.storage_is_bf16(seq, 2), "{what}: block 0 demoted");
                assert_storage_eq(&subject, &golden, seq, &what);
                let faults = subject.audit(seq, TOL);
                assert_eq!(
                    faults,
                    vec![LocalizedFault::CorruptBlock {
                        block: 0,
                        kv_head: 1,
                        first: 0,
                        rows: 4,
                        key_side,
                        word: Some((2, 3)),
                    }],
                    "{what}: the demotion's finding still localizes the word"
                );
                let report = subject.repair(seq, &faults);
                assert_eq!((report.blocks_recovered, report.rows_rewritten), (1, 1));
                assert!(subject.audit(seq, TOL).is_empty(), "{what}: settled");
                decode_lockstep(&mut subject, &mut golden, &ids, 60, 3, true);
            }
        }
    }

    /// Sequence `i`'s K/V history in a [`lockstep_pair`] after `steps`
    /// lockstep steps from 0, regenerated from the seeds the helpers use.
    fn history(
        topo: HeadTopology,
        i: usize,
        prefill: usize,
        steps: usize,
    ) -> (Matrix<f64>, Matrix<f64>) {
        let kd = topo.kv_dim();
        let (pk, pv) = (
            rand(prefill, kd, 1000 + i as u64),
            rand(prefill, kd, 2000 + i as u64),
        );
        let n = prefill + steps;
        let row = |m: &Matrix<f64>, seed: u64, r: usize, c: usize| {
            if r < prefill {
                m[(r, c)]
            } else {
                rand(2, kd, seed + (r - prefill) as u64)[(i, c)]
            }
        };
        (
            Matrix::from_fn(n, kd, |r, c| row(&pk, 6000, r, c)),
            Matrix::from_fn(n, kd, |r, c| row(&pv, 7000, r, c)),
        )
    }

    /// Two words flipped in one panel before demotion cannot be mended:
    /// the finding reports the block unrecoverable, and quarantine plus
    /// a history regenerated from the seeds brings the sequence back
    /// bit-identical.
    #[test]
    fn demotion_flags_damage_beyond_one_word() {
        let topo = mha(2, 4);
        let (mut subject, mut golden, ids) = lockstep_pair(
            KvFormat::Mixed { burst_blocks: 1 },
            EvictionPolicy::RetainAll,
            topo,
            6,
            2,
        );
        let seq = ids[0];
        subject.flip_storage_bit(seq, 1, 0, 0, false, 61);
        subject.flip_storage_bit(seq, 1, 0, 2, false, 61);
        decode_lockstep(&mut subject, &mut golden, &ids, 2, 1, false);
        assert!(subject.storage_is_bf16(seq, 1), "block 0 demoted");
        let faults = subject.audit(seq, TOL);
        assert!(
            faults.contains(&LocalizedFault::CorruptBlock {
                block: 0,
                kv_head: 0,
                first: 0,
                rows: 4,
                key_side: false,
                word: None,
            }),
            "{faults:?}"
        );
        assert_eq!(subject.repair(seq, &faults).blocks_unrecoverable, 1);
        subject.quarantine(seq);
        let (k, v) = history(topo, 0, 6, 3);
        subject.resubmit(seq, &k, &v).expect("quarantined slot");
        while subject.prefill_step_for(&[seq]) > 0 {}
        assert_storage_eq(&subject, &golden, seq, "regenerated");
        assert!(subject.audit(seq, TOL).is_empty());
        decode_lockstep(&mut subject, &mut golden, &ids, 3, 3, true);
    }

    /// Every single-word flip in one small block — each (row, lane), kv
    /// head and side, in a native and a BF16 block, at the lowest, a
    /// middle and the top bit — localizes to exactly that word, and the
    /// repair restores the stored bits and later decode bit for bit.
    #[test]
    fn every_single_word_flip_localizes_and_repairs_exactly() {
        let topo = mha(2, 4);
        for (format, bits) in [
            (KvFormat::F64, [0u32, 31, 63]),
            (KvFormat::Bf16, [0, 7, 15]),
        ] {
            let (subject, golden, ids) =
                lockstep_pair(format, EvictionPolicy::RetainAll, topo, 4, 0);
            let seq = ids[1];
            for (r, lane, g, key_side, bit) in (0..4).flat_map(|r| {
                (0..4).flat_map(move |lane| {
                    (0..2).flat_map(move |g| {
                        [true, false]
                            .into_iter()
                            .flat_map(move |side| bits.map(|b| (r, lane, g, side, b)))
                    })
                })
            }) {
                let what =
                    format!("{format:?} row {r} lane {lane} head {g} key {key_side} bit {bit}");
                let (mut s, mut gold) = (subject.clone(), golden.clone());
                s.flip_storage_bit(seq, r, g, lane, key_side, bit);
                let faults = s.audit(seq, TOL);
                assert_eq!(
                    faults,
                    vec![LocalizedFault::CorruptBlock {
                        block: 0,
                        kv_head: g,
                        first: 0,
                        rows: 4,
                        key_side,
                        word: Some((r, lane)),
                    }],
                    "{what}"
                );
                let report = s.repair(seq, &faults);
                assert_eq!(
                    (report.blocks_recovered, report.rows_rewritten),
                    (1, 1),
                    "{what}"
                );
                assert_storage_eq(&s, &gold, seq, &what);
                assert!(s.rewind_checks_clean(seq), "{what}");
                decode_lockstep(&mut s, &mut gold, &ids, 0, 2, true);
            }
        }
    }

    /// A word flipped in a registered prefix block is one physical fault:
    /// every reader's audit pins the same word, one repair through one
    /// reader mends it for all, and both decode bit-identical to a twin.
    #[test]
    fn shared_prefix_word_repairs_once_for_every_reader() {
        let topo = mha(2, 4);
        let (qd, kd) = (topo.q_dim(), topo.kv_dim());
        let mk = || {
            let mut e = DecodeBatch::<f64>::new(topo, 4);
            let id = e.register_prefix(&rand(4, qd, 1), &rand(4, kd, 2), &rand(4, kd, 3));
            let empty = (Matrix::zeros(0, qd), Matrix::zeros(0, kd));
            let readers: Vec<usize> = (0..2)
                .map(|_| e.enqueue_shared(id, &empty.0, &empty.1, &empty.1))
                .collect();
            (e, readers)
        };
        let (clean, ids) = mk();
        for (r, lane, key_side) in
            (0..4).flat_map(|r| (0..4).flat_map(move |l| [(r, l, true), (r, l, false)]))
        {
            let (mut e, mut twin) = (clean.clone(), clean.clone());
            e.flip_storage_bit(ids[0], r, 1, lane, key_side, 40);
            for &s in &ids {
                assert_eq!(
                    e.audit(s, TOL),
                    vec![LocalizedFault::CorruptBlock {
                        block: 0,
                        kv_head: 1,
                        first: 0,
                        rows: 4,
                        key_side,
                        word: Some((r, lane)),
                    }]
                );
            }
            assert_eq!(e.audit_and_repair(ids[1], TOL).rows_rewritten, 1);
            for &s in &ids {
                assert!(e.audit(s, TOL).is_empty(), "one repair mends every reader");
                assert_storage_eq(&e, &twin, s, "shared");
            }
            decode_lockstep(&mut e, &mut twin, &ids, 0, 2, true);
        }
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
                word: Some((1, 2)),
            }]
        );
    }

    #[test]
    fn repair_on_a_recycled_slot_restores_its_own_rows() {
        // A claim zeroes a recycled block's fingerprints: the slot's new
        // owner repairs to *its own* rows, never the previous tenant's.
        let mut subject = DecodeBatch::<f64>::new(mha(1, 4), 4);
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
