//! Background scrubbing: the bounded-latency detection lane for
//! residual-coherent corruption, plus recovery-log checkpointing.
//!
//! The online checksum lane ([`DecodeBatch::step_decode`]) alarms on
//! value-side storage flips within a step, but key-side flips corrupt
//! score and checksum *coherently* — the residual stays small while
//! outputs diverge, and only a structural audit sees the damage. PR 6's
//! answer was [`DecodeBatch::audit_all`], a full structure walk per call;
//! this module amortizes that walk across serving steps, ECC-memory
//! style:
//!
//! * a [`ScrubPolicy`](super::ScrubPolicy) caps the work at
//!   `blocks_per_step` block audits per [`scrub_step`](DecodeBatch::scrub_step);
//! * a **round-robin cursor** over live `(sequence, block)` slots picks
//!   which blocks each step pays for, so every retained block is audited
//!   once per `ceil(live_blocks / blocks_per_step)` steps — the bounded
//!   detection-latency guarantee the `scrub` section of
//!   `BENCH_faults.json` measures as a bandwidth ↔ latency curve;
//! * each **clean** verdict doubles as a checkpoint: the scrubbed rows
//!   stop being the recovery log's sole witness, so the budget
//!   truncation ([`DecodeBatch::set_recovery_log_budget`]) may drop them
//!   — the scrubber is what makes the bounded log safe.
//!
//! The cursor indexes *current* retained-block lists, so eviction
//! (`blocks.remove(0)` shifting indices) and
//! [`quarantine`](DecodeBatch::quarantine) (freeing a whole list) just
//! make the cursor skip ahead: a freed block is never scrubbed on its
//! old owner's behalf, and once reclaimed it is audited against its
//! *new* owner's references (rebuilt on append) — the free-list-aliasing
//! regression the tests pin.

use super::guard::{CorruptSite, LocalizedFault};
use super::DecodeBatch;

impl DecodeBatch<f64> {
    /// Runs one background-scrub quantum: audits up to
    /// `blocks_per_step` live blocks at the round-robin cursor,
    /// returning every corrupt site found as `(sequence, site)` pairs.
    /// Clean blocks advance the sequence's verified-prefix watermark and
    /// trigger opportunistic recovery-log truncation.
    ///
    /// A no-op (empty result) when no policy is installed or no live
    /// blocks exist. The per-call quantum is capped at the current live
    /// block count, so one call never audits a block twice.
    pub fn scrub_step(&mut self) -> Vec<(usize, CorruptSite)> {
        let Some(policy) = self.scrub else {
            return Vec::new();
        };
        let total = self.live_blocks();
        if total == 0 {
            return Vec::new();
        }
        let quantum = policy.blocks_per_step.min(total);
        let nseq = self.cache.seqs.len();
        let mut findings = Vec::new();
        for _ in 0..quantum {
            // Normalize the cursor onto the next live (sequence, block)
            // slot: wrap past the slot table, skip retired sequences and
            // exhausted block lists (indices shift on eviction and empty
            // out on quarantine; `total > 0` guarantees convergence).
            loop {
                if self.scrub_seq >= nseq {
                    self.scrub_seq = 0;
                }
                let state = &self.cache.seqs[self.scrub_seq];
                if state.retired || self.scrub_block >= state.blocks.len() {
                    self.scrub_seq += 1;
                    self.scrub_block = 0;
                    continue;
                }
                break;
            }
            let seq = self.scrub_seq;
            let block = self.scrub_block;
            self.scrub_block += 1;
            self.scrubbed_blocks += 1;
            let sites = self.scrub_block_at(seq, block);
            if sites.is_empty() {
                self.note_scrub_clean(seq, block);
            } else {
                findings.extend(sites.into_iter().map(|s| (seq, s)));
            }
        }
        findings
    }

    /// Audits one retained block of one sequence — the unit of scrub
    /// work. Exactly the per-block slice of [`audit`](Self::audit):
    /// stored [`BlockCheck`](super::BlockCheck) references vs a fresh
    /// bitwise recompute per kv head and side, then the block's
    /// positions' `sumrow` inputs (skipped while the block is
    /// value-corrupt — there the storage is the liar and the stored
    /// `sumrow` the witness). Returns every corrupt site in the block.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired, or `block` is out of
    /// range.
    pub fn scrub_block_at(&self, seq: usize, block: usize) -> Vec<CorruptSite> {
        let kv = self.cfg.kv_heads;
        let cache = &self.cache;
        let state = cache.live(seq);
        assert!(
            block < state.blocks.len(),
            "block {block} out of {} retained",
            state.blocks.len()
        );
        let blk = state.blocks[block];
        let check = &state.checks[block];
        let first = state.start + block * cache.block_rows;
        let rows = (state.len - first).min(cache.block_rows);
        let recomputed = cache.recompute_block_check(blk, rows);
        let mut sites = Vec::new();
        let mut value_bad = false;
        for g in 0..kv {
            if recomputed.ksum[g].to_bits() != check.ksum[g].to_bits() {
                sites.push(LocalizedFault::CorruptBlock {
                    block,
                    kv_head: g,
                    first,
                    rows,
                    key_side: true,
                });
            }
            if recomputed.vsum[g].to_bits() != check.vsum[g].to_bits() {
                value_bad = true;
                sites.push(LocalizedFault::CorruptBlock {
                    block,
                    kv_head: g,
                    first,
                    rows,
                    key_side: false,
                });
            }
        }
        if !value_bad {
            let sumrows = &self.seqs[seq].sumrows;
            for p in first..first + rows {
                for g in 0..kv {
                    let fresh = cache.value_head_sum(seq, p, g);
                    if fresh.to_bits() != sumrows[p * kv + g].to_bits() {
                        sites.push(LocalizedFault::CorruptSumrow { pos: p, kv_head: g });
                    }
                }
            }
        }
        sites
    }

    /// A clean scrub verdict on block `block` of `seq`: extend the
    /// contiguous verified prefix if the block touches it, then let the
    /// budget truncation drop rows the prefix releases. The watermark
    /// only advances contiguously — a clean verdict *behind* an
    /// unverified gap proves nothing about the gap's rows.
    fn note_scrub_clean(&mut self, seq: usize, block: usize) {
        let state = &self.cache.seqs[seq];
        let first = state.start + block * self.cache.block_rows;
        let rows = (state.len - first).min(self.cache.block_rows);
        let watermark = &mut self.seqs[seq].log_clean_until;
        if *watermark >= first {
            *watermark = (*watermark).max(first + rows);
        }
        self.truncate_log(seq);
    }

    /// Checkpoints sequence `seq`'s recovery log behind a full
    /// [`audit`](Self::audit): when the audit is clean, every cached row
    /// is a verified witness, the clean watermark jumps to the sequence
    /// tip, and the budget truncation drops everything the budget does
    /// not retain. Returns whether the checkpoint happened (a dirty
    /// audit refuses — truncating would orphan the corrupt block's only
    /// recovery evidence).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or retired.
    pub fn checkpoint_recovery_log(&mut self, seq: usize, tol: f64) -> bool {
        if !self.audit(seq, tol).is_empty() {
            return false;
        }
        let len = self.cache.seq_len(seq);
        let watermark = &mut self.seqs[seq].log_clean_until;
        *watermark = (*watermark).max(len);
        self.truncate_log(seq);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout, ScrubPolicy};
    use super::*;
    use crate::topology::HeadTopology;
    use crate::AttentionConfig;
    use fa_tensor::{random::ElementDist, Matrix};

    const TOL: f64 = 1e-6;

    fn rand(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        Matrix::random_seeded(rows, cols, ElementDist::default(), seed)
    }

    fn gqa(q: usize, kv: usize, d: usize) -> HeadTopology {
        HeadTopology::gqa(q, kv, AttentionConfig::new(d))
    }

    fn engine(
        topo: HeadTopology,
        format: KvFormat,
        eviction: EvictionPolicy,
        log: bool,
    ) -> DecodeBatch<f64> {
        let mut e = DecodeBatch::<f64>::with_policy(topo, 4, KvLayout::HeadMajor, format, eviction);
        if log {
            e.enable_recovery_log();
        }
        e
    }

    /// Seeds `batch` sequences with `prefill` prompt rows each.
    fn seed(e: &mut DecodeBatch<f64>, batch: usize, prefill: usize) -> Vec<usize> {
        let topo = *e.config();
        let ids: Vec<usize> = (0..batch).map(|_| e.add_sequence()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let k = rand(prefill, topo.kv_dim(), 10 + i as u64);
            let v = rand(prefill, topo.kv_dim(), 50 + i as u64);
            e.prefill(id, &k, &v);
        }
        ids
    }

    fn decode_step(e: &mut DecodeBatch<f64>, ids: &[usize], step: u64) -> Vec<Vec<f64>> {
        let topo = *e.config();
        let qs = rand(ids.len(), topo.q_dim(), 1_000 + step);
        let ks = rand(ids.len(), topo.kv_dim(), 2_000 + step);
        let vs = rand(ids.len(), topo.kv_dim(), 3_000 + step);
        e.step_decode(ids, &qs, &ks, &vs)
            .into_iter()
            .map(|o| o.output)
            .collect()
    }

    #[test]
    fn scrub_step_is_a_noop_without_policy_or_blocks() {
        let mut e = engine(
            gqa(2, 2, 4),
            KvFormat::F64,
            EvictionPolicy::RetainAll,
            false,
        );
        seed(&mut e, 2, 10);
        assert!(e.scrub_step().is_empty(), "no policy installed");
        assert_eq!(e.scrubbed_blocks(), 0);

        let mut empty = engine(
            gqa(2, 2, 4),
            KvFormat::F64,
            EvictionPolicy::RetainAll,
            false,
        );
        empty.set_scrub_policy(Some(ScrubPolicy { blocks_per_step: 4 }));
        assert!(empty.scrub_step().is_empty(), "no live blocks");
        assert_eq!(empty.scrubbed_blocks(), 0);
    }

    #[test]
    fn one_full_cycle_covers_every_live_block_exactly_once() {
        let mut e = engine(
            gqa(4, 2, 4),
            KvFormat::F64,
            EvictionPolicy::RetainAll,
            false,
        );
        seed(&mut e, 3, 10); // 3 blocks each (4-row blocks, 10 rows)
        let live = e.live_blocks();
        assert_eq!(live, 9);
        e.set_scrub_policy(Some(ScrubPolicy {
            blocks_per_step: live + 100,
        }));
        assert!(e.scrub_step().is_empty());
        // The quantum caps at the live count: exactly one cycle, no block
        // audited twice in one call.
        assert_eq!(e.scrubbed_blocks(), live as u64);
    }

    /// The tentpole guarantee: a key-side storage flip — invisible to the
    /// online residual by construction — is caught by the scrubber within
    /// `ceil(live_blocks / blocks_per_step)` scrub steps, at every
    /// bandwidth setting.
    #[test]
    fn key_flip_detected_within_the_latency_bound() {
        for bps in [1usize, 2, 5] {
            let mut e = engine(gqa(4, 2, 8), KvFormat::F64, EvictionPolicy::RetainAll, true);
            let ids = seed(&mut e, 3, 10);
            e.set_scrub_policy(Some(ScrubPolicy {
                blocks_per_step: bps,
            }));
            let victim = ids[2];
            e.flip_storage_bit(victim, 6, 1, 3, true, 61);
            let live = e.live_blocks();
            let bound = live.div_ceil(bps);
            let mut caught_at = None;
            for step in 1..=bound {
                let findings = e.scrub_step();
                if !findings.is_empty() {
                    assert!(findings.iter().all(|&(s, site)| s == victim
                        && matches!(
                            site,
                            LocalizedFault::CorruptBlock {
                                kv_head: 1,
                                key_side: true,
                                first,
                                rows,
                                ..
                            } if (first..first + rows).contains(&6)
                        )));
                    caught_at = Some(step);
                    break;
                }
            }
            let caught = caught_at
                .unwrap_or_else(|| panic!("bps={bps}: flip not caught within {bound} steps"));
            assert!(caught <= bound);
            // Repair from the scrub findings and the structure is clean.
            let faults = e.audit(victim, TOL);
            let report = e.repair(victim, &faults);
            assert_eq!(report.blocks_recovered, 1);
            assert_eq!(report.blocks_unrecoverable, 0);
            assert!(e.audit(victim, TOL).is_empty());
        }
    }

    /// Scrub verdicts unlock budget truncation: without verdicts the log
    /// retains everything (the unverified suffix is the sole witness);
    /// after a full clean cycle the log holds exactly the budget.
    #[test]
    fn budget_truncation_waits_for_scrub_verdicts() {
        let mut e = engine(gqa(2, 2, 4), KvFormat::F64, EvictionPolicy::RetainAll, true);
        let ids = seed(&mut e, 1, 16);
        e.set_recovery_log_budget(Some(6));
        for s in 0..4 {
            decode_step(&mut e, &ids, s);
        }
        let len = e.seq_len(ids[0]);
        assert_eq!(len, 20);
        // No scrub verdicts yet: every row is still unverified, nothing
        // dropped despite the budget.
        assert_eq!(e.recovery_log_rows(), len);
        let width = e.cache().width();
        assert_eq!(
            e.recovery_log_bytes(),
            2 * len * width * core::mem::size_of::<f64>()
        );
        // A full clean scrub cycle verifies every retained block; the
        // truncation then drops everything beyond the budget.
        e.set_scrub_policy(Some(ScrubPolicy { blocks_per_step: 1 }));
        let live = e.live_blocks();
        for _ in 0..live {
            assert!(e.scrub_step().is_empty());
        }
        assert_eq!(e.recovery_log_rows(), 6);
        assert_eq!(e.seq_log_rows(ids[0]), 6);
        assert_eq!(
            e.recovery_log_bytes(),
            2 * 6 * width * core::mem::size_of::<f64>()
        );
        // The retained suffix still recovers: flip inside it and repair.
        e.flip_storage_bit(ids[0], len - 1, 0, 1, false, 61);
        let faults = e.audit(ids[0], TOL);
        let report = e.repair(ids[0], &faults);
        assert_eq!(report.blocks_unrecoverable, 0);
        assert!(report.blocks_recovered >= 1);
        assert!(e.audit(ids[0], TOL).is_empty());
    }

    /// `checkpoint_recovery_log` is the synchronous form: a clean full
    /// audit verifies the whole sequence at once; a dirty audit refuses
    /// to checkpoint (truncation would orphan the recovery evidence).
    #[test]
    fn checkpoint_requires_a_clean_audit() {
        let mut e = engine(gqa(2, 1, 4), KvFormat::F64, EvictionPolicy::RetainAll, true);
        let ids = seed(&mut e, 1, 12);
        e.set_recovery_log_budget(Some(4));
        assert_eq!(e.seq_log_rows(ids[0]), 12);
        e.flip_storage_bit(ids[0], 2, 0, 0, true, 61);
        assert!(!e.checkpoint_recovery_log(ids[0], TOL), "dirty audit");
        assert_eq!(e.seq_log_rows(ids[0]), 12, "nothing truncated");
        let faults = e.audit(ids[0], TOL);
        e.repair(ids[0], &faults);
        assert!(e.checkpoint_recovery_log(ids[0], TOL));
        assert_eq!(e.seq_log_rows(ids[0]), 4);
    }

    /// Once the budget truncates past a block, a later flip there is
    /// unrecoverable: `repair` skips it (counted, no panic), and
    /// quarantine + caller-provided resubmit is the recovery path.
    #[test]
    fn truncated_log_makes_old_blocks_unrecoverable() {
        let mut e = engine(gqa(2, 2, 4), KvFormat::F64, EvictionPolicy::RetainAll, true);
        let ids = seed(&mut e, 2, 16);
        e.set_recovery_log_budget(Some(4));
        assert!(e.checkpoint_recovery_log(ids[0], TOL));
        assert_eq!(e.seq_log_rows(ids[0]), 4);
        assert!(!e.block_recoverable(ids[0], 0), "log truncated past it");
        assert!(e.block_recoverable(ids[0], 3), "suffix still covered");
        e.flip_storage_bit(ids[0], 1, 0, 2, false, 60);
        let faults = e.audit(ids[0], TOL);
        assert!(!faults.is_empty());
        let report = e.repair(ids[0], &faults);
        assert_eq!(report.blocks_recovered, 0);
        assert_eq!(report.blocks_unrecoverable, 1);
        // The poison is still there; degrade gracefully instead.
        let freed = e.cache().seq_blocks(ids[0]).len();
        let report = e.quarantine(ids[0]);
        assert_eq!(report.blocks_freed, freed);
        assert_eq!(report.requeued_rows, 0, "truncated log cannot requeue");
        assert_eq!(report.log_rows_dropped, 4);
        assert_eq!(e.seq_len(ids[0]), 0);
        assert!(!e.is_pending(ids[0]));
    }

    /// With a full (untruncated) log, quarantine auto-requeues the whole
    /// history through chunked-prefill admission, and the rebuilt cache
    /// is bitwise the undamaged cache: decode resumes bit-identical to a
    /// golden twin while the batch peer stays bit-identical throughout.
    #[test]
    fn quarantine_auto_requeues_and_resumes_bit_identical() {
        let topo = gqa(4, 2, 8);
        let mk = |log: bool| {
            let mut e = engine(
                topo,
                KvFormat::Mixed { burst_blocks: 1 },
                EvictionPolicy::SlidingWindow { window_blocks: 3 },
                log,
            );
            e.set_prefill_chunk(4);
            e
        };
        let mut subject = mk(true);
        let mut golden = mk(false);
        let ids = seed(&mut subject, 2, 10);
        seed(&mut golden, 2, 10);
        for s in 0..6 {
            let a = decode_step(&mut subject, &ids, s);
            let b = decode_step(&mut golden, &ids, s);
            assert_eq!(a, b, "healthy lockstep");
        }
        let victim = ids[0];
        let peer = ids[1];
        // Damage the victim beyond in-place repair (no log truncation is
        // even needed — quarantine works on any damage). Flip inside the
        // retained window; leading blocks may already be evicted.
        let pos = subject.evicted_len(victim) + 1;
        subject.flip_storage_bit(victim, pos, 0, 1, true, 61);
        let report = subject.quarantine(victim);
        assert!(report.blocks_freed > 0);
        assert_eq!(report.requeued_rows, subject.pending_len(victim));
        assert!(subject.is_pending(victim));
        // Peers decode while the victim re-admits chunk by chunk; the
        // golden twin pauses its victim too so both see identical steps.
        let mut s = 100;
        while subject.is_pending(victim) {
            subject.prefill_step_for(&[victim]);
            let a = decode_step(&mut subject, &[peer], s);
            let b = decode_step(&mut golden, &[peer], s);
            assert_eq!(a, b, "peer bit-identical during requeue");
            s += 1;
        }
        assert_eq!(subject.seq_len(victim), golden.seq_len(victim));
        assert!(subject.audit(victim, TOL).is_empty());
        // Post-recompute decode is bit-identical to the undamaged twin.
        for s in 200..206 {
            let a = decode_step(&mut subject, &ids, s);
            let b = decode_step(&mut golden, &ids, s);
            assert_eq!(a, b, "victim bit-identical after requeue");
        }
    }

    /// Scrub × sliding window: a flip whose block is evicted before the
    /// cursor arrives is never reported (the evidence left the window),
    /// and freed blocks are never scrubbed against their old owner —
    /// reclaimed storage audits clean under its new owner's references.
    #[test]
    fn eviction_and_free_list_aliasing_never_confuse_the_scrubber() {
        let topo = gqa(2, 2, 4);
        let mut e = engine(
            topo,
            KvFormat::F64,
            EvictionPolicy::SlidingWindow { window_blocks: 2 },
            true,
        );
        let ids = seed(&mut e, 2, 12);
        e.set_scrub_policy(Some(ScrubPolicy { blocks_per_step: 1 }));
        // Flip in the oldest retained block, then decode it out of the
        // window *before* scrubbing: the cursor must never report it.
        let first = e.evicted_len(ids[0]);
        e.flip_storage_bit(ids[0], first, 0, 1, true, 61);
        let mut s = 0;
        while e.evicted_len(ids[0]) <= first {
            decode_step(&mut e, &ids, s);
            s += 1;
        }
        for _ in 0..2 * e.live_blocks() {
            assert!(
                e.scrub_step().is_empty(),
                "evicted evidence must not be reported"
            );
        }
        assert!(e.audit(ids[0], TOL).is_empty());
        // Free-list aliasing: poison a block, quarantine the owner (its
        // blocks return to the free list poisoned), and let the requeue
        // reclaim them. Appends rebuild rows and references, so a full
        // scrub cycle and audit stay clean.
        e.flip_storage_bit(ids[1], e.evicted_len(ids[1]), 1, 0, false, 61);
        let report = e.quarantine(ids[1]);
        assert!(report.blocks_freed > 0);
        while e.prefill_step_for(&[ids[1]]) > 0 {}
        for _ in 0..e.live_blocks() {
            assert!(e.scrub_step().is_empty(), "reclaimed blocks audit clean");
        }
        for &id in &ids {
            assert!(e.audit(id, TOL).is_empty());
        }
    }

    /// The scrub watermark only advances over a *contiguous* verified
    /// prefix: verdicts behind a corrupt block must not release the
    /// corrupt block's log rows.
    #[test]
    fn watermark_stops_at_the_first_unverified_gap() {
        let mut e = engine(gqa(2, 1, 4), KvFormat::F64, EvictionPolicy::RetainAll, true);
        let ids = seed(&mut e, 1, 12);
        e.set_recovery_log_budget(Some(2));
        e.set_scrub_policy(Some(ScrubPolicy { blocks_per_step: 1 }));
        // Corrupt block 0; the cursor reports it and must not advance the
        // watermark past it, so later clean verdicts (blocks 1, 2) do not
        // unlock truncation of block 0's witness rows.
        e.flip_storage_bit(ids[0], 0, 0, 0, true, 61);
        let findings = e.scrub_step();
        assert!(!findings.is_empty());
        assert!(e.scrub_step().is_empty()); // block 1 clean
        assert!(e.scrub_step().is_empty()); // block 2 clean
        assert_eq!(
            e.seq_log_rows(ids[0]),
            12,
            "corrupt block keeps its recovery witness"
        );
        // Repair is therefore still possible.
        let faults = e.audit(ids[0], TOL);
        let report = e.repair(ids[0], &faults);
        assert_eq!(report.blocks_recovered, 1);
        assert_eq!(report.blocks_unrecoverable, 0);
        assert!(e.audit(ids[0], TOL).is_empty());
    }

    /// The autotuned policy honors the detection-latency SLO at every
    /// load point: as the live-block count grows (more sequences, longer
    /// histories), re-deriving the policy from
    /// [`ScrubPolicy::for_target_latency`] keeps an injected key flip
    /// detectable within `slo` scrub steps — the satellite guarantee the
    /// serving frontend re-tunes with each step.
    #[test]
    fn autotuned_policy_meets_the_slo_at_every_load_point() {
        for slo in [1usize, 2, 4, 7] {
            for (batch, prefill) in [(1usize, 5usize), (2, 10), (4, 10), (3, 22)] {
                let mut e = engine(gqa(4, 2, 4), KvFormat::F64, EvictionPolicy::RetainAll, true);
                let ids = seed(&mut e, batch, prefill);
                let victim = ids[batch - 1];
                e.flip_storage_bit(victim, prefill - 1, 1, 2, true, 61);
                let live = e.live_blocks();
                e.set_scrub_policy(Some(ScrubPolicy::for_target_latency(slo, live)));
                let mut caught_at = None;
                for step in 1..=slo {
                    if !e.scrub_step().is_empty() {
                        caught_at = Some(step);
                        break;
                    }
                }
                let caught = caught_at.unwrap_or_else(|| {
                    panic!("slo={slo} live={live}: flip not caught within the SLO")
                });
                assert!(
                    caught <= slo,
                    "slo={slo} live={live}: detection took {caught} steps"
                );
            }
        }
    }
}
