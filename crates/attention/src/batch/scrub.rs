//! Background scrubbing: the bounded-latency detection lane for
//! residual-coherent corruption.
//!
//! The online checksum lane ([`DecodeBatch::step_decode`]) alarms on
//! value-side storage flips within a step, but key-side flips corrupt
//! score and checksum *coherently* — the residual stays small while
//! outputs diverge, and only a structural audit sees the damage.
//! [`DecodeBatch::audit_all`] is a full structure walk per call; this
//! module amortizes that walk across serving steps, ECC-memory style:
//!
//! * a [`ScrubPolicy`](super::ScrubPolicy) caps the work at
//!   `blocks_per_step` block audits per [`scrub_step`](DecodeBatch::scrub_step);
//! * a **round-robin cursor** over live `(sequence, block)` slots picks
//!   which blocks each step pays for, so every retained block is audited
//!   once per `ceil(live_blocks / blocks_per_step)` steps — the bounded
//!   detection-latency guarantee the `scrub` section of
//!   `BENCH_faults.json` measures as a bandwidth ↔ latency curve;
//! * each block audit is [`block_sites`](DecodeBatch::block_sites):
//!   integer compares of the block's row and lane fingerprints against a
//!   recompute from its stored bits (wrapping sums that vectorize), one
//!   streaming pass over its K/V rows; its `sumrow` lanes are checked
//!   against their own integer word and recomputed from V only when that
//!   disagrees. The scrubber only reports; the caller repairs.
//!
//! The cursor indexes *current* retained-block lists, so eviction
//! (`blocks.remove(0)` shifting indices) and
//! [`quarantine`](DecodeBatch::quarantine) (freeing a whole list) just
//! make the cursor skip ahead: a freed block is never scrubbed on its
//! old owner's behalf, and once reclaimed it is audited against its
//! *new* owner's rows (a claim zeroes the fingerprints) — the
//! free-list-aliasing regression the tests pin.

use super::guard::CorruptSite;
use super::DecodeBatch;

impl DecodeBatch<f64> {
    /// Runs one background-scrub quantum: audits up to
    /// `blocks_per_step` live blocks at the round-robin cursor,
    /// returning every corrupt site found as `(sequence, site)` pairs.
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
            let sites = self.block_sites(seq, block);
            findings.extend(sites.into_iter().map(|s| (seq, s)));
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::super::guard::LocalizedFault;
    use super::super::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout, ScrubPolicy};
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

    fn engine(topo: HeadTopology, format: KvFormat, eviction: EvictionPolicy) -> DecodeBatch<f64> {
        DecodeBatch::<f64>::with_policy(topo, 4, KvLayout::HeadMajor, format, eviction)
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

    /// Sequence `i`'s K/V history after [`seed`] and decode steps
    /// `steps` (each `(step, ids.len(), index of i in ids)`),
    /// regenerated from the seeds the helpers use.
    fn history(
        topo: HeadTopology,
        i: usize,
        prefill: usize,
        steps: &[(u64, usize, usize)],
    ) -> (Matrix<f64>, Matrix<f64>) {
        let kd = topo.kv_dim();
        let mut k = rand(prefill, kd, 10 + i as u64).as_slice().to_vec();
        let mut v = rand(prefill, kd, 50 + i as u64).as_slice().to_vec();
        for &(step, width, at) in steps {
            k.extend_from_slice(rand(width, kd, 2_000 + step).row(at));
            v.extend_from_slice(rand(width, kd, 3_000 + step).row(at));
        }
        let n = prefill + steps.len();
        (Matrix::from_vec(n, kd, k), Matrix::from_vec(n, kd, v))
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
        let mut e = engine(gqa(2, 2, 4), KvFormat::F64, EvictionPolicy::RetainAll);
        seed(&mut e, 2, 10);
        assert!(e.scrub_step().is_empty(), "no policy installed");
        assert_eq!(e.scrubbed_blocks(), 0);

        let mut empty = engine(gqa(2, 2, 4), KvFormat::F64, EvictionPolicy::RetainAll);
        empty.set_scrub_policy(Some(ScrubPolicy { blocks_per_step: 4 }));
        assert!(empty.scrub_step().is_empty(), "no live blocks");
        assert_eq!(empty.scrubbed_blocks(), 0);
    }

    #[test]
    fn one_full_cycle_covers_every_live_block_exactly_once() {
        let mut e = engine(gqa(4, 2, 4), KvFormat::F64, EvictionPolicy::RetainAll);
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
            let mut e = engine(gqa(4, 2, 8), KvFormat::F64, EvictionPolicy::RetainAll);
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

    /// Two corrupted words in one panel are beyond the fingerprints:
    /// the scrub still localizes the block, `repair` counts it
    /// unrecoverable (no panic, nothing rewritten), and quarantine frees
    /// the sequence for a resubmitted history.
    #[test]
    fn two_words_in_one_panel_escalate_to_quarantine() {
        let mut e = engine(gqa(2, 2, 4), KvFormat::F64, EvictionPolicy::RetainAll);
        let ids = seed(&mut e, 2, 16);
        e.set_scrub_policy(Some(ScrubPolicy {
            blocks_per_step: e.live_blocks(),
        }));
        e.flip_storage_bit(ids[0], 5, 1, 0, true, 30);
        e.flip_storage_bit(ids[0], 6, 1, 3, true, 2);
        let findings = e.scrub_step();
        assert_eq!(
            findings,
            vec![(
                ids[0],
                LocalizedFault::CorruptBlock {
                    block: 1,
                    kv_head: 1,
                    first: 4,
                    rows: 4,
                    key_side: true,
                    word: None,
                }
            )]
        );
        let faults = e.audit(ids[0], TOL);
        let report = e.repair(ids[0], &faults);
        assert_eq!(report.blocks_unrecoverable, 1);
        assert_eq!((report.blocks_recovered, report.rows_rewritten), (0, 0));
        let freed = e.cache().seq_blocks(ids[0]).len();
        let report = e.quarantine(ids[0]);
        assert_eq!(report.blocks_freed, freed);
        assert_eq!(e.seq_len(ids[0]), 0);
        assert!(!e.is_pending(ids[0]), "the caller resubmits the history");
        assert!(e.audit(ids[1], TOL).is_empty(), "the peer is untouched");
    }

    /// Quarantine plus a resubmitted history (regenerated from the
    /// seeds) re-caches through chunked-prefill admission, and the
    /// rebuilt cache is bitwise the undamaged cache: decode resumes
    /// bit-identical to a golden twin while the batch peer stays
    /// bit-identical throughout.
    #[test]
    fn quarantine_and_resubmit_resume_bit_identical() {
        let topo = gqa(4, 2, 8);
        let mk = || {
            let mut e = engine(
                topo,
                KvFormat::Mixed { burst_blocks: 1 },
                EvictionPolicy::SlidingWindow { window_blocks: 3 },
            );
            e.set_prefill_chunk(4);
            e
        };
        let mut subject = mk();
        let mut golden = mk();
        let ids = seed(&mut subject, 2, 10);
        seed(&mut golden, 2, 10);
        for s in 0..6 {
            let a = decode_step(&mut subject, &ids, s);
            let b = decode_step(&mut golden, &ids, s);
            assert_eq!(a, b, "healthy lockstep");
        }
        let victim = ids[0];
        let peer = ids[1];
        // Damage the victim (quarantine works on any damage). Flip
        // inside the retained window; leading blocks may already be
        // evicted.
        let pos = subject.evicted_len(victim) + 1;
        subject.flip_storage_bit(victim, pos, 0, 1, true, 61);
        let report = subject.quarantine(victim);
        assert!(report.blocks_freed > 0);
        let steps: Vec<_> = (0..6).map(|s| (s, 2, 0)).collect();
        let (k, v) = history(topo, 0, 10, &steps);
        subject.resubmit(victim, &k, &v).expect("quarantined slot");
        assert_eq!(subject.pending_len(victim), 16);
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
        // blocks return to the free list poisoned), and let the
        // resubmitted history reclaim them. A claim zeroes the
        // fingerprints and appends rebuild them, so a full scrub cycle
        // and audit stay clean.
        e.flip_storage_bit(ids[1], e.evicted_len(ids[1]), 1, 0, false, 61);
        let report = e.quarantine(ids[1]);
        assert!(report.blocks_freed > 0);
        let steps: Vec<_> = (0..s).map(|t| (t, 2, 1)).collect();
        let (k, v) = history(topo, 1, 12, &steps);
        e.resubmit(ids[1], &k, &v).expect("quarantined slot");
        while e.prefill_step_for(&[ids[1]]) > 0 {}
        for _ in 0..e.live_blocks() {
            assert!(e.scrub_step().is_empty(), "reclaimed blocks audit clean");
        }
        for &id in &ids {
            assert!(e.audit(id, TOL).is_empty());
        }
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
                let mut e = engine(gqa(4, 2, 4), KvFormat::F64, EvictionPolicy::RetainAll);
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
