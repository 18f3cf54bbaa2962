//! Speculative decoding with exact rollback — draft-and-verify over the
//! paged copy-on-write cache, verified through the fused checksum lane.
//!
//! Serving-shape decode is DRAM-bound on the KV sweep: every step
//! streams each sequence's whole retained K/V history for one query.
//! Speculative decoding amortizes that sweep along the **token axis** —
//! a cheap draft proposes `γ` tokens per sequence and the target engine
//! scores all `γ` positions as one query panel per (sequence, kv head)
//! through the engine's one scoring pass (`batch/pass.rs`), streaming
//! each K/V block once for `γ` queries instead of `γ` times. Each window
//! position scores its own rows with the decode pass's per-row
//! arithmetic, so every output is bit-identical to sequential decode.
//!
//! The hard part is the **rollback contract**. Scoring a window requires
//! appending the draft rows first (each window query attends to the
//! draft tokens before it), and appends are deeply entangled with the
//! paged cache's policy machinery: block claims, copy-on-write splits of
//! shared tails, Mixed-format demotion, sliding-window eviction,
//! [`BlockCheck`] references, `sumrow(V)` checksum inputs, and the
//! bounded recovery log. When the verifier rejects a suffix, all of that
//! must rewind **exactly** — not approximately — or the engine's
//! bit-identity and fault-localization contracts silently rot. The
//! implementation:
//!
//! * [`DecodeBatch::speculate`] snapshots each windowed sequence's block
//!   list, references, `sumrow`s and log length, switches the arena into
//!   *deferred-frees* mode (a block whose last reference drops mid-window
//!   parks with its lanes intact instead of returning to the free lists,
//!   so demotion/eviction/CoW can run **live** and still be undone), then
//!   appends and scores the window. Mixed-format windows append and
//!   score in *segments* split at block-claim boundaries, one panel per
//!   segment, so demotion fires at exactly the sequential schedule's
//!   steps; F64/BF16 windows are one segment (their appends never change
//!   earlier rows' bits).
//! * [`DecodeBatch::resolve_speculation`] rolls **every** windowed
//!   sequence back to its snapshot (resurrecting parked blocks), flushes
//!   still-unowned parked blocks to the free lists, then **replays** the
//!   accepted prefix through the ordinary append path — so eviction
//!   anchors, demotion timing, CoW splits, checks, `sumrow`s, and log
//!   truncation all land on the exact non-speculative schedule — and
//!   folds the accepted tokens' stored checksum pairs into the session
//!   totals in token order. The headline property (property-tested):
//!   **any accept/reject schedule leaves the engine bit-identical to a
//!   twin that decoded only the accepted tokens sequentially**, across
//!   format × eviction × GQA × shared-prefix × thread count. Physical
//!   block indices and the free-list order may differ from the twin;
//!   every stored lane, check, `sumrow`, total, and output is pinned.
//!
//! Between the two calls the window is *open*: every other mutating
//! entry point asserts it closed, so scrubbing, admission, demotion or
//! quarantine cannot invalidate the snapshots mid-window. One window at
//! a time; `resolve_speculation` with `accepted = 0` is a pure rollback.

use super::guard::WindowVerdict;
use super::pass::{finalize_token, pack_panel};
use super::{BlockCheck, BlockRef, DecodeBatch, DecodeStepOutput, HeadState, KvFormat};
use fa_tensor::{Matrix, Scalar};
use rayon::prelude::*;

/// Rollback snapshot and scored-window state for one speculating
/// sequence.
#[derive(Clone, Debug)]
pub(crate) struct SpecSeq<T: Scalar> {
    /// The windowed sequence id.
    seq: usize,
    /// Cached length when the window opened — every window append
    /// anchors eviction here (the chunked-prefill pattern: no window
    /// query's visible rows may evict before it scores).
    len0: usize,
    /// Snapshot of the retained block list (handles only; the blocks'
    /// stored lanes survive mid-window frees via the deferred-frees
    /// parking lot).
    blocks: Vec<BlockRef>,
    /// Snapshot of the per-block reference checksums.
    checks: Vec<BlockCheck>,
    /// Snapshot of the eviction cursor.
    start: usize,
    /// Snapshot of the demotion counter.
    demoted_rows: usize,
    /// Full `sumrow(V)` snapshot — mid-window demotion refreshes
    /// *pre-window* entries in place (rounded storage), so truncating is
    /// not enough; the clone is `len·kv_heads` f64s, strictly smaller
    /// than one K-panel sweep.
    sumrows: Vec<f64>,
    /// Recovery-log rows retained at open (window appends only extend;
    /// budget truncation is deferred while a window is open).
    log_rows: usize,
    /// Log truncation cursor at open (assert-only: it must not move).
    log_start: usize,
    /// The window's draft K/V rows (`γ × kv_dim` each), kept for the
    /// accepted prefix's replay.
    ks: Vec<T>,
    vs: Vec<T>,
    /// Per window token: the scored (predicted, actual) checksum pair,
    /// folded into the session totals only for accepted tokens — in
    /// token order, bitwise what sequential decode would have folded.
    token_checks: Vec<(f64, f64)>,
}

/// An open speculative window: one `SpecSeq` per windowed sequence,
/// parked on the engine between [`DecodeBatch::speculate`] and
/// [`DecodeBatch::resolve_speculation`].
#[derive(Clone, Debug)]
pub struct SpecWindow<T: Scalar> {
    gamma: usize,
    seqs: Vec<SpecSeq<T>>,
}

impl<T: Scalar> DecodeBatch<T> {
    /// Whether a speculative window is currently open (scored but not
    /// yet resolved).
    pub fn speculative_window_open(&self) -> bool {
        self.spec_window.is_some()
    }

    /// Scores a `gamma`-token speculative window for each listed
    /// sequence in one batched pass over the paged cache, leaving the
    /// window **open**: the draft rows are appended (with live CoW /
    /// demotion / eviction maintenance, all rewindable) and every window
    /// position's checked output is returned, but nothing is committed —
    /// session totals, checked-token counts and the recovery schedule
    /// advance only when [`resolve_speculation`](Self::resolve_speculation)
    /// accepts a prefix.
    ///
    /// Inputs are packed sequence-major: rows `i·gamma .. (i+1)·gamma`
    /// of `qs`/`ks`/`vs` are sequence `seq_ids[i]`'s window, oldest
    /// first. The returned outputs mirror that shape. Each output is
    /// bitwise the [`DecodeStepOutput`] that sequential
    /// [`step_decode`](Self::step_decode) of the same tokens would have
    /// produced — the verifier can therefore accept any prefix and the
    /// commit is exact, not approximate.
    ///
    /// Bandwidth: each segment is one panel pass per kv head, so each
    /// retained K/V block streams once per window for all `gamma`
    /// queries instead of once per token — the sweep amortization the
    /// bench measures. Mixed-format sequences split the window into
    /// segments at block-claim boundaries (demotion must fire between
    /// the right two tokens); F64/BF16 sequences always score in one
    /// segment.
    ///
    /// # Panics
    ///
    /// Panics if a window is already open, `gamma == 0`, shapes don't
    /// match `batch·gamma` rows, or any id is unknown, retired, pending,
    /// or duplicated.
    pub fn speculate(
        &mut self,
        seq_ids: &[usize],
        qs: &Matrix<T>,
        ks: &Matrix<T>,
        vs: &Matrix<T>,
        gamma: usize,
    ) -> Vec<Vec<DecodeStepOutput>> {
        self.assert_no_window();
        assert!(gamma > 0, "speculative window must hold at least one token");
        let batch = seq_ids.len();
        assert_eq!(qs.cols(), self.cfg.q_dim(), "Q width mismatch");
        assert_eq!(ks.cols(), self.cfg.kv_dim(), "K width mismatch");
        assert_eq!(vs.cols(), self.cfg.kv_dim(), "V width mismatch");
        assert_eq!(qs.rows(), batch * gamma, "gamma Q rows per sequence id");
        assert_eq!(ks.rows(), batch * gamma, "gamma K rows per sequence id");
        assert_eq!(vs.rows(), batch * gamma, "gamma V rows per sequence id");
        for (i, &s) in seq_ids.iter().enumerate() {
            assert!(s < self.num_sequences(), "unknown sequence id {s}");
            assert!(!self.cache.is_retired(s), "sequence {s} is retired");
            assert!(
                !self.is_pending(s),
                "sequence {s} still has pending prompt chunks"
            );
            assert!(
                !seq_ids[..i].contains(&s),
                "duplicate sequence id {s} in one window"
            );
        }

        // Snapshot every windowed sequence, then open the window BEFORE
        // any append: the open window both parks last-reference frees
        // (lanes stay intact for rollback) and defers recovery-log
        // budget truncation (leading-row drops are not tail-reversible).
        let width = self.cache.width;
        let specs: Vec<SpecSeq<T>> = seq_ids
            .iter()
            .enumerate()
            .map(|(i, &seq)| {
                let sb = &self.cache.seqs[seq];
                let st = &self.seqs[seq];
                SpecSeq {
                    seq,
                    len0: sb.len,
                    blocks: sb.blocks.clone(),
                    checks: sb.checks.clone(),
                    start: sb.start,
                    demoted_rows: sb.demoted_rows,
                    sumrows: st.sumrows.clone(),
                    log_rows: st.log_k.len() / width,
                    log_start: st.log_start,
                    ks: {
                        let mut rows = Vec::with_capacity(gamma * width);
                        for j in 0..gamma {
                            rows.extend_from_slice(ks.row(i * gamma + j));
                        }
                        rows
                    },
                    vs: {
                        let mut rows = Vec::with_capacity(gamma * width);
                        for j in 0..gamma {
                            rows.extend_from_slice(vs.row(i * gamma + j));
                        }
                        rows
                    },
                    token_checks: Vec::with_capacity(gamma),
                }
            })
            .collect();
        let len0s: Vec<usize> = specs.iter().map(|s| s.len0).collect();
        self.cache.begin_deferred_frees();
        self.spec_window = Some(SpecWindow { gamma, seqs: specs });

        // Segment the window at block-claim boundaries for Mixed format:
        // a claim is exactly when the appended position is a multiple of
        // block_rows (`start` is always block-aligned), and claims are
        // when demotion fires — scoring must interleave so each query
        // sees the storage formats its sequential twin saw. F64/BF16
        // appends never change earlier rows' bits (CoW copies bitwise),
        // so the whole window is one segment.
        let br = self.cache.block_rows();
        let mixed = matches!(self.cache.format(), KvFormat::Mixed { .. });
        let mut phases: Vec<Vec<(usize, usize, usize)>> = Vec::new();
        for (i, &len0) in len0s.iter().enumerate() {
            let mut bounds = vec![0usize];
            if mixed {
                for j in 1..gamma {
                    if (len0 + j) % br == 0 {
                        bounds.push(j);
                    }
                }
            }
            bounds.push(gamma);
            for (p, w) in bounds.windows(2).enumerate() {
                if phases.len() <= p {
                    phases.push(Vec::new());
                }
                phases[p].push((i, w[0], w[1]));
            }
        }

        let kv = self.cfg.kv_heads;
        let gs = self.cfg.group_size();
        let d = self.cfg.head.head_dim();
        let mut outputs: Vec<Vec<DecodeStepOutput>> =
            (0..batch).map(|_| Vec::with_capacity(gamma)).collect();
        for phase in &phases {
            // Serial appends for this phase's segments, anchored at each
            // sequence's pre-window length.
            for &(i, j0, j1) in phase {
                let seq = seq_ids[i];
                for j in j0..j1 {
                    let r = i * gamma + j;
                    self.append_token_anchored(seq, ks.row(r), vs.row(r), len0s[i]);
                }
            }
            // One fork over (segment × kv head) panels — same fork shape
            // and threshold family as `run_passes`, and the same pass, so
            // thread count cannot affect bits.
            let work = phase.len() * kv;
            let max_len = phase
                .iter()
                .map(|&(i, _, _)| self.cache.seq_len(seq_ids[i]))
                .max()
                .unwrap_or(0);
            let pass = |flat: usize| {
                let (u, g) = (flat / kv, flat % kv);
                let (i, j0, j1) = phase[u];
                let rows = i * gamma + j0..i * gamma + j1;
                let queries = pack_panel(qs, rows, self.cfg.group_q_cols(g));
                self.panel_pass(seq_ids[i], g, &queries, len0s[i] + j0, true, None)
            };
            let states: Vec<Vec<HeadState>> =
                if crate::par::worth_parallelizing(work, max_len, d * gs * gamma) {
                    (0..work).into_par_iter().map(pass).collect()
                } else {
                    (0..work).map(pass).collect()
                };
            // Finalize each window token exactly as `step_decode` does —
            // query heads in order (kv-group major, member minor ==
            // ascending query head) — but fold nothing into the session
            // totals; the pairs park in the window.
            for (u, &(i, j0, j1)) in phase.iter().enumerate() {
                let units = &states[u * kv..(u + 1) * kv];
                for j in 0..j1 - j0 {
                    let heads = units.iter().flat_map(|unit| &unit[j * gs..(j + 1) * gs]);
                    let out = finalize_token(self.cfg.q_dim(), heads);
                    let win = self.spec_window.as_mut().expect("window is open");
                    win.seqs[i].token_checks.push((out.predicted, out.actual));
                    outputs[i].push(out);
                }
            }
        }
        outputs
    }

    /// Closes the open window: rolls **every** windowed sequence back to
    /// its snapshot, then replays `accepted[i]` tokens of sequence `i`'s
    /// window through the ordinary append path and folds their stored
    /// checksum pairs into the session totals in token order. After this
    /// returns, the engine is bit-identical (stored lanes, checks,
    /// `sumrow`s, totals, lengths, logs) to a twin that decoded only the
    /// accepted tokens sequentially; only physical block placement and
    /// the recycling counters may differ.
    ///
    /// `accepted[i] == 0` is a pure rollback (a rejected or alarmed
    /// window); `accepted[i] == gamma` still rolls back and replays, so
    /// eviction/demotion/log maintenance land on the canonical
    /// non-speculative schedule.
    ///
    /// Returns one [`WindowVerdict`] per sequence — the fused checksum
    /// verdict over each accepted prefix.
    ///
    /// # Panics
    ///
    /// Panics if no window is open, `accepted.len()` doesn't match the
    /// windowed sequences, or any count exceeds the window length.
    pub fn resolve_speculation(&mut self, accepted: &[usize]) -> Vec<WindowVerdict> {
        let win = self
            .spec_window
            .take()
            .expect("no speculative window is open");
        assert_eq!(
            accepted.len(),
            win.seqs.len(),
            "one accepted count per windowed sequence"
        );
        for (s, &a) in win.seqs.iter().zip(accepted) {
            assert!(
                a <= win.gamma,
                "accepted {a} tokens from a {}-token window for sequence {}",
                win.gamma,
                s.seq
            );
        }
        let width = self.cache.width;
        // Restore snapshots. Resurrect every snapshot block FIRST, then
        // release every current block: a block present in both lists
        // never transits through zero, one present only in the snapshot
        // (CoW'd, demoted, or evicted mid-window — parked with lanes
        // intact) comes back to its pre-window count, and one present
        // only in the current list (claimed mid-window) drops to zero
        // and parks for the flush below.
        for s in &win.seqs {
            for &b in &s.blocks {
                self.cache.resurrect_block(b);
            }
            let sb = &mut self.cache.seqs[s.seq];
            let current = core::mem::replace(&mut sb.blocks, s.blocks.clone());
            sb.checks = s.checks.clone();
            sb.start = s.start;
            sb.len = s.len0;
            sb.demoted_rows = s.demoted_rows;
            for b in current {
                self.cache.release_block(b);
            }
            let st = &mut self.seqs[s.seq];
            st.sumrows.clone_from(&s.sumrows);
            debug_assert_eq!(
                st.log_start, s.log_start,
                "recovery-log truncation ran mid-window"
            );
            st.log_k.truncate(s.log_rows * width);
            st.log_v.truncate(s.log_rows * width);
        }
        // The window is closed: blocks nobody resurrected return to the
        // free lists and appends resume normal immediate frees.
        self.cache.flush_deferred_frees();

        // Replay the accepted prefixes through the ordinary append path
        // — eviction anchors at the growing length, demotion fires at
        // claims, CoW splits re-run, and log truncation resumes, all on
        // the exact schedule sequential decode would have used.
        let mut verdicts = Vec::with_capacity(win.seqs.len());
        for (s, &a) in win.seqs.iter().zip(accepted) {
            let mut predicted = 0.0f64;
            let mut actual = 0.0f64;
            for t in 0..a {
                self.append_token(
                    s.seq,
                    &s.ks[t * width..(t + 1) * width],
                    &s.vs[t * width..(t + 1) * width],
                );
                let (p, act) = s.token_checks[t];
                let st = &mut self.seqs[s.seq];
                st.totals.0 += p;
                st.totals.1 += act;
                st.checked_steps += 1;
                predicted += p;
                actual += act;
            }
            verdicts.push(WindowVerdict {
                seq: s.seq,
                accepted: a,
                predicted,
                actual,
            });
        }
        verdicts
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

    fn engine(format: KvFormat, eviction: EvictionPolicy, topo: HeadTopology) -> DecodeBatch<f64> {
        DecodeBatch::with_policy(topo, 4, KvLayout::HeadMajor, format, eviction)
    }

    /// The policy sweep every speculative golden runs: format × eviction
    /// × topology, including the Mixed/sliding-window/GQA corners.
    fn combos() -> Vec<(KvFormat, EvictionPolicy, HeadTopology)> {
        let formats = [
            KvFormat::F64,
            KvFormat::Bf16,
            KvFormat::Mixed { burst_blocks: 1 },
        ];
        let evictions = [
            EvictionPolicy::RetainAll,
            EvictionPolicy::SlidingWindow { window_blocks: 3 },
        ];
        let topos = [
            HeadTopology::mha(2, AttentionConfig::new(4)),
            HeadTopology::gqa(4, 2, AttentionConfig::new(4)),
        ];
        let mut out = Vec::new();
        for f in formats {
            for e in evictions {
                for t in topos {
                    out.push((f, e, t));
                }
            }
        }
        out
    }

    /// Asserts two engines' **logical** sequence state is bitwise equal:
    /// retained rows, references, sumrows, totals, lengths. Physical
    /// block indices are free to differ.
    fn assert_twin(a: &DecodeBatch<f64>, b: &DecodeBatch<f64>, seq: usize, what: &str) {
        assert_eq!(a.seq_len(seq), b.seq_len(seq), "{what}: length");
        assert_eq!(
            a.cache().first_retained(seq),
            b.cache().first_retained(seq),
            "{what}: eviction cursor"
        );
        assert_eq!(
            a.demoted_len(seq),
            b.demoted_len(seq),
            "{what}: demoted rows"
        );
        for p in a.cache().first_retained(seq)..a.seq_len(seq) {
            assert_eq!(
                a.cache().key_row(seq, p),
                b.cache().key_row(seq, p),
                "{what}: key row {p}"
            );
            assert_eq!(
                a.cache().value_row(seq, p),
                b.cache().value_row(seq, p),
                "{what}: value row {p}"
            );
        }
        let (ca, cb) = (a.cache().block_checks(seq), b.cache().block_checks(seq));
        assert_eq!(ca.len(), cb.len(), "{what}: retained block count");
        for (bi, (x, y)) in ca.iter().zip(cb).enumerate() {
            for g in 0..x.ksum.len() {
                assert_eq!(
                    x.ksum[g].to_bits(),
                    y.ksum[g].to_bits(),
                    "{what}: block {bi} ksum head {g}"
                );
                assert_eq!(
                    x.vsum[g].to_bits(),
                    y.vsum[g].to_bits(),
                    "{what}: block {bi} vsum head {g}"
                );
            }
        }
        assert_eq!(
            a.seqs[seq].sumrows.len(),
            b.seqs[seq].sumrows.len(),
            "{what}: sumrow count"
        );
        for (i, (x, y)) in a.seqs[seq]
            .sumrows
            .iter()
            .zip(&b.seqs[seq].sumrows)
            .enumerate()
        {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: sumrow {i}");
        }
        assert_eq!(
            a.seqs[seq].totals.0.to_bits(),
            b.seqs[seq].totals.0.to_bits(),
            "{what}: predicted total"
        );
        assert_eq!(
            a.seqs[seq].totals.1.to_bits(),
            b.seqs[seq].totals.1.to_bits(),
            "{what}: actual total"
        );
        assert_eq!(
            a.seqs[seq].log_k.len(),
            b.seqs[seq].log_k.len(),
            "{what}: log rows"
        );
        assert_eq!(a.seqs[seq].log_k, b.seqs[seq].log_k, "{what}: log K");
        assert_eq!(a.seqs[seq].log_v, b.seqs[seq].log_v, "{what}: log V");
    }

    /// A (speculative, sequential-twin) engine pair: same policies, same
    /// two prefilled sequences.
    fn pair(
        format: KvFormat,
        eviction: EvictionPolicy,
        topo: HeadTopology,
        prefill: usize,
    ) -> (DecodeBatch<f64>, DecodeBatch<f64>, Vec<usize>) {
        let mut spec = engine(format, eviction, topo);
        let mut twin = engine(format, eviction, topo);
        let ids: Vec<usize> = (0..2).map(|_| spec.add_sequence()).collect();
        for _ in 0..2 {
            twin.add_sequence();
        }
        for (i, &id) in ids.iter().enumerate() {
            let k = rand(prefill, topo.kv_dim(), 300 + i as u64);
            let v = rand(prefill, topo.kv_dim(), 400 + i as u64);
            spec.prefill(id, &k, &v);
            twin.prefill(id, &k, &v);
        }
        (spec, twin, ids)
    }

    /// Window inputs for `ids`: sequence-major γ rows per sequence, plus
    /// the per-token views the sequential twin consumes.
    fn window(
        ids: &[usize],
        topo: HeadTopology,
        gamma: usize,
        seed: u64,
    ) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        let n = ids.len() * gamma;
        (
            rand(n, topo.q_dim(), seed),
            rand(n, topo.kv_dim(), seed + 1),
            rand(n, topo.kv_dim(), seed + 2),
        )
    }

    /// Row `i·gamma + t` of the window matrices, re-packed as the twin's
    /// one-token-per-sequence step input.
    fn token_step(m: &Matrix<f64>, ids_len: usize, gamma: usize, t: usize) -> Matrix<f64> {
        let rows: Vec<&[f64]> = (0..ids_len).map(|i| m.row(i * gamma + t)).collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn full_accept_is_bitwise_sequential_decode() {
        for (format, eviction, topo) in combos() {
            let gamma = 4;
            let (mut spec, mut twin, ids) = pair(format, eviction, topo, 10);
            let (qs, ks, vs) = window(&ids, topo, gamma, 77);
            let outs = spec.speculate(&ids, &qs, &ks, &vs, gamma);
            let mut twin_outs: Vec<Vec<super::DecodeStepOutput>> =
                ids.iter().map(|_| Vec::new()).collect();
            for t in 0..gamma {
                let step = twin.step_decode(
                    &ids,
                    &token_step(&qs, ids.len(), gamma, t),
                    &token_step(&ks, ids.len(), gamma, t),
                    &token_step(&vs, ids.len(), gamma, t),
                );
                for (i, o) in step.into_iter().enumerate() {
                    twin_outs[i].push(o);
                }
            }
            for (i, (sw, tw)) in outs.iter().zip(&twin_outs).enumerate() {
                for (t, (so, to)) in sw.iter().zip(tw).enumerate() {
                    assert_eq!(
                        so.predicted.to_bits(),
                        to.predicted.to_bits(),
                        "{format:?}/{eviction:?} seq {i} token {t} predicted"
                    );
                    assert_eq!(
                        so.actual.to_bits(),
                        to.actual.to_bits(),
                        "{format:?}/{eviction:?} seq {i} token {t} actual"
                    );
                    for (c, (x, y)) in so.output.iter().zip(&to.output).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{format:?}/{eviction:?} seq {i} token {t} lane {c}"
                        );
                    }
                }
            }
            let verdicts = spec.resolve_speculation(&vec![gamma; ids.len()]);
            for (v, &id) in verdicts.iter().zip(&ids) {
                assert_eq!(v.seq, id);
                assert_eq!(v.accepted, gamma);
            }
            for &id in &ids {
                assert_twin(
                    &spec,
                    &twin,
                    id,
                    &format!("{format:?}/{eviction:?} full accept"),
                );
                assert!(spec.rewind_checks_clean(id));
            }
        }
    }

    #[test]
    fn reject_all_is_a_pure_rollback() {
        for (format, eviction, topo) in combos() {
            let gamma = 5; // spans a block-claim boundary at block_rows=4
            let (mut spec, _twin, ids) = pair(format, eviction, topo, 10);
            let golden = spec.clone();
            let (qs, ks, vs) = window(&ids, topo, gamma, 909);
            spec.speculate(&ids, &qs, &ks, &vs, gamma);
            assert!(spec.speculative_window_open());
            let verdicts = spec.resolve_speculation(&vec![0; ids.len()]);
            assert!(!spec.speculative_window_open());
            for v in &verdicts {
                assert_eq!(v.accepted, 0);
                assert_eq!(v.predicted, 0.0);
                assert_eq!(v.actual, 0.0);
            }
            for &id in &ids {
                assert_twin(
                    &spec,
                    &golden,
                    id,
                    &format!("{format:?}/{eviction:?} reject-all"),
                );
                assert!(spec.rewind_checks_clean(id));
            }
            // The arena leaks nothing: every mid-window claim returned.
            assert_eq!(
                spec.cache().live_unique_blocks(),
                golden.cache().live_unique_blocks(),
                "{format:?}/{eviction:?}: live blocks after pure rollback"
            );
        }
    }

    #[test]
    fn partial_accept_replays_bit_identical_and_decodes_on() {
        for (format, eviction, topo) in combos() {
            let gamma = 5;
            for accept in 0..=gamma {
                let (mut spec, mut twin, ids) = pair(format, eviction, topo, 10);
                let (qs, ks, vs) = window(&ids, topo, gamma, 4242);
                spec.speculate(&ids, &qs, &ks, &vs, gamma);
                spec.resolve_speculation(&vec![accept; ids.len()]);
                for t in 0..accept {
                    twin.step_decode(
                        &ids,
                        &token_step(&qs, ids.len(), gamma, t),
                        &token_step(&ks, ids.len(), gamma, t),
                        &token_step(&vs, ids.len(), gamma, t),
                    );
                }
                for &id in &ids {
                    assert_twin(
                        &spec,
                        &twin,
                        id,
                        &format!("{format:?}/{eviction:?} accept {accept}/{gamma}"),
                    );
                }
                // Post-rollback decode stays in lockstep with the twin.
                for t in 0..3 {
                    let q = rand(ids.len(), topo.q_dim(), 7000 + t);
                    let k = rand(ids.len(), topo.kv_dim(), 7100 + t);
                    let v = rand(ids.len(), topo.kv_dim(), 7200 + t);
                    let a = spec.step_decode(&ids, &q, &k, &v);
                    let b = twin.step_decode(&ids, &q, &k, &v);
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(x.predicted.to_bits(), y.predicted.to_bits());
                        assert_eq!(x.actual.to_bits(), y.actual.to_bits());
                        for (xa, ya) in x.output.iter().zip(&y.output) {
                            assert_eq!(xa.to_bits(), ya.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shared_prefix_window_rolls_back_cow_splits() {
        let topo = HeadTopology::gqa(4, 2, AttentionConfig::new(4));
        let mut spec = engine(KvFormat::F64, EvictionPolicy::RetainAll, topo);
        let mut twin = engine(KvFormat::F64, EvictionPolicy::RetainAll, topo);
        // A 6-row prefix leaves the shared tail block half-filled, so
        // the first *window* append must CoW-split it.
        let pk = rand(6, topo.kv_dim(), 1);
        let pv = rand(6, topo.kv_dim(), 2);
        let pq = rand(6, topo.q_dim(), 3);
        let pid_s = spec.register_prefix(&pq, &pk, &pv);
        let pid_t = twin.register_prefix(&pq, &pk, &pv);
        let empty_q = Matrix::zeros(0, topo.q_dim());
        let empty_kv = Matrix::zeros(0, topo.kv_dim());
        let mut ids = Vec::new();
        for _ in 0..2u64 {
            ids.push(spec.enqueue_shared(pid_s, &empty_q, &empty_kv, &empty_kv));
            twin.enqueue_shared(pid_t, &empty_q, &empty_kv, &empty_kv);
        }
        let golden = spec.clone();
        let gamma = 4;
        let (qs, ks, vs) = window(&ids, topo, gamma, 5150);
        let before = spec.cache().cow_copies();
        spec.speculate(&ids, &qs, &ks, &vs, gamma);
        assert!(
            spec.cache().cow_copies() > before,
            "window appends into a shared tail must CoW-split"
        );
        spec.resolve_speculation(&[0, 0]);
        for &id in &ids {
            assert_twin(&spec, &golden, id, "shared-prefix reject-all");
            assert!(spec.rewind_checks_clean(id));
        }
        // The shared prefix is still registered and intact for new readers.
        assert_eq!(spec.prefix_readers(pid_s), 2);
        // Accept a prefix on a fresh window and stay lockstep with the twin.
        spec.speculate(&ids, &qs, &ks, &vs, gamma);
        spec.resolve_speculation(&[2, 2]);
        for t in 0..2 {
            twin.step_decode(
                &ids,
                &token_step(&qs, ids.len(), gamma, t),
                &token_step(&ks, ids.len(), gamma, t),
                &token_step(&vs, ids.len(), gamma, t),
            );
        }
        for &id in &ids {
            assert_twin(&spec, &twin, id, "shared-prefix accept 2");
        }
    }

    #[test]
    fn mutating_entry_points_refuse_an_open_window() {
        let topo = HeadTopology::mha(2, AttentionConfig::new(4));
        let mut b = engine(KvFormat::F64, EvictionPolicy::RetainAll, topo);
        let id = b.add_sequence();
        b.prefill(id, &rand(6, topo.kv_dim(), 1), &rand(6, topo.kv_dim(), 2));
        let (qs, ks, vs) = window(&[id], topo, 2, 9);
        b.speculate(&[id], &qs, &ks, &vs, 2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.step_decode(
                &[id],
                &rand(1, topo.q_dim(), 3),
                &rand(1, topo.kv_dim(), 4),
                &rand(1, topo.kv_dim(), 5),
            )
        }));
        assert!(r.is_err(), "step_decode must refuse an open window");
        b.resolve_speculation(&[1]);
        // Closed again: ordinary decode resumes.
        b.step_decode(
            &[id],
            &rand(1, topo.q_dim(), 3),
            &rand(1, topo.kv_dim(), 4),
            &rand(1, topo.kv_dim(), 5),
        );
    }

    #[test]
    fn recovery_log_rewinds_with_the_window() {
        let topo = HeadTopology::mha(2, AttentionConfig::new(4));
        let mk = || {
            let mut b = engine(
                KvFormat::F64,
                EvictionPolicy::SlidingWindow { window_blocks: 3 },
                topo,
            );
            b.enable_recovery_log();
            b.set_recovery_log_budget(Some(8));
            b
        };
        let mut spec = mk();
        let mut twin = mk();
        let id = spec.add_sequence();
        twin.add_sequence();
        let (k, v) = (rand(10, topo.kv_dim(), 1), rand(10, topo.kv_dim(), 2));
        spec.prefill(id, &k, &v);
        twin.prefill(id, &k, &v);
        let gamma = 6;
        let (qs, ks, vs) = window(&[id], topo, gamma, 99);
        spec.speculate(&[id], &qs, &ks, &vs, gamma);
        spec.resolve_speculation(&[3]);
        for t in 0..3 {
            twin.step_decode(
                &[id],
                &token_step(&qs, 1, gamma, t),
                &token_step(&ks, 1, gamma, t),
                &token_step(&vs, 1, gamma, t),
            );
        }
        assert_twin(&spec, &twin, id, "bounded log, accept 3/6");
        assert_eq!(spec.seq_log_rows(id), twin.seq_log_rows(id));
    }
}
