//! Checked autoregressive decoding.
//!
//! Each generated token's attention row is one query of Alg. 3: the
//! merged accumulator computes the output *and* its checksum lane in one
//! pass over the KV cache, and the per-token check `c_N/ℓ_N` is compared
//! against the row sum immediately — token-granular detection latency,
//! the tightest recovery loop the fused checksum enables.
//!
//! Scores go through the same SIMD [`fa_tensor::ops::dot_then_scale`]
//! kernel as the batched engines, so this session is the **bit-exact
//! golden model** for `fa_attention::batch::DecodeBatch`'s per-(sequence,
//! head) decode — the continuous-batching property tests pin the batched
//! path against it token for token. The cache itself stays deliberately
//! naive (one heap row per token): it is also the per-sequence serving
//! baseline the decode benchmarks measure the paged engine against.

use crate::checker::{ChecksumReport, FlashAbftChecker};
use crate::online::OnlineChecked;
use fa_attention::{AttentionConfig, HeadTopology};
use fa_numerics::Tolerance;
use fa_tensor::{online::MergedAccumulator, Matrix, Scalar};

/// One decode step's output and verification.
#[derive(Clone, Debug)]
pub struct CheckedDecodeStep {
    /// The attention row for the new token.
    pub output: Vec<f64>,
    /// The verification report (per-token check vs row sum).
    pub report: ChecksumReport,
}

/// A decoding session with per-token Flash-ABFT checking.
///
/// # Example
///
/// ```
/// use fa_attention::AttentionConfig;
/// use flash_abft::decode::CheckedDecodeSession;
///
/// let mut session = CheckedDecodeSession::new(AttentionConfig::new(2));
/// let step = session.step(&[1.0, 0.0], &[0.5, 0.5], &[2.0, 4.0]);
/// assert!(!step.report.is_alarm());
/// assert_eq!(step.output, vec![2.0, 4.0]);
/// ```
#[derive(Clone, Debug)]
pub struct CheckedDecodeSession {
    cfg: AttentionConfig,
    checker: FlashAbftChecker,
    keys: Vec<Vec<f64>>,
    values: Vec<Vec<f64>>,
    sumrows: Vec<f64>,
    /// Accumulated global check over all generated tokens (Alg. 3 line 11).
    global_check: f64,
    /// Accumulated actual output checksum over all tokens.
    global_actual: f64,
}

impl CheckedDecodeSession {
    /// Creates an empty checked session with the paper's tolerance.
    pub fn new(cfg: AttentionConfig) -> Self {
        CheckedDecodeSession {
            cfg,
            checker: FlashAbftChecker::default(),
            keys: Vec::new(),
            values: Vec::new(),
            sumrows: Vec::new(),
            global_check: 0.0,
            global_actual: 0.0,
        }
    }

    /// Overrides the tolerance.
    pub fn with_tolerance(mut self, tolerance: Tolerance) -> Self {
        self.checker = FlashAbftChecker::new(tolerance);
        self
    }

    /// Pre-fills the cache from prompt Q/K/V matrices (N×d) **and**
    /// checks the prompt's causal self-attention through
    /// [`crate::flash2_with_checksum`], folding the prompt's (predicted,
    /// actual) checksums into the session totals — so
    /// [`global_report`](Self::global_report) covers every prefill token
    /// as well as every generated one. The returned [`OnlineChecked`]
    /// carries the prompt output and its per-query checks.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, or if the session already holds cached
    /// positions (the kernel checks a whole prompt against an empty
    /// history).
    pub fn prefill_checked<T: Scalar>(
        &mut self,
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
    ) -> OnlineChecked<T> {
        assert!(self.is_empty(), "prefill_checked requires an empty session");
        let checked = crate::online::flash2_with_checksum(q, k, v, &self.cfg.with_causal(true));
        self.prefill(k, v);
        self.global_check += checked.predicted;
        self.global_actual += checked.actual;
        checked
    }

    /// Pre-fills the cache from prompt K/V matrices (N×d) without
    /// computing attention — for prompts whose pass was checked elsewhere
    /// ([`prefill_checked`](Self::prefill_checked) is the self-contained
    /// form); this session then checks every *generated* token against
    /// that history.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn prefill<T: Scalar>(&mut self, k: &Matrix<T>, v: &Matrix<T>) {
        let d = self.cfg.head_dim();
        assert_eq!(k.cols(), d, "K width mismatch");
        assert_eq!(v.cols(), d, "V width mismatch");
        assert_eq!(k.rows(), v.rows(), "K/V row count mismatch");
        for i in 0..k.rows() {
            let kf: Vec<f64> = k.row(i).iter().map(|x| x.to_f64()).collect();
            let vf: Vec<f64> = v.row(i).iter().map(|x| x.to_f64()).collect();
            self.sumrows.push(vf.iter().sum());
            self.keys.push(kf);
            self.values.push(vf);
        }
    }

    /// Rounds the cached K/V rows in `range` through BF16
    /// (round-to-nearest-even, the `fa_numerics::bf16` helper) and
    /// **recomputes their checksum inputs** (`sumrow_i = Σ_c v_i[c]`)
    /// from the rounded values — the checked golden-model replay of
    /// `fa_attention::batch::KvCache` block demotion. Rows crossing the
    /// format boundary leave the full-precision checked window
    /// explicitly: every later per-token check predicts against the
    /// rounded values the output lanes actually consume, so verdicts
    /// stay exact (a mixed-format `DecodeBatch` that demoted exactly
    /// these positions keeps matching this session bit for bit,
    /// checksum lane included).
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the cached length.
    pub fn demote_cached(&mut self, range: core::ops::Range<usize>) {
        for i in range {
            for x in self.keys[i].iter_mut() {
                *x = fa_numerics::BF16::from_f64(*x).to_f64();
            }
            for x in self.values[i].iter_mut() {
                *x = fa_numerics::BF16::from_f64(*x).to_f64();
            }
            self.sumrows[i] = self.values[i].iter().sum();
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The running global check over all tokens so far (predicted,
    /// actual) — the session-level comparison of Alg. 3.
    pub fn global_report(&self) -> ChecksumReport {
        self.checker.compare(self.global_check, self.global_actual)
    }

    /// Residual of position `i`'s stored checksum input against its
    /// stored V row: `sumrow_i − Σ_c v_i[c]`. Exactly zero in a healthy
    /// session (both sides fold the same lanes in the same order), so a
    /// nonzero residual pins corruption to position `i`'s checker state
    /// or V storage — the per-position verdict the paged engine's
    /// block-checksum audit queries at block granularity.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sumrow_residual(&self, i: usize) -> f64 {
        self.sumrows[i] - self.values[i].iter().sum::<f64>()
    }

    /// Per-block verdicts over the cached history: chunks positions into
    /// blocks of `block_rows` (the paged engine's block size) and sums
    /// each block's [`sumrow_residual`](Self::sumrow_residual). A healthy
    /// session returns all-zero; a poisoned sumrow or V row perturbs
    /// exactly its own block's entry, localizing the fault to
    /// (block index, offset range) without touching the other blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_rows` is zero.
    pub fn block_residuals(&self, block_rows: usize) -> Vec<f64> {
        assert!(block_rows > 0, "block_rows must be nonzero");
        let mut out = Vec::with_capacity(self.len().div_ceil(block_rows));
        for start in (0..self.len()).step_by(block_rows) {
            let end = (start + block_rows).min(self.len());
            out.push((start..end).map(|i| self.sumrow_residual(i)).sum());
        }
        out
    }

    /// Appends the token's K/V and computes its checked attention row.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch with the head dimension.
    pub fn step<T: Scalar>(&mut self, q: &[T], k: &[T], v: &[T]) -> CheckedDecodeStep {
        let d = self.cfg.head_dim();
        assert_eq!(q.len(), d, "query length mismatch");
        assert_eq!(k.len(), d, "key length mismatch");
        assert_eq!(v.len(), d, "value length mismatch");
        let kf: Vec<f64> = k.iter().map(|x| x.to_f64()).collect();
        let vf: Vec<f64> = v.iter().map(|x| x.to_f64()).collect();
        self.sumrows.push(vf.iter().sum());
        self.keys.push(kf);
        self.values.push(vf);

        let qf: Vec<f64> = q.iter().map(|x| x.to_f64()).collect();
        let newest = self.keys.len() - 1;
        // Visible cache positions: the causal window interval ending at
        // the newest position.
        let lo = self
            .cfg
            .with_causal(true)
            .visible_range(newest, self.keys.len())
            .start;
        let mut acc = MergedAccumulator::new(d);
        for i in lo..self.keys.len() {
            // The same SIMD score kernel as the batched decode engines —
            // the widened operands make the products identical to dotting
            // the stored formats directly, so this session stays the
            // bit-exact golden model for `DecodeBatch`.
            let s = fa_tensor::ops::dot_then_scale(&qf, &self.keys[i], self.cfg.scale());
            acc.step_with_sumrow(s, &self.values[i], self.sumrows[i]);
        }
        let (output, check) = acc.normalized().expect("at least the new token is visible");
        let output: Vec<f64> = output.collect();
        let row_sum: f64 = output.iter().sum();
        self.global_check += check;
        self.global_actual += row_sum;
        CheckedDecodeStep {
            output,
            report: self.checker.compare(check, row_sum),
        }
    }
}

/// A grouped-query decoding session with per-token Flash-ABFT checking:
/// **one** K/V history (and one `sumrow(V)` stream) per kv head, shared
/// by all `group_size` query heads of its group — the checked GQA-aware
/// golden model for `fa_attention::batch::DecodeBatch` with a grouped
/// topology.
///
/// The shared per-group `sumrow(V)` is the hardware saving the paper
/// notes GQA inherits for free: the checksum lane's Eq. 4 input depends
/// only on the (shared) V rows, so one stream serves the whole group
/// while each query head keeps its own exact per-token verdict. Per
/// query head the arithmetic is exactly [`CheckedDecodeSession::step`]
/// against that head's group K/V, bit for bit.
#[derive(Clone, Debug)]
pub struct CheckedGqaDecodeSession {
    topo: HeadTopology,
    checker: FlashAbftChecker,
    /// `keys[g][i]` is kv head `g`'s cached key row at position `i`.
    keys: Vec<Vec<Vec<f64>>>,
    values: Vec<Vec<Vec<f64>>>,
    /// `sumrows[g][i] = Σ_c values[g][i][c]` — one entry per (kv head,
    /// position), read by every query head of group `g`.
    sumrows: Vec<Vec<f64>>,
    global_check: f64,
    global_actual: f64,
}

impl CheckedGqaDecodeSession {
    /// Creates an empty checked session with the paper's tolerance.
    pub fn new(topo: HeadTopology) -> Self {
        CheckedGqaDecodeSession {
            topo,
            checker: FlashAbftChecker::default(),
            keys: vec![Vec::new(); topo.kv_heads],
            values: vec![Vec::new(); topo.kv_heads],
            sumrows: vec![Vec::new(); topo.kv_heads],
            global_check: 0.0,
            global_actual: 0.0,
        }
    }

    /// Overrides the tolerance.
    pub fn with_tolerance(mut self, tolerance: Tolerance) -> Self {
        self.checker = FlashAbftChecker::new(tolerance);
        self
    }

    /// The head topology.
    pub fn topology(&self) -> HeadTopology {
        self.topo
    }

    /// Number of cached positions (identical for every kv head).
    pub fn len(&self) -> usize {
        self.keys[0].len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.keys[0].is_empty()
    }

    /// Pre-fills every kv head's cache from packed prompt K/V matrices
    /// (`N × kv_dim`) without computing attention.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn prefill<T: Scalar>(&mut self, k: &Matrix<T>, v: &Matrix<T>) {
        assert_eq!(k.cols(), self.topo.kv_dim(), "K width mismatch");
        assert_eq!(v.cols(), self.topo.kv_dim(), "V width mismatch");
        assert_eq!(k.rows(), v.rows(), "K/V row count mismatch");
        for i in 0..k.rows() {
            for g in 0..self.topo.kv_heads {
                let cols = self.topo.kv_head_cols(g);
                let kf: Vec<f64> = k.row(i)[cols.clone()].iter().map(|x| x.to_f64()).collect();
                let vf: Vec<f64> = v.row(i)[cols].iter().map(|x| x.to_f64()).collect();
                self.sumrows[g].push(vf.iter().sum());
                self.keys[g].push(kf);
                self.values[g].push(vf);
            }
        }
    }

    /// Rounds every kv head's cached K/V rows in `range` through BF16
    /// (RNE) and recomputes the shared per-group `sumrow` inputs from the
    /// rounded values — the checked golden-model replay of `KvCache`
    /// block demotion for grouped topologies.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the cached length.
    pub fn demote_cached(&mut self, range: core::ops::Range<usize>) {
        for i in range {
            for g in 0..self.topo.kv_heads {
                for x in self.keys[g][i].iter_mut() {
                    *x = fa_numerics::BF16::from_f64(*x).to_f64();
                }
                for x in self.values[g][i].iter_mut() {
                    *x = fa_numerics::BF16::from_f64(*x).to_f64();
                }
                self.sumrows[g][i] = self.values[g][i].iter().sum();
            }
        }
    }

    /// The running global check over all query heads and tokens so far.
    pub fn global_report(&self) -> ChecksumReport {
        self.checker.compare(self.global_check, self.global_actual)
    }

    /// Residual of kv head `g`'s stored checksum input at position `i`
    /// against its stored V row — the grouped form of
    /// [`CheckedDecodeSession::sumrow_residual`]. Exactly zero when
    /// healthy; nonzero pins corruption to (kv head `g`, position `i`).
    ///
    /// # Panics
    ///
    /// Panics if `g` or `i` is out of range.
    pub fn sumrow_residual(&self, g: usize, i: usize) -> f64 {
        self.sumrows[g][i] - self.values[g][i].iter().sum::<f64>()
    }

    /// Per-(kv head, block) verdicts: `out[g][b]` sums block `b`'s
    /// [`sumrow_residual`](Self::sumrow_residual) for kv head `g`. The
    /// grouped golden model of the paged engine's per-(sequence, kv_head,
    /// block) audit — a poisoned row perturbs exactly one entry.
    ///
    /// # Panics
    ///
    /// Panics if `block_rows` is zero.
    pub fn block_residuals(&self, block_rows: usize) -> Vec<Vec<f64>> {
        assert!(block_rows > 0, "block_rows must be nonzero");
        (0..self.topo.kv_heads)
            .map(|g| {
                let mut row = Vec::with_capacity(self.len().div_ceil(block_rows));
                for start in (0..self.len()).step_by(block_rows) {
                    let end = (start + block_rows).min(self.len());
                    row.push((start..end).map(|i| self.sumrow_residual(g, i)).sum());
                }
                row
            })
            .collect()
    }

    /// Appends the token's K/V (packed `kv_dim` rows) and computes every
    /// query head's checked attention row against its group's cache.
    /// Returns one [`CheckedDecodeStep`] per query head, in head order —
    /// a fault is localized to the query head whose report alarms.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn step<T: Scalar>(&mut self, q: &[T], k: &[T], v: &[T]) -> Vec<CheckedDecodeStep> {
        let d = self.topo.head.head_dim();
        assert_eq!(q.len(), self.topo.q_dim(), "query length mismatch");
        assert_eq!(k.len(), self.topo.kv_dim(), "key length mismatch");
        assert_eq!(v.len(), self.topo.kv_dim(), "value length mismatch");
        for g in 0..self.topo.kv_heads {
            let cols = self.topo.kv_head_cols(g);
            let kf: Vec<f64> = k[cols.clone()].iter().map(|x| x.to_f64()).collect();
            let vf: Vec<f64> = v[cols].iter().map(|x| x.to_f64()).collect();
            self.sumrows[g].push(vf.iter().sum());
            self.keys[g].push(kf);
            self.values[g].push(vf);
        }

        let newest = self.len() - 1;
        let lo = self
            .topo
            .head
            .with_causal(true)
            .visible_range(newest, self.len())
            .start;
        let mut steps = Vec::with_capacity(self.topo.query_heads);
        for h in 0..self.topo.query_heads {
            let g = self.topo.group_of(h);
            let qf: Vec<f64> = q[h * d..(h + 1) * d].iter().map(|x| x.to_f64()).collect();
            let mut acc = MergedAccumulator::new(d);
            for i in lo..self.len() {
                let s =
                    fa_tensor::ops::dot_then_scale(&qf, &self.keys[g][i], self.topo.head.scale());
                acc.step_with_sumrow(s, &self.values[g][i], self.sumrows[g][i]);
            }
            let (output, check) = acc.normalized().expect("at least the new token is visible");
            let output: Vec<f64> = output.collect();
            let row_sum: f64 = output.iter().sum();
            self.global_check += check;
            self.global_actual += row_sum;
            steps.push(CheckedDecodeStep {
                output,
                report: self.checker.compare(check, row_sum),
            });
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_attention::{decode::DecodeSession, naive};
    use fa_tensor::{random::ElementDist, Matrix};

    fn rand_qkv(n: usize, d: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        (
            Matrix::random_seeded(n, d, ElementDist::default(), seed),
            Matrix::random_seeded(n, d, ElementDist::default(), seed + 1),
            Matrix::random_seeded(n, d, ElementDist::default(), seed + 2),
        )
    }

    #[test]
    fn checked_decode_matches_unchecked_and_passes() {
        let (q, k, v) = rand_qkv(12, 4, 900);
        let cfg = AttentionConfig::new(4);
        let mut checked = CheckedDecodeSession::new(cfg);
        let mut plain = DecodeSession::new(cfg);
        for i in 0..12 {
            let step = checked.step(q.row(i), k.row(i), v.row(i));
            assert!(!step.report.is_alarm(), "token {i}");
            let reference = plain.step(q.row(i), k.row(i), v.row(i));
            for (a, b) in step.output.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-12);
            }
        }
        assert!(!checked.global_report().is_alarm());
        assert_eq!(checked.len(), 12);
    }

    #[test]
    fn decode_equals_causal_batch() {
        let (q, k, v) = rand_qkv(8, 4, 901);
        let cfg = AttentionConfig::new(4);
        let batch = naive::attention(&q, &k, &v, &cfg.with_causal(true));
        let mut session = CheckedDecodeSession::new(cfg);
        for i in 0..8 {
            let step = session.step(q.row(i), k.row(i), v.row(i));
            for (c, val) in step.output.iter().enumerate() {
                assert!((val - batch[(i, c)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn per_token_check_equals_row_sum_with_sliding_window() {
        let (q, k, v) = rand_qkv(10, 4, 902);
        let cfg = AttentionConfig::new(4).with_sliding_window(3);
        let mut session = CheckedDecodeSession::new(cfg);
        for i in 0..10 {
            let step = session.step(q.row(i), k.row(i), v.row(i));
            assert!(!step.report.is_alarm(), "token {i}");
        }
        assert!(!session.global_report().is_alarm());
    }

    #[test]
    fn prefill_then_step_matches_stepped_history() {
        let (q, k, v) = rand_qkv(8, 4, 905);
        let cfg = AttentionConfig::new(4);
        // Stepped session: decode all 8 tokens.
        let mut stepped = CheckedDecodeSession::new(cfg);
        let mut last = None;
        for i in 0..8 {
            last = Some(stepped.step(q.row(i), k.row(i), v.row(i)));
        }
        // Prefilled session: positions 0..7 as prompt, then token 7.
        let k_prompt = Matrix::from_fn(7, 4, |r, c| k[(r, c)]);
        let v_prompt = Matrix::from_fn(7, 4, |r, c| v[(r, c)]);
        let mut prefilled = CheckedDecodeSession::new(cfg);
        prefilled.prefill(&k_prompt, &v_prompt);
        assert_eq!(prefilled.len(), 7);
        let step = prefilled.step(q.row(7), k.row(7), v.row(7));
        assert!(!step.report.is_alarm());
        assert_eq!(step.output, last.unwrap().output);
    }

    #[test]
    fn prefill_checked_covers_prompt_and_matches_plain_prefill() {
        let (q, k, v) = rand_qkv(8, 4, 906);
        let cfg = AttentionConfig::new(4);
        let k_prompt = Matrix::from_fn(7, 4, |r, c| k[(r, c)]);
        let v_prompt = Matrix::from_fn(7, 4, |r, c| v[(r, c)]);
        let q_prompt = Matrix::from_fn(7, 4, |r, c| q[(r, c)]);

        let mut checked = CheckedDecodeSession::new(cfg);
        let prompt = checked.prefill_checked(&q_prompt, &k_prompt, &v_prompt);
        assert!(prompt.residual().abs() < 1e-10, "prompt check holds");
        assert_eq!(checked.len(), 7);
        assert!(!checked.global_report().is_alarm(), "totals absorb prompt");

        // The cached history is identical to a plain prefill: the next
        // generated token matches bit for bit.
        let mut plain = CheckedDecodeSession::new(cfg);
        plain.prefill(&k_prompt, &v_prompt);
        let a = checked.step(q.row(7), k.row(7), v.row(7));
        let b = plain.step(q.row(7), k.row(7), v.row(7));
        assert_eq!(a.output, b.output);
        assert!(!checked.global_report().is_alarm());
    }

    #[test]
    #[should_panic(expected = "requires an empty session")]
    fn prefill_checked_on_nonempty_session_panics() {
        let cfg = AttentionConfig::new(2);
        let mut session = CheckedDecodeSession::new(cfg);
        let _ = session.step(&[1.0, 0.0], &[0.5, 0.5], &[2.0, 4.0]);
        let m = Matrix::<f64>::zeros(1, 2);
        let _ = session.prefill_checked(&m, &m, &m);
    }

    #[test]
    fn corrupting_global_state_is_visible() {
        let (q, k, v) = rand_qkv(6, 4, 903);
        let cfg = AttentionConfig::new(4);
        let mut session = CheckedDecodeSession::new(cfg);
        for i in 0..6 {
            let _ = session.step(q.row(i), k.row(i), v.row(i));
        }
        // Simulate a fault on the global predicted accumulator.
        session.global_check += 0.5;
        assert!(session.global_report().is_alarm());
    }

    #[test]
    fn gqa_checked_session_equals_per_query_head_sessions_bitwise() {
        // One CheckedDecodeSession per query head, fed its group's K/V
        // slices, must match the grouped session token for token —
        // outputs, per-token checks, and global totals.
        let d = 4;
        for (qh, kv) in [(4usize, 2usize), (2, 1), (3, 3)] {
            let topo = HeadTopology::gqa(qh, kv, AttentionConfig::new(d));
            let mut grouped = CheckedGqaDecodeSession::new(topo);
            let mut singles: Vec<CheckedDecodeSession> = (0..qh)
                .map(|_| CheckedDecodeSession::new(topo.head))
                .collect();
            for t in 0..8u64 {
                let q = Matrix::<f64>::random_seeded(1, topo.q_dim(), ElementDist::default(), t);
                let k =
                    Matrix::<f64>::random_seeded(1, topo.kv_dim(), ElementDist::default(), 100 + t);
                let v =
                    Matrix::<f64>::random_seeded(1, topo.kv_dim(), ElementDist::default(), 200 + t);
                let steps = grouped.step(q.row(0), k.row(0), v.row(0));
                assert_eq!(steps.len(), qh);
                for (h, single) in singles.iter_mut().enumerate() {
                    let g = topo.group_of(h);
                    let reference = single.step(
                        &q.row(0)[topo.q_head_cols(h)],
                        &k.row(0)[topo.kv_head_cols(g)],
                        &v.row(0)[topo.kv_head_cols(g)],
                    );
                    assert!(!steps[h].report.is_alarm(), "head {h} token {t}");
                    for (a, b) in steps[h].output.iter().zip(&reference.output) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{qh}/{kv} head {h} token {t}");
                    }
                }
            }
            assert!(!grouped.global_report().is_alarm());
            // Totals agree up to fold order (the grouped session folds
            // token-major, a bank of singles folds head-major).
            let singles_check: f64 = singles.iter().map(|s| s.global_check).sum();
            assert!(
                (grouped.global_check - singles_check).abs() < 1e-12,
                "global predicted totals agree: {} vs {singles_check}",
                grouped.global_check
            );
        }
    }

    #[test]
    fn gqa_checked_session_demotion_keeps_verdicts_exact() {
        let topo = HeadTopology::gqa(4, 2, AttentionConfig::new(4));
        let k = Matrix::<f64>::random_seeded(5, topo.kv_dim(), ElementDist::default(), 60);
        let v = Matrix::<f64>::random_seeded(5, topo.kv_dim(), ElementDist::default(), 61);
        let mut session = CheckedGqaDecodeSession::new(topo);
        session.prefill(&k, &v);
        session.demote_cached(0..4);
        for t in 0..4u64 {
            let q = Matrix::<f64>::random_seeded(1, topo.q_dim(), ElementDist::default(), 70 + t);
            let kn = Matrix::<f64>::random_seeded(1, topo.kv_dim(), ElementDist::default(), 80 + t);
            let vn = Matrix::<f64>::random_seeded(1, topo.kv_dim(), ElementDist::default(), 90 + t);
            for (h, step) in session
                .step(q.row(0), kn.row(0), vn.row(0))
                .iter()
                .enumerate()
            {
                assert!(!step.report.is_alarm(), "head {h} token {t}");
            }
        }
        assert!(!session.global_report().is_alarm());
    }

    #[test]
    fn block_residuals_are_zero_when_clean_and_localize_a_poke() {
        let (q, k, v) = rand_qkv(10, 4, 910);
        let cfg = AttentionConfig::new(4);
        let mut session = CheckedDecodeSession::new(cfg);
        for i in 0..10 {
            let _ = session.step(q.row(i), k.row(i), v.row(i));
        }
        // Demote a prefix so the mixed-format path is covered too: the
        // residuals are recomputed from the rounded rows, so they stay
        // exactly zero.
        session.demote_cached(0..4);
        for i in 0..10 {
            assert_eq!(session.sumrow_residual(i), 0.0, "position {i}");
        }
        let blocks = session.block_residuals(4);
        assert_eq!(blocks.len(), 3, "10 positions at 4 rows/block");
        assert!(blocks.iter().all(|r| *r == 0.0));

        // Poke position 6's sumrow: only block 1 flags, and the verdict
        // carries the exact perturbation.
        session.sumrows[6] += 0.25;
        let blocks = session.block_residuals(4);
        assert_eq!(blocks[0], 0.0);
        assert_eq!(blocks[1], 0.25);
        assert_eq!(blocks[2], 0.0);

        // A V-storage poke flags with the opposite sign (storage drifted
        // under the checksum input).
        session.sumrows[6] -= 0.25;
        session.values[9][2] += 1.0;
        let blocks = session.block_residuals(4);
        assert_eq!(blocks[2], -1.0);
        assert_eq!(blocks[1], 0.0);
    }

    #[test]
    fn gqa_block_residuals_pin_kv_head_and_block() {
        let topo = HeadTopology::gqa(4, 2, AttentionConfig::new(4));
        let k = Matrix::<f64>::random_seeded(9, topo.kv_dim(), ElementDist::default(), 62);
        let v = Matrix::<f64>::random_seeded(9, topo.kv_dim(), ElementDist::default(), 63);
        let mut session = CheckedGqaDecodeSession::new(topo);
        session.prefill(&k, &v);
        session.demote_cached(0..3);
        let blocks = session.block_residuals(4);
        assert_eq!(blocks.len(), 2);
        assert!(blocks
            .iter()
            .all(|g| g.len() == 3 && g.iter().all(|r| *r == 0.0)));

        session.sumrows[1][5] += 0.5;
        let blocks = session.block_residuals(4);
        assert!(blocks[0].iter().all(|r| *r == 0.0), "other kv head clean");
        assert_eq!(blocks[1][1], 0.5, "kv head 1, block 1 flags");
        assert_eq!(blocks[1][0], 0.0);
        assert_eq!(blocks[1][2], 0.0);
        assert_eq!(session.sumrow_residual(1, 5), 0.5);
    }

    #[test]
    #[should_panic(expected = "block_rows must be nonzero")]
    fn block_residuals_reject_zero_block_rows() {
        let session = CheckedDecodeSession::new(AttentionConfig::new(2));
        let _ = session.block_residuals(0);
    }

    #[test]
    fn bf16_decode_with_relative_tolerance() {
        use fa_numerics::BF16;
        let (q, k, v) = rand_qkv(8, 4, 904);
        let qb: Matrix<BF16> = q.cast();
        let kb: Matrix<BF16> = k.cast();
        let vb: Matrix<BF16> = v.cast();
        let cfg = AttentionConfig::new(4);
        let mut session = CheckedDecodeSession::new(cfg).with_tolerance(Tolerance::Relative {
            bound: 0.05,
            floor: 1e-3,
        });
        for i in 0..8 {
            let step = session.step(qb.row(i), kb.row(i), vb.row(i));
            assert!(!step.report.is_alarm(), "token {i}");
        }
    }
}
