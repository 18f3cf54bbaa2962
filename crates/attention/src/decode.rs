//! Autoregressive decode attention.
//!
//! During LLM generation each new token attends to the whole KV cache
//! with a *single* query — the latency-critical mode an attention
//! accelerator spends most of its life in. [`DecodeSession`] maintains
//! the growing cache and computes one attention row per step with the
//! same online-softmax recurrence as the batch kernels, so the
//! Flash-ABFT per-query checksum applies step-by-step (see
//! `flash_abft::decode`).

use crate::topology::HeadTopology;
use crate::AttentionConfig;
use fa_tensor::{online::MergedAccumulator, Matrix, Scalar};

/// An incremental decoding session: a KV cache plus the kernel config.
///
/// # Example
///
/// ```
/// use fa_attention::{decode::DecodeSession, AttentionConfig};
///
/// let mut session = DecodeSession::<f64>::new(AttentionConfig::new(2));
/// let out1 = session.step(&[1.0, 0.0], &[0.5, 0.5], &[2.0, 4.0]);
/// // First step: only one cache entry, output == v.
/// assert_eq!(out1, vec![2.0, 4.0]);
/// assert_eq!(session.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct DecodeSession<T> {
    cfg: AttentionConfig,
    keys: Vec<Vec<T>>,
    values: Vec<Vec<T>>,
}

impl<T: Scalar> DecodeSession<T> {
    /// Creates an empty session.
    pub fn new(cfg: AttentionConfig) -> Self {
        DecodeSession {
            cfg,
            keys: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Pre-fills the cache from prompt K/V matrices (N×d).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn prefill(&mut self, k: &Matrix<T>, v: &Matrix<T>) {
        assert_eq!(k.cols(), self.cfg.head_dim(), "K width mismatch");
        assert_eq!(v.cols(), self.cfg.head_dim(), "V width mismatch");
        assert_eq!(k.rows(), v.rows(), "K/V row count mismatch");
        for i in 0..k.rows() {
            self.keys.push(k.row(i).to_vec());
            self.values.push(v.row(i).to_vec());
        }
    }

    /// Rounds the cached K/V rows in `range` through BF16
    /// (round-to-nearest-even via [`crate::batch::round_bf16`], widened
    /// back into `T`) — the golden-model replay of `KvCache` block
    /// demotion. A mixed-format [`crate::batch::DecodeBatch`] that
    /// demoted exactly these positions decodes **bit-identically** to
    /// this session afterwards: the widened BF16 values score through the
    /// same blocked f64 summation order as the engine's mixed-operand dot
    /// kernel (`fa_tensor::ops::dot_f64_bf16` is pinned to `dot_f64` on
    /// pre-widened keys).
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the cached length.
    pub fn demote_cached(&mut self, range: core::ops::Range<usize>) {
        for i in range {
            for x in self.keys[i].iter_mut() {
                *x = T::from_f64(crate::batch::round_bf16(*x).to_f64());
            }
            for x in self.values[i].iter_mut() {
                *x = T::from_f64(crate::batch::round_bf16(*x).to_f64());
            }
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

    /// The kernel configuration.
    pub fn config(&self) -> AttentionConfig {
        self.cfg
    }

    /// Appends the new token's key/value to the cache and computes its
    /// attention row against the whole cache (itself included — decode
    /// is causal by construction).
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from the head dimension.
    pub fn step(&mut self, q: &[T], k: &[T], v: &[T]) -> Vec<f64> {
        self.step_with_state(q, k, v).0
    }

    /// Like [`step`](Self::step), also returning the online-softmax
    /// terminal state `(ℓ_N, m_N)` — what the checked wrapper needs.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn step_with_state(&mut self, q: &[T], k: &[T], v: &[T]) -> (Vec<f64>, f64, f64) {
        let d = self.cfg.head_dim();
        assert_eq!(q.len(), d, "query length mismatch");
        assert_eq!(k.len(), d, "key length mismatch");
        assert_eq!(v.len(), d, "value length mismatch");
        self.keys.push(k.to_vec());
        self.values.push(v.to_vec());

        let newest = self.keys.len() - 1;
        let mut acc = MergedAccumulator::new(d);
        // Sliding-window masking relative to the newest position: the
        // visible cache positions are exactly the causal window interval.
        let lo = self
            .cfg
            .with_causal(true)
            .visible_range(newest, self.keys.len())
            .start;
        for i in lo..self.keys.len() {
            let s = fa_tensor::ops::dot_then_scale(q, &self.keys[i], self.cfg.scale());
            acc.fold(&[s], &self.values[i], None);
        }
        let (output, _) = acc.normalized().expect("the new token is visible");
        (output.collect(), acc.sum_exp(), acc.max_score())
    }
}

/// A grouped-query decoding session: **one** K/V cache per kv head,
/// shared by all `group_size` query heads of its group — the GQA-aware
/// golden model for `fa_attention::batch::DecodeBatch` with a grouped
/// [`HeadTopology`].
///
/// Per query head the arithmetic is exactly [`DecodeSession::step`]
/// against that head's group K/V (same SIMD score/axpy kernels, same
/// order), so this session is bit-identical to per-query-head sessions
/// fed pre-sliced group K/V — while storing each group's K/V once, like
/// the engine it models.
///
/// # Example
///
/// ```
/// use fa_attention::{decode::GqaDecodeSession, AttentionConfig, HeadTopology};
///
/// // 2 query heads sharing 1 kv head of dimension 2.
/// let topo = HeadTopology::gqa(2, 1, AttentionConfig::new(2));
/// let mut session = GqaDecodeSession::<f64>::new(topo);
/// let out = session.step(&[1.0, 0.0, 0.0, 1.0], &[0.5, 0.5], &[2.0, 4.0]);
/// // First step: both query heads see the single cached row.
/// assert_eq!(out, vec![2.0, 4.0, 2.0, 4.0]);
/// ```
#[derive(Clone, Debug)]
pub struct GqaDecodeSession<T> {
    topo: HeadTopology,
    /// `keys[g][i]` is kv head `g`'s cached key row at position `i`.
    keys: Vec<Vec<Vec<T>>>,
    values: Vec<Vec<Vec<T>>>,
}

impl<T: Scalar> GqaDecodeSession<T> {
    /// Creates an empty session.
    pub fn new(topo: HeadTopology) -> Self {
        GqaDecodeSession {
            topo,
            keys: vec![Vec::new(); topo.kv_heads],
            values: vec![Vec::new(); topo.kv_heads],
        }
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
    /// (`N × kv_dim`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn prefill(&mut self, k: &Matrix<T>, v: &Matrix<T>) {
        assert_eq!(k.cols(), self.topo.kv_dim(), "K width mismatch");
        assert_eq!(v.cols(), self.topo.kv_dim(), "V width mismatch");
        assert_eq!(k.rows(), v.rows(), "K/V row count mismatch");
        for i in 0..k.rows() {
            for g in 0..self.topo.kv_heads {
                let cols = self.topo.kv_head_cols(g);
                self.keys[g].push(k.row(i)[cols.clone()].to_vec());
                self.values[g].push(v.row(i)[cols].to_vec());
            }
        }
    }

    /// Rounds every kv head's cached K/V rows in `range` through BF16
    /// (RNE, widened back into `T`) — the golden-model replay of
    /// `KvCache` block demotion, shared across the group exactly like
    /// the engine's per-kv-head blocks.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the cached length.
    pub fn demote_cached(&mut self, range: core::ops::Range<usize>) {
        for i in range {
            for g in 0..self.topo.kv_heads {
                for x in self.keys[g][i].iter_mut() {
                    *x = T::from_f64(crate::batch::round_bf16(*x).to_f64());
                }
                for x in self.values[g][i].iter_mut() {
                    *x = T::from_f64(crate::batch::round_bf16(*x).to_f64());
                }
            }
        }
    }

    /// Appends the new token's K/V (packed `kv_dim` rows, one sub-row
    /// per kv head) and computes every query head's attention row against
    /// its group's whole cache, returning the packed `q_dim`-wide output.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn step(&mut self, q: &[T], k: &[T], v: &[T]) -> Vec<f64> {
        let d = self.topo.head.head_dim();
        assert_eq!(q.len(), self.topo.q_dim(), "query length mismatch");
        assert_eq!(k.len(), self.topo.kv_dim(), "key length mismatch");
        assert_eq!(v.len(), self.topo.kv_dim(), "value length mismatch");
        for g in 0..self.topo.kv_heads {
            let cols = self.topo.kv_head_cols(g);
            self.keys[g].push(k[cols.clone()].to_vec());
            self.values[g].push(v[cols].to_vec());
        }

        let newest = self.len() - 1;
        let lo = self
            .topo
            .head
            .with_causal(true)
            .visible_range(newest, self.len())
            .start;
        let mut out = vec![0.0f64; self.topo.q_dim()];
        for h in 0..self.topo.query_heads {
            let g = self.topo.group_of(h);
            let q_sub = &q[self.topo.q_head_cols(h)];
            let mut acc = MergedAccumulator::new(d);
            for i in lo..self.len() {
                let s =
                    fa_tensor::ops::dot_then_scale(q_sub, &self.keys[g][i], self.topo.head.scale());
                acc.fold(&[s], &self.values[g][i], None);
            }
            let (output, _) = acc.normalized().expect("the new token is visible");
            for (o, val) in out[h * d..(h + 1) * d].iter_mut().zip(output) {
                *o = val;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{flash2, naive};
    use fa_tensor::random::ElementDist;

    fn rand_qkv(n: usize, d: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        (
            Matrix::random_seeded(n, d, ElementDist::default(), seed),
            Matrix::random_seeded(n, d, ElementDist::default(), seed + 1),
            Matrix::random_seeded(n, d, ElementDist::default(), seed + 2),
        )
    }

    #[test]
    fn speculative_window_matches_gqa_session_bitwise() {
        // Full-accept speculative decode is the session golden, token by
        // token: scoring gamma positions in one batched pass over the
        // paged cache changes nothing about any token's bits.
        use crate::batch::DecodeBatch;
        use crate::topology::HeadTopology;
        let topo = HeadTopology::gqa(4, 2, AttentionConfig::new(4));
        let mut engine = DecodeBatch::<f64>::new(topo, 4);
        let mut session = GqaDecodeSession::<f64>::new(topo);
        let seq = engine.add_sequence();
        let prefill = 7;
        let pk = Matrix::random_seeded(prefill, topo.kv_dim(), ElementDist::default(), 50);
        let pv = Matrix::random_seeded(prefill, topo.kv_dim(), ElementDist::default(), 51);
        let pq = Matrix::random_seeded(prefill, topo.q_dim(), ElementDist::default(), 52);
        engine.prefill(seq, &pk, &pv);
        for i in 0..prefill {
            session.step(pq.row(i), pk.row(i), pv.row(i));
        }
        let gamma = 4;
        let qs = Matrix::random_seeded(gamma, topo.q_dim(), ElementDist::default(), 60);
        let ks = Matrix::random_seeded(gamma, topo.kv_dim(), ElementDist::default(), 61);
        let vs = Matrix::random_seeded(gamma, topo.kv_dim(), ElementDist::default(), 62);
        let outs = engine.speculate(&[seq], &qs, &ks, &vs, gamma);
        for (t, out) in outs[0].iter().enumerate() {
            let golden = session.step(qs.row(t), ks.row(t), vs.row(t));
            for (c, (a, b)) in out.output.iter().zip(&golden).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "token {t} lane {c}");
            }
        }
        let verdicts = engine.resolve_speculation(&[gamma]);
        assert_eq!(verdicts[0].accepted, gamma);
        assert!(verdicts[0].residual().abs() < 1e-9);
    }

    #[test]
    fn decode_matches_causal_batch_attention() {
        // Feeding tokens one at a time must equal one causal batch pass.
        let (q, k, v) = rand_qkv(10, 4, 800);
        let cfg = AttentionConfig::new(4);
        let mut session = DecodeSession::new(cfg);
        let mut rows = Vec::new();
        for i in 0..10 {
            rows.push(session.step(q.row(i), k.row(i), v.row(i)));
        }
        let batch = naive::attention(&q, &k, &v, &cfg.with_causal(true));
        for (i, row) in rows.iter().enumerate() {
            for (c, val) in row.iter().enumerate() {
                assert!(
                    (val - batch[(i, c)]).abs() < 1e-12,
                    "token {i} lane {c}: {val} vs {}",
                    batch[(i, c)]
                );
            }
        }
    }

    #[test]
    fn prefill_then_decode_matches_full_attention() {
        let (q, k, v) = rand_qkv(8, 4, 801);
        let cfg = AttentionConfig::new(4);
        let mut session = DecodeSession::new(cfg);
        // Prefill with the first 7 positions, then decode token 7.
        let k_prompt = Matrix::from_fn(7, 4, |r, c| k[(r, c)]);
        let v_prompt = Matrix::from_fn(7, 4, |r, c| v[(r, c)]);
        session.prefill(&k_prompt, &v_prompt);
        assert_eq!(session.len(), 7);
        let out = session.step(q.row(7), k.row(7), v.row(7));
        let batch = flash2::attention(&q, &k, &v, &cfg.with_causal(true));
        for (c, val) in out.iter().enumerate() {
            assert!((val - batch[(7, c)]).abs() < 1e-12);
        }
        assert_eq!(session.len(), 8);
    }

    #[test]
    fn sliding_window_limits_the_cache_view() {
        let cfg = AttentionConfig::new(2).with_sliding_window(2);
        let mut session = DecodeSession::new(cfg);
        // Three steps with distinct values; window 2 means the final step
        // sees only positions 1 and 2.
        session.step(&[1.0, 0.0], &[1.0, 0.0], &[10.0, 0.0]);
        session.step(&[1.0, 0.0], &[1.0, 0.0], &[20.0, 0.0]);
        let out = session.step(&[1.0, 0.0], &[1.0, 0.0], &[30.0, 0.0]);
        // Identical keys => uniform weights over the visible window {20, 30}.
        assert!((out[0] - 25.0).abs() < 1e-12, "{out:?}");
    }

    #[test]
    fn state_exposes_softmax_terminals() {
        let cfg = AttentionConfig::new(2);
        let mut session = DecodeSession::new(cfg);
        let (_, l, m) = session.step_with_state(&[1.0, 1.0], &[0.5, 0.5], &[1.0, 2.0]);
        assert_eq!(l, 1.0, "single key: one unit weight");
        assert!((m - (0.5 + 0.5) * cfg.scale()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "query length mismatch")]
    fn wrong_query_length_panics() {
        let mut session = DecodeSession::<f64>::new(AttentionConfig::new(4));
        let _ = session.step(&[1.0], &[1.0, 0.0, 0.0, 0.0], &[1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn gqa_session_equals_per_query_head_sessions_bitwise() {
        // The GQA session stores one K/V history per kv head; each query
        // head must decode bit-identically to a plain DecodeSession fed
        // its group's K/V slices — across grouped and degenerate
        // topologies, with a sliding window in the mix.
        let d = 4;
        for (qh, kv) in [(4usize, 2usize), (4, 1), (3, 3)] {
            let head = AttentionConfig::new(d).with_sliding_window(5);
            let topo = HeadTopology::gqa(qh, kv, head);
            let mut grouped = GqaDecodeSession::<f64>::new(topo);
            let mut singles: Vec<DecodeSession<f64>> =
                (0..qh).map(|_| DecodeSession::new(head)).collect();
            for t in 0..9u64 {
                let q = Matrix::<f64>::random_seeded(1, topo.q_dim(), ElementDist::default(), t);
                let k =
                    Matrix::<f64>::random_seeded(1, topo.kv_dim(), ElementDist::default(), 100 + t);
                let v =
                    Matrix::<f64>::random_seeded(1, topo.kv_dim(), ElementDist::default(), 200 + t);
                let out = grouped.step(q.row(0), k.row(0), v.row(0));
                for (h, single) in singles.iter_mut().enumerate() {
                    let g = topo.group_of(h);
                    let reference = single.step(
                        &q.row(0)[topo.q_head_cols(h)],
                        &k.row(0)[topo.kv_head_cols(g)],
                        &v.row(0)[topo.kv_head_cols(g)],
                    );
                    for (c, r) in reference.iter().enumerate() {
                        assert_eq!(
                            out[h * d + c].to_bits(),
                            r.to_bits(),
                            "{qh}/{kv} step {t} head {h} lane {c}"
                        );
                    }
                }
            }
            assert_eq!(grouped.len(), 9);
        }
    }

    #[test]
    fn gqa_session_prefill_and_demote_match_singles() {
        let d = 4;
        let topo = HeadTopology::gqa(2, 1, AttentionConfig::new(d));
        let k = Matrix::<f64>::random_seeded(6, topo.kv_dim(), ElementDist::default(), 50);
        let v = Matrix::<f64>::random_seeded(6, topo.kv_dim(), ElementDist::default(), 51);
        let mut grouped = GqaDecodeSession::<f64>::new(topo);
        grouped.prefill(&k, &v);
        grouped.demote_cached(0..3);
        let mut singles: Vec<DecodeSession<f64>> = (0..2)
            .map(|_| {
                let mut s = DecodeSession::new(topo.head);
                s.prefill(&k, &v);
                s.demote_cached(0..3);
                s
            })
            .collect();
        let q = Matrix::<f64>::random_seeded(1, topo.q_dim(), ElementDist::default(), 52);
        let kn = Matrix::<f64>::random_seeded(1, topo.kv_dim(), ElementDist::default(), 53);
        let vn = Matrix::<f64>::random_seeded(1, topo.kv_dim(), ElementDist::default(), 54);
        let out = grouped.step(q.row(0), kn.row(0), vn.row(0));
        for (h, single) in singles.iter_mut().enumerate() {
            let reference = single.step(&q.row(0)[topo.q_head_cols(h)], kn.row(0), vn.row(0));
            for (c, r) in reference.iter().enumerate() {
                assert_eq!(out[h * d + c].to_bits(), r.to_bits());
            }
        }
    }
}
