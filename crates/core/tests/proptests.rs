//! Property tests for the fused online-checksum kernel: single-pass
//! checksum agreement with the closed forms, and bit-identical parallel
//! execution.

use fa_attention::AttentionConfig;
use fa_tensor::random::ElementDist;
use fa_tensor::Matrix;
use flash_abft::checksum::{predicted_checksum_eq5, predicted_checksum_eq8};
use flash_abft::{flash2_with_checksum, flash2_with_checksum_serial};
use proptest::prelude::*;

fn qkv(n: usize, d: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
    (
        Matrix::random_seeded(n, d, ElementDist::default(), seed),
        Matrix::random_seeded(n, d, ElementDist::default(), seed + 1),
        Matrix::random_seeded(n, d, ElementDist::default(), seed + 2),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fused kernel's online prediction agrees with both closed forms
    /// (Eq. 5 and Eq. 8) within the existing test tolerances, with and
    /// without masking.
    #[test]
    fn fused_checksum_matches_closed_forms(
        seed in 0u64..1_000_000,
        causal in any::<bool>(),
    ) {
        let (q, k, v) = qkv(24, 8, seed);
        let cfg = AttentionConfig::new(8).with_causal(causal);
        let fused = flash2_with_checksum(&q, &k, &v, &cfg);
        let eq5 = predicted_checksum_eq5(&q, &k, &v, &cfg);
        let eq8 = predicted_checksum_eq8(&q, &k, &v, &cfg);
        prop_assert!((fused.predicted - eq5).abs() < 1e-10, "{} vs {eq5}", fused.predicted);
        prop_assert!((fused.predicted - eq8).abs() < 1e-10, "{} vs {eq8}", fused.predicted);
        prop_assert!(fused.residual().abs() < 1e-10);
    }

    /// Query-parallel execution of the fused kernel never changes a bit:
    /// per-query passes are independent and the cross-query Kahan
    /// reductions run serially in query order.
    #[test]
    fn fused_kernel_parallel_bit_identical(
        threads in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        // 64×64×16 crosses the parallelization threshold.
        let (q, k, v) = qkv(64, 16, seed);
        let cfg = AttentionConfig::new(16);
        let serial = flash2_with_checksum_serial(&q, &k, &v, &cfg);
        let parallel = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| flash2_with_checksum(&q, &k, &v, &cfg));
        prop_assert_eq!(serial.output, parallel.output);
        prop_assert_eq!(serial.predicted.to_bits(), parallel.predicted.to_bits());
        prop_assert_eq!(serial.actual.to_bits(), parallel.actual.to_bits());
        prop_assert_eq!(serial.per_query_checks, parallel.per_query_checks);
    }

    /// The fused kernel's output matches the plain flash2 kernel (the
    /// checksum lane must not perturb the attention output).
    #[test]
    fn fused_output_matches_flash2(seed in 0u64..1_000_000) {
        let (q, k, v) = qkv(20, 8, seed);
        let cfg = AttentionConfig::new(8);
        let fused = flash2_with_checksum(&q, &k, &v, &cfg);
        let plain = fa_attention::flash2::attention(&q, &k, &v, &cfg);
        prop_assert!(fused.output.max_abs_diff(&plain) < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// THE serving-path equivalence: the head-major continuous-batching
    /// engine is bit-identical to the per-(sequence, head)
    /// `CheckedDecodeSession` golden model under random admit/retire
    /// schedules, thread counts, and cache block sizes — admitted prompt
    /// outputs match `flash2_with_checksum` per head (predicted checksums
    /// included, bit for bit), decode outputs match `step` token for
    /// token, and free-list block recycling never corrupts a live
    /// sequence's checksum state.
    #[test]
    fn continuous_batching_bit_identical_to_checked_sessions(
        threads in 1usize..6,
        block_rows in 1usize..10,
        seed in 0u64..1_000_000,
        epochs in 1usize..4,
    ) {
        use fa_attention::batch::DecodeBatch;
        use fa_attention::multihead::MultiHeadConfig;
        use fa_tensor::random::ElementDist;
        use flash_abft::CheckedDecodeSession;

        let heads = 2;
        let d = 4;
        let cfg = MultiHeadConfig::new(heads, AttentionConfig::new(d));
        let dim = cfg.model_dim();
        let rand = |rows: usize, s: u64| {
            Matrix::<f64>::random_seeded(rows, dim, ElementDist::default(), s)
        };
        let slice_head = |m: &Matrix<f64>, h: usize| {
            Matrix::from_fn(m.rows(), d, |r, c| m[(r, h * d + c)])
        };
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();

        let mut engine = DecodeBatch::<f64>::new(cfg, block_rows);
        // Golden model: one CheckedDecodeSession per (engine slot, head).
        let mut golden: Vec<Option<Vec<CheckedDecodeSession>>> = Vec::new();
        let mut live: Vec<usize> = Vec::new();
        let mut rng = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = move || {
            rng = rng.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            rng >> 33
        };

        for e in 0..epochs {
            // Admit 1–2 prompts; each must match flash2_with_checksum per
            // head (which is what CheckedDecodeSession::prefill_checked
            // runs), bit for bit.
            for _ in 0..1 + next() % 2 {
                let n = 1 + (next() % 5) as usize;
                let s = seed + 37 * e as u64 + next() % 1000;
                let (q, k, v) = (rand(n, s), rand(n, s + 1), rand(n, s + 2));
                let admitted = pool.install(|| engine.admit(&q, &k, &v));
                let mut sessions = Vec::with_capacity(heads);
                let mut predicted = 0.0f64;
                for h in 0..heads {
                    let mut session = CheckedDecodeSession::new(cfg.head);
                    let checked = session.prefill_checked(
                        &slice_head(&q, h),
                        &slice_head(&k, h),
                        &slice_head(&v, h),
                    );
                    for r in 0..n {
                        for c in 0..d {
                            prop_assert_eq!(
                                admitted.output[(r, h * d + c)].to_bits(),
                                checked.output[(r, c)].to_bits(),
                                "prompt row {} head {} lane {}", r, h, c
                            );
                        }
                    }
                    predicted += checked.predicted;
                    sessions.push(session);
                }
                prop_assert_eq!(
                    admitted.predicted.to_bits(),
                    predicted.to_bits(),
                    "prompt predicted checksum == Σ_h flash2_with_checksum"
                );
                if admitted.seq >= golden.len() {
                    golden.resize_with(admitted.seq + 1, || None);
                }
                golden[admitted.seq] = Some(sessions);
                live.push(admitted.seq);
            }

            // Decode 1–3 tokens for every live sequence.
            for t in 0..1 + next() % 3 {
                let s = seed + 211 * e as u64 + 13 * t;
                let qs = rand(live.len(), s + 3);
                let ks = rand(live.len(), s + 4);
                let vs = rand(live.len(), s + 5);
                let outs = pool.install(|| engine.step_all(&live, &qs, &ks, &vs));
                for (i, &id) in live.iter().enumerate() {
                    let sessions = golden[id].as_mut().expect("live slot has sessions");
                    for (h, session) in sessions.iter_mut().enumerate() {
                        let sub = |m: &Matrix<f64>| m.row(i)[h * d..(h + 1) * d].to_vec();
                        let step = session.step(&sub(&qs), &sub(&ks), &sub(&vs));
                        prop_assert!(!step.report.is_alarm());
                        for (c, val) in step.output.iter().enumerate() {
                            prop_assert_eq!(
                                outs[i].output[h * d + c].to_bits(),
                                val.to_bits(),
                                "epoch {} step {} seq {} head {} lane {}", e, t, id, h, c
                            );
                        }
                    }
                    prop_assert!(outs[i].residual().abs() < 1e-10);
                }
            }

            // Retire a random live sequence (keep at least one): its
            // blocks go back to the free list while the survivors keep
            // matching their golden sessions — recycling never corrupts
            // live checksum state.
            if live.len() > 1 {
                let victim = live.swap_remove((next() as usize) % live.len());
                engine.retire(victim);
                golden[victim] = None;
            }
        }

        for &id in &live {
            prop_assert!(
                engine.global_residual(id).abs() < 1e-9,
                "session verdict clean after churn: {}",
                engine.global_residual(id)
            );
        }
    }

    /// The policy layer preserves the PR-3 golden-model equivalence with
    /// the **checksum lane included**: a mixed-format engine (with
    /// optional sliding-window eviction) decodes bit-identically to
    /// per-(sequence, head) `CheckedDecodeSession`s whose cached rows get
    /// the same block demotions replayed (`demote_cached` recomputes the
    /// demoted rows' sumrows from the rounded values), and every
    /// per-token check passes on both sides — rows cross the format
    /// boundary without ever desynchronizing predicted from actual.
    /// `F64 + RetainAll` is included as a policy point, pinning the
    /// default path to PR-3 behaviour through the same machinery.
    #[test]
    fn mixed_format_engine_matches_checked_sessions_with_demotion_replayed(
        threads in 1usize..5,
        block_rows in 1usize..6,
        burst in 0usize..3,
        window_blocks in 0usize..4, // 0 = RetainAll
        plain_f64 in any::<bool>(),
        steps in 2usize..14,
        seed in 0u64..1_000_000,
    ) {
        use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
        use fa_attention::multihead::MultiHeadConfig;
        use fa_tensor::random::ElementDist;
        use flash_abft::CheckedDecodeSession;

        let heads = 2;
        let d = 4;
        let head = AttentionConfig::new(d);
        let cfg = MultiHeadConfig::new(heads, head);
        let dim = cfg.model_dim();
        let format = if plain_f64 {
            KvFormat::F64
        } else {
            KvFormat::Mixed { burst_blocks: burst }
        };
        let eviction = if window_blocks == 0 {
            EvictionPolicy::RetainAll
        } else {
            EvictionPolicy::SlidingWindow { window_blocks }
        };
        let golden_head = match eviction.window_tokens(block_rows) {
            Some(w) => head.with_sliding_window(w),
            None => head,
        };
        let rand = |rows: usize, s: u64| {
            Matrix::<f64>::random_seeded(rows, dim, ElementDist::default(), s)
        };
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();

        let mut engine = DecodeBatch::<f64>::with_policy(
            cfg, block_rows, KvLayout::HeadMajor, format, eviction,
        );
        let seq = engine.add_sequence();
        let mut sessions: Vec<CheckedDecodeSession> = (0..heads)
            .map(|_| CheckedDecodeSession::new(golden_head))
            .collect();

        for t in 0..steps {
            // Replay the engine's block-claim demotion rule before the
            // goldens see the new token: appending position t claims
            // block t/block_rows at block boundaries, demoting the oldest
            // not-yet-demoted full block beyond the burst.
            if !plain_f64 && t.is_multiple_of(block_rows) && t / block_rows > burst {
                let b = t / block_rows - burst - 1;
                for session in sessions.iter_mut() {
                    session.demote_cached(b * block_rows..(b + 1) * block_rows);
                }
            }
            let s = seed + 10 * t as u64;
            let qs = rand(1, s);
            let ks = rand(1, s + 1);
            let vs = rand(1, s + 2);
            let outs = pool.install(|| engine.step_all(&[seq], &qs, &ks, &vs));
            prop_assert!(outs[0].residual().abs() < 1e-10, "engine per-token check, step {}", t);
            for (h, session) in sessions.iter_mut().enumerate() {
                let sub = |m: &Matrix<f64>| m.row(0)[h * d..(h + 1) * d].to_vec();
                let step = session.step(&sub(&qs), &sub(&ks), &sub(&vs));
                prop_assert!(!step.report.is_alarm(), "golden per-token check, step {}", t);
                for (c, val) in step.output.iter().enumerate() {
                    prop_assert_eq!(
                        outs[0].output[h * d + c].to_bits(),
                        val.to_bits(),
                        "step {} head {} lane {}", t, h, c
                    );
                }
            }
        }
        prop_assert!(engine.global_residual(seq).abs() < 1e-9);
        for session in &sessions {
            prop_assert!(!session.global_report().is_alarm());
        }
        // With eviction outpacing the burst (window_blocks ≤ burst),
        // blocks leave the window before aging out of the burst and
        // nothing demotes — the goldens still match because those
        // positions are masked on both sides.
        let demotion_reachable = window_blocks == 0 || window_blocks > burst;
        if !plain_f64 && demotion_reachable && steps > block_rows * (burst + 1) {
            prop_assert!(engine.demoted_len(seq) > 0, "demotion exercised");
        }
    }

    /// The grouped engine preserves the checked-golden equivalence with
    /// the **checksum lane included**: under any `kv_heads` dividing the
    /// query heads, any policy combination, block size and thread
    /// count, `DecodeBatch` decodes bit-identically to the GQA-aware
    /// `CheckedGqaDecodeSession` (one shared K/V + `sumrow` stream per kv
    /// head, exactly one demotion replay per boundary), every per-token
    /// per-query-head check passes on both sides, and the degenerate
    /// `kv_heads == query_heads` point runs the PR-4 arithmetic through
    /// the same machinery.
    #[test]
    fn gqa_engine_matches_checked_gqa_session_with_demotion_replayed(
        threads in 1usize..5,
        kv_sel in 0usize..3,
        block_rows in 1usize..6,
        burst in 0usize..3,
        window_blocks in 0usize..4, // 0 = RetainAll
        plain_f64 in any::<bool>(),
        steps in 2usize..14,
        seed in 0u64..1_000_000,
    ) {
        use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
        use fa_attention::HeadTopology;
        use fa_tensor::random::ElementDist;
        use flash_abft::CheckedGqaDecodeSession;

        let query_heads = 4;
        let kv_heads = [1usize, 2, 4][kv_sel];
        let d = 4;
        let head = AttentionConfig::new(d);
        let topo = HeadTopology::gqa(query_heads, kv_heads, head);
        let format = if plain_f64 {
            KvFormat::F64
        } else {
            KvFormat::Mixed { burst_blocks: burst }
        };
        let eviction = if window_blocks == 0 {
            EvictionPolicy::RetainAll
        } else {
            EvictionPolicy::SlidingWindow { window_blocks }
        };
        let golden_head = match eviction.window_tokens(block_rows) {
            Some(w) => head.with_sliding_window(w),
            None => head,
        };
        let rand = |rows: usize, cols: usize, s: u64| {
            Matrix::<f64>::random_seeded(rows, cols, ElementDist::default(), s)
        };
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();

        let mut engine = DecodeBatch::<f64>::with_policy(
            topo, block_rows, KvLayout::HeadMajor, format, eviction,
        );
        let seq = engine.add_sequence();
        let mut golden = CheckedGqaDecodeSession::new(
            HeadTopology::gqa(query_heads, kv_heads, golden_head),
        );

        for t in 0..steps {
            // Replay the engine's block-claim demotion rule before the
            // golden sees the new token.
            if !plain_f64 && t.is_multiple_of(block_rows) && t / block_rows > burst {
                let b = t / block_rows - burst - 1;
                golden.demote_cached(b * block_rows..(b + 1) * block_rows);
            }
            let s = seed + 10 * t as u64;
            let qs = rand(1, topo.q_dim(), s);
            let ks = rand(1, topo.kv_dim(), s + 1);
            let vs = rand(1, topo.kv_dim(), s + 2);
            let outs = pool.install(|| engine.step_all(&[seq], &qs, &ks, &vs));
            prop_assert!(outs[0].residual().abs() < 1e-10, "engine per-token check, step {}", t);
            let reference = golden.step(qs.row(0), ks.row(0), vs.row(0));
            for (h, step) in reference.iter().enumerate() {
                prop_assert!(!step.report.is_alarm(), "golden head {} check, step {}", h, t);
                for (c, val) in step.output.iter().enumerate() {
                    prop_assert_eq!(
                        outs[0].output[h * d + c].to_bits(),
                        val.to_bits(),
                        "kv {} step {} head {} lane {}", kv_heads, t, h, c
                    );
                }
            }
        }
        prop_assert!(engine.global_residual(seq).abs() < 1e-9);
        prop_assert!(!golden.global_report().is_alarm());
    }
}
