//! Property-based tests for the attention kernels: masking, GQA and
//! decode invariants beyond the fixed-case unit tests.

use fa_attention::batch::{DecodeBatch, KvCache, KvLayout};
use fa_attention::gqa::GqaConfig;
use fa_attention::multihead::MultiHeadConfig;
use fa_attention::{decode::DecodeSession, flash2, naive, AttentionConfig};
use fa_tensor::Matrix;
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<f64>> {
    proptest::collection::vec(-2.0f64..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sliding-window attention equals full attention once the window
    /// covers the whole sequence.
    #[test]
    fn full_window_equals_no_window(
        q in matrix(6, 3),
        k in matrix(6, 3),
        v in matrix(6, 3),
    ) {
        let full = AttentionConfig::new(3);
        let windowed = AttentionConfig::new(3).with_sliding_window(6);
        let a = naive::attention(&q, &k, &v, &full);
        let b = naive::attention(&q, &k, &v, &windowed);
        prop_assert!(a.max_abs_diff(&b) < 1e-12);
    }

    /// Shrinking the window only ever *removes* visible keys: window-1
    /// attention reduces each row to the diagonal value row.
    #[test]
    fn window_one_is_self_attention(
        q in matrix(5, 3),
        k in matrix(5, 3),
        v in matrix(5, 3),
    ) {
        let cfg = AttentionConfig::new(3).with_sliding_window(1);
        let out = naive::attention(&q, &k, &v, &cfg);
        for i in 0..5 {
            for c in 0..3 {
                prop_assert!((out[(i, c)] - v[(i, c)]).abs() < 1e-12,
                    "row {i} must attend only to itself");
            }
        }
    }

    /// Causal flash2 output row i never depends on later keys: truncating
    /// K/V beyond i+1 leaves row i unchanged.
    #[test]
    fn causal_rows_independent_of_future(
        q in matrix(6, 3),
        k in matrix(6, 3),
        v in matrix(6, 3),
        row in 0usize..6,
    ) {
        let cfg = AttentionConfig::new(3).with_causal(true);
        let full = flash2::attention(&q, &k, &v, &cfg);
        let kt = Matrix::from_fn(row + 1, 3, |r, c| k[(r, c)]);
        let vt = Matrix::from_fn(row + 1, 3, |r, c| v[(r, c)]);
        let qt = Matrix::from_fn(row + 1, 3, |r, c| q[(r, c)]);
        let truncated = flash2::attention(&qt, &kt, &vt, &cfg);
        for c in 0..3 {
            prop_assert!((full[(row, c)] - truncated[(row, c)]).abs() < 1e-12);
        }
    }

    /// GQA with duplicated KV heads equals standard multi-head attention
    /// on the expanded K/V.
    #[test]
    fn gqa_equals_mha_on_duplicated_kv(
        q in matrix(4, 8),
        k in matrix(4, 4),
        v in matrix(4, 4),
    ) {
        // 2 query heads sharing 1 KV head of dim 4.
        let head = AttentionConfig::new(4);
        let gqa = GqaConfig::new(2, 1, head);
        let out_gqa = fa_attention::gqa::attention(&q, &k, &v, &gqa);
        // Expand K/V by duplication into 2 heads and run MHA.
        let expand = |m: &Matrix<f64>| {
            Matrix::from_fn(4, 8, |r, c| m[(r, c % 4)])
        };
        let mha = MultiHeadConfig::new(2, head);
        let out_mha = fa_attention::multihead::attention(&q, &expand(&k), &expand(&v), &mha);
        prop_assert!(out_gqa.max_abs_diff(&out_mha) < 1e-12);
    }

    /// Incremental decode always equals batch causal attention.
    #[test]
    fn decode_equals_batch(
        q in matrix(7, 3),
        k in matrix(7, 3),
        v in matrix(7, 3),
    ) {
        let cfg = AttentionConfig::new(3);
        let batch = naive::attention(&q, &k, &v, &cfg.with_causal(true));
        let mut session = DecodeSession::new(cfg);
        for i in 0..7 {
            let row = session.step(q.row(i), k.row(i), v.row(i));
            for (c, val) in row.iter().enumerate() {
                prop_assert!((val - batch[(i, c)]).abs() < 1e-11,
                    "token {i} lane {c}");
            }
        }
    }

    /// Scaling Q by a constant equals scaling the score scale: the
    /// kernels honour the scale parameter exactly.
    #[test]
    fn scale_equivalence(
        q in matrix(4, 3),
        k in matrix(4, 3),
        v in matrix(4, 3),
        s in 0.25f64..2.0,
    ) {
        let scaled_cfg = AttentionConfig::unscaled(3).with_scale(s);
        let a = flash2::attention(&q, &k, &v, &scaled_cfg);
        let qs = q.scale(s);
        let b = flash2::attention(&qs, &k, &v, &AttentionConfig::unscaled(3));
        prop_assert!(a.max_abs_diff(&b) < 1e-10);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Row-parallel flash2 is bit-identical to the serial kernel for any
    /// thread count — per-query state is independent, and the shim (like
    /// rayon) only partitions rows, never reorders per-row arithmetic.
    #[test]
    fn flash2_parallel_bit_identical(
        threads in 1usize..9,
        seed in 0u64..1_000_000,
        causal in any::<bool>(),
    ) {
        use fa_tensor::random::ElementDist;
        // 64×64×8 crosses the kernels' parallelization threshold.
        let q = Matrix::<f64>::random_seeded(64, 8, ElementDist::default(), seed);
        let k = Matrix::<f64>::random_seeded(64, 8, ElementDist::default(), seed + 1);
        let v = Matrix::<f64>::random_seeded(64, 8, ElementDist::default(), seed + 2);
        let cfg = AttentionConfig::new(8).with_causal(causal);
        let serial = flash2::attention_serial(&q, &k, &v, &cfg);
        let parallel = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| flash2::attention(&q, &k, &v, &cfg));
        prop_assert_eq!(serial, parallel);
    }

    /// Same for the tiled kernel, across arbitrary block sizes.
    #[test]
    fn tiled_parallel_bit_identical(
        threads in 1usize..9,
        block_size in 1usize..80,
        seed in 0u64..1_000_000,
    ) {
        use fa_tensor::random::ElementDist;
        let q = Matrix::<f64>::random_seeded(64, 8, ElementDist::default(), seed);
        let k = Matrix::<f64>::random_seeded(64, 8, ElementDist::default(), seed + 1);
        let v = Matrix::<f64>::random_seeded(64, 8, ElementDist::default(), seed + 2);
        let cfg = AttentionConfig::new(8);
        let serial = fa_attention::tiled::attention_serial(&q, &k, &v, &cfg, block_size);
        let parallel = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| fa_attention::tiled::attention(&q, &k, &v, &cfg, block_size));
        prop_assert_eq!(serial, parallel);
    }

    /// Head-parallel GQA matches the head-serial computation bit for bit.
    #[test]
    fn gqa_parallel_bit_identical(
        threads in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        use fa_tensor::random::ElementDist;
        let cfg = GqaConfig::new(4, 2, AttentionConfig::new(8));
        let q = Matrix::<f64>::random_seeded(24, 32, ElementDist::default(), seed);
        let k = Matrix::<f64>::random_seeded(24, 16, ElementDist::default(), seed + 1);
        let v = Matrix::<f64>::random_seeded(24, 16, ElementDist::default(), seed + 2);
        let serial = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| fa_attention::gqa::attention(&q, &k, &v, &cfg));
        let parallel = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| fa_attention::gqa::attention(&q, &k, &v, &cfg));
        prop_assert_eq!(serial, parallel);
    }

    /// Parallel naive softmax_scores matches the serial layout row by row.
    #[test]
    fn naive_scores_parallel_bit_identical(
        threads in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        use fa_tensor::random::ElementDist;
        let q = Matrix::<f64>::random_seeded(64, 8, ElementDist::default(), seed);
        let k = Matrix::<f64>::random_seeded(64, 8, ElementDist::default(), seed + 1);
        let cfg = AttentionConfig::new(8);
        let serial = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| naive::softmax_scores(&q, &k, &cfg));
        let parallel = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| naive::softmax_scores(&q, &k, &cfg));
        prop_assert_eq!(serial, parallel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N steps of `DecodeSession::step_with_state` equal a one-shot
    /// causal flash2 pass over the same Q/K/V **bit for bit** in f64:
    /// the decode loop visits exactly the keys flash2's causal mask
    /// admits, in the same order, through the same SIMD inner kernels.
    #[test]
    fn decode_steps_equal_one_shot_flash2_bitwise(
        seed in 0u64..1_000_000,
        n in 1usize..24,
    ) {
        use fa_tensor::random::ElementDist;
        let d = 8;
        let q = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), seed);
        let k = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), seed + 1);
        let v = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), seed + 2);
        let cfg = AttentionConfig::new(d);
        let batch = flash2::attention_serial(&q, &k, &v, &cfg.with_causal(true));

        let mut session = DecodeSession::new(cfg);
        for i in 0..n {
            let (row, l, m) = session.step_with_state(q.row(i), k.row(i), v.row(i));
            for (c, val) in row.iter().enumerate() {
                prop_assert_eq!(val.to_bits(), batch[(i, c)].to_bits(),
                    "token {} lane {}", i, c);
            }
            // The terminal softmax state matches flash2's query state.
            let st = flash2::query_state(&q, &k, &v, &cfg.with_causal(true), i);
            prop_assert_eq!(l.to_bits(), st.sum_exp.to_bits());
            prop_assert_eq!(m.to_bits(), st.max_score.to_bits());
        }
    }

    /// The block free lists never alias a live sequence's storage: under
    /// any policy (including mixed-format demotion and sliding-window
    /// eviction, which both route blocks through the free lists
    /// mid-sequence) and through retire→admit storms at random block
    /// sizes, every block of **both** arenas is owned by exactly one live
    /// sequence or sits on its arena's free list — never both, never
    /// twice.
    #[test]
    fn free_list_never_aliases_live_blocks(
        block_rows in 1usize..9,
        width in 1usize..5,
        seed in 0u64..1_000_000,
        ops in 8usize..40,
        policy in 0usize..4,
    ) {
        use fa_attention::batch::{EvictionPolicy, KvFormat};
        let (format, eviction) = match policy {
            0 => (KvFormat::F64, EvictionPolicy::RetainAll),
            1 => (KvFormat::Bf16, EvictionPolicy::RetainAll),
            2 => (
                KvFormat::Mixed { burst_blocks: 1 },
                EvictionPolicy::RetainAll,
            ),
            _ => (
                KvFormat::Mixed { burst_blocks: 1 },
                EvictionPolicy::SlidingWindow { window_blocks: 2 },
            ),
        };
        let mut cache = KvCache::<f64>::with_policy(
            1, width, block_rows, KvLayout::HeadMajor, format, eviction,
        );
        let mut rng = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng >> 33
        };
        let mut live: Vec<usize> = Vec::new();
        let row = vec![0.5f64; width];
        for _ in 0..ops {
            match next() % 3 {
                // Admit a sequence with a random number of rows.
                0 => {
                    let s = cache.add_sequence();
                    for _ in 0..next() % (3 * block_rows as u64 + 1) {
                        cache.append(s, &row, &row);
                    }
                    live.push(s);
                }
                // Append to a random live sequence.
                1 if !live.is_empty() => {
                    let s = live[(next() as usize) % live.len()];
                    for _ in 0..1 + next() % (block_rows as u64 + 1) {
                        cache.append(s, &row, &row);
                    }
                }
                // Retire a random live sequence.
                2 if !live.is_empty() => {
                    let s = live.swap_remove((next() as usize) % live.len());
                    cache.retire_sequence(s);
                }
                _ => {}
            }
            // Invariant sweep: exact partition of both arenas.
            let mut native = std::collections::HashSet::new();
            let mut demoted = std::collections::HashSet::new();
            for &s in &live {
                for blk in cache.seq_blocks(s) {
                    let (seen, total) = if blk.bf16 {
                        (&mut demoted, cache.allocated_blocks16())
                    } else {
                        (&mut native, cache.allocated_blocks())
                    };
                    prop_assert!(blk.index < total, "block {blk:?} in its arena");
                    prop_assert!(seen.insert(blk.index), "block {blk:?} owned twice");
                }
            }
            for &b in cache.free_block_list() {
                prop_assert!(b < cache.allocated_blocks(), "freed block {b} in arena");
                prop_assert!(native.insert(b), "native block {b} both free and live");
            }
            for &b in cache.free_block_list16() {
                prop_assert!(b < cache.allocated_blocks16(), "freed bf16 block {b} in arena");
                prop_assert!(demoted.insert(b), "bf16 block {b} both free and live");
            }
            prop_assert_eq!(
                native.len(),
                cache.allocated_blocks(),
                "every native arena block is accounted for"
            );
            prop_assert_eq!(
                demoted.len(),
                cache.allocated_blocks16(),
                "every bf16 arena block is accounted for"
            );
        }
    }

    /// THE policy-layer equivalence: a `Mixed`-format engine with
    /// sliding-window eviction, admitting its prompt through **chunked**
    /// prefill interleaved by `prefill_step_for`, stays bit-identical to plain
    /// per-(sequence, head) `DecodeSession` golden models whose cached
    /// rows get the same demotions replayed (`demote_cached`) and whose
    /// head config carries the eviction window as a sliding-window mask —
    /// across block sizes, burst sizes, window sizes, chunk
    /// sizes and thread counts. Eviction replay is pure masking: evicted
    /// blocks are invisible by the window, so the golden never needs to
    /// drop rows.
    #[test]
    fn mixed_sliding_chunked_engine_matches_golden_replay(
        threads in 1usize..5,
        block_rows in 1usize..5,
        burst in 0usize..3,
        window_blocks in 1usize..4,
        evict in any::<bool>(),
        chunk in 1usize..7,
        prompt_len in 1usize..9,
        steps in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat};
        use fa_tensor::random::ElementDist;
        let heads = 2;
        let d = 4;
        let head = AttentionConfig::new(d);
        let cfg = MultiHeadConfig::new(heads, head);
        let dim = cfg.model_dim();
        let eviction = if evict {
            EvictionPolicy::SlidingWindow { window_blocks }
        } else {
            EvictionPolicy::RetainAll
        };
        // The golden sees eviction purely as a mask.
        let golden_head = match eviction.window_tokens(block_rows) {
            Some(w) => head.with_sliding_window(w),
            None => head,
        };
        let rand = |rows: usize, s: u64| {
            Matrix::<f64>::random_seeded(rows, dim, ElementDist::default(), s)
        };
        let (pq, pk, pv) = (rand(prompt_len, seed), rand(prompt_len, seed + 1), rand(prompt_len, seed + 2));

        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let mut engine = DecodeBatch::<f64>::with_policy(
            cfg,
            block_rows,
            KvLayout::HeadMajor,
            KvFormat::Mixed { burst_blocks: burst },
            eviction,
        );
        engine.set_prefill_chunk(chunk);
        let seq = engine.enqueue(&pq, &pk, &pv);
        while pool.install(|| engine.prefill_step_for(&[seq])) > 0 {}
        let admitted = engine.take_admitted(seq).expect("prompt completed");
        prop_assert!(admitted.residual().abs() < 1e-9, "prompt checksum holds");

        // Golden: a mirrored Q/K/V history with the engine's demotion
        // schedule replayed, scored through `flash2::query_state`.
        // Chunk semantics matter: the engine appends a whole chunk's K/V
        // rows (running block-claim demotions) BEFORE the chunk's queries
        // score, so an early query in a chunk already sees rows the
        // chunk's later appends demoted. The mirror applies the same
        // rule: appending position p claims block p/block_rows when p is
        // a block boundary, demoting the oldest not-yet-demoted full
        // block beyond the burst (whole-history indices work even under
        // eviction, because evicted blocks are masked in both).
        let mut hist_q: Vec<Vec<f64>> = Vec::new();
        let mut hist_k: Vec<Vec<f64>> = Vec::new();
        let mut hist_v: Vec<Vec<f64>> = Vec::new();
        let golden_cfg = golden_head.with_causal(true);
        let mirror_append =
            |hk: &mut Vec<Vec<f64>>, hv: &mut Vec<Vec<f64>>, krow: Vec<f64>, vrow: Vec<f64>| {
                let p = hk.len();
                if p.is_multiple_of(block_rows) && p / block_rows > burst {
                    let b = p / block_rows - burst - 1;
                    for i in b * block_rows..(b + 1) * block_rows {
                        for x in hk[i].iter_mut() {
                            *x = fa_attention::batch::round_bf16(*x).to_f64();
                        }
                        for x in hv[i].iter_mut() {
                            *x = fa_attention::batch::round_bf16(*x).to_f64();
                        }
                    }
                }
                hk.push(krow);
                hv.push(vrow);
            };
        let head_matrix = |hist: &Vec<Vec<f64>>, h: usize| {
            Matrix::from_fn(hist.len(), d, |r, c| hist[r][h * d + c])
        };
        let golden_row = |hq: &Vec<Vec<f64>>, hk: &Vec<Vec<f64>>, hv: &Vec<Vec<f64>>,
                          h: usize, p: usize| {
            let st = flash2::query_state(
                &head_matrix(hq, h),
                &head_matrix(hk, h),
                &head_matrix(hv, h),
                &golden_cfg,
                p,
            );
            st.output.iter().map(|o| o / st.sum_exp).collect::<Vec<f64>>()
        };

        // Prompt: replay chunk by chunk — append the chunk's rows (with
        // demotions), then score the chunk's queries against that state.
        let mut p0 = 0;
        while p0 < prompt_len {
            let p1 = (p0 + chunk).min(prompt_len);
            for p in p0..p1 {
                hist_q.push(pq.row(p).to_vec());
                mirror_append(&mut hist_k, &mut hist_v, pk.row(p).to_vec(), pv.row(p).to_vec());
            }
            for p in p0..p1 {
                for h in 0..heads {
                    let row = golden_row(&hist_q, &hist_k, &hist_v, h, p);
                    for (c, val) in row.iter().enumerate() {
                        prop_assert_eq!(
                            admitted.output[(p, h * d + c)].to_bits(),
                            val.to_bits(),
                            "prompt row {} head {} lane {}", p, h, c
                        );
                    }
                }
            }
            p0 = p1;
        }

        for t in 0..steps {
            let s = seed + 100 + 10 * t as u64;
            let qs = rand(1, s);
            let ks = rand(1, s + 1);
            let vs = rand(1, s + 2);
            let outs = pool.install(|| engine.step_decode(&[seq], &qs, &ks, &vs));
            prop_assert!(outs[0].residual().abs() < 1e-9, "step {} checksum", t);
            hist_q.push(qs.row(0).to_vec());
            mirror_append(&mut hist_k, &mut hist_v, ks.row(0).to_vec(), vs.row(0).to_vec());
            let p = prompt_len + t;
            for h in 0..heads {
                let row = golden_row(&hist_q, &hist_k, &hist_v, h, p);
                for (c, val) in row.iter().enumerate() {
                    prop_assert_eq!(
                        outs[0].output[h * d + c].to_bits(),
                        val.to_bits(),
                        "step {} head {} lane {}", t, h, c
                    );
                }
            }
            if evict {
                prop_assert!(
                    engine.cache().seq_blocks(seq).len() <= window_blocks + 1,
                    "retained blocks bounded by the eviction window"
                );
            }
        }
        prop_assert!(engine.global_residual(seq).abs() < 1e-9);
        prop_assert_eq!(
            engine.seq_len(seq),
            engine.prompt_len(seq) + engine.decoded_len(seq),
            "coverage accounting survives demotion and eviction"
        );
    }

    /// THE GQA equivalence: a **grouped** engine (any `kv_heads` dividing
    /// the query heads, shared per-kv-head cache streams, group passes
    /// feeding `group_size` query states) under any policy combination —
    /// mixed-format demotion, sliding-window eviction, chunked prefill —
    /// stays bit-identical to plain per-**query**-head `DecodeSession`
    /// golden models over pre-shared (group-sliced) K/V, with the same
    /// demotions replayed and the eviction window carried as a mask —
    /// across kv-head counts, block sizes, bursts, windows,
    /// chunk sizes and thread counts. `kv_heads == query_heads` is the
    /// PR-4 engine, pinned through the same machinery.
    #[test]
    fn gqa_policy_engine_matches_golden_replay(
        threads in 1usize..5,
        kv_sel in 0usize..3,
        block_rows in 1usize..5,
        burst in 0usize..3,
        window_blocks in 0usize..4, // 0 = RetainAll
        plain_f64 in any::<bool>(),
        chunk in 1usize..7,
        prompt_len in 1usize..9,
        steps in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat};
        use fa_attention::HeadTopology;
        use fa_tensor::random::ElementDist;
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
        // The golden sees eviction purely as a mask.
        let golden_head = match eviction.window_tokens(block_rows) {
            Some(w) => head.with_sliding_window(w),
            None => head,
        };
        let rand = |rows: usize, cols: usize, s: u64| {
            Matrix::<f64>::random_seeded(rows, cols, ElementDist::default(), s)
        };
        let (pq, pk, pv) = (
            rand(prompt_len, topo.q_dim(), seed),
            rand(prompt_len, topo.kv_dim(), seed + 1),
            rand(prompt_len, topo.kv_dim(), seed + 2),
        );

        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let mut engine = DecodeBatch::<f64>::with_policy(
            topo, block_rows, KvLayout::HeadMajor, format, eviction,
        );
        engine.set_prefill_chunk(chunk);
        let seq = engine.enqueue(&pq, &pk, &pv);
        while pool.install(|| engine.prefill_step_for(&[seq])) > 0 {}
        let admitted = engine.take_admitted(seq).expect("prompt completed");
        prop_assert!(admitted.residual().abs() < 1e-9, "prompt checksum holds");

        // Golden: a mirrored shared-K/V history with the engine's
        // demotion schedule replayed, scored per *query* head through
        // `flash2::query_state` over its group's slices (the
        // pre-shared-KV per-query-head reference).
        let mut hist_q: Vec<Vec<f64>> = Vec::new();
        let mut hist_k: Vec<Vec<f64>> = Vec::new();
        let mut hist_v: Vec<Vec<f64>> = Vec::new();
        let golden_cfg = golden_head.with_causal(true);
        let mirror_append =
            |hk: &mut Vec<Vec<f64>>, hv: &mut Vec<Vec<f64>>, krow: Vec<f64>, vrow: Vec<f64>| {
                let p = hk.len();
                if !plain_f64 && p.is_multiple_of(block_rows) && p / block_rows > burst {
                    let b = p / block_rows - burst - 1;
                    for i in b * block_rows..(b + 1) * block_rows {
                        for x in hk[i].iter_mut() {
                            *x = fa_attention::batch::round_bf16(*x).to_f64();
                        }
                        for x in hv[i].iter_mut() {
                            *x = fa_attention::batch::round_bf16(*x).to_f64();
                        }
                    }
                }
                hk.push(krow);
                hv.push(vrow);
            };
        let head_matrix = |hist: &Vec<Vec<f64>>, cols: core::ops::Range<usize>| {
            Matrix::from_fn(hist.len(), d, |r, c| hist[r][cols.start + c])
        };
        let golden_row = |hq: &Vec<Vec<f64>>, hk: &Vec<Vec<f64>>, hv: &Vec<Vec<f64>>,
                          h: usize, p: usize| {
            let g = topo.group_of(h);
            let st = flash2::query_state(
                &head_matrix(hq, topo.q_head_cols(h)),
                &head_matrix(hk, topo.kv_head_cols(g)),
                &head_matrix(hv, topo.kv_head_cols(g)),
                &golden_cfg,
                p,
            );
            st.output.iter().map(|o| o / st.sum_exp).collect::<Vec<f64>>()
        };

        // Prompt: replay chunk by chunk — append the chunk's rows (with
        // demotions), then score the chunk's queries against that state.
        let mut p0 = 0;
        while p0 < prompt_len {
            let p1 = (p0 + chunk).min(prompt_len);
            for p in p0..p1 {
                hist_q.push(pq.row(p).to_vec());
                mirror_append(&mut hist_k, &mut hist_v, pk.row(p).to_vec(), pv.row(p).to_vec());
            }
            for p in p0..p1 {
                for h in 0..query_heads {
                    let row = golden_row(&hist_q, &hist_k, &hist_v, h, p);
                    for (c, val) in row.iter().enumerate() {
                        prop_assert_eq!(
                            admitted.output[(p, h * d + c)].to_bits(),
                            val.to_bits(),
                            "kv {} prompt row {} head {} lane {}", kv_heads, p, h, c
                        );
                    }
                }
            }
            p0 = p1;
        }

        for t in 0..steps {
            let s = seed + 100 + 10 * t as u64;
            let qs = rand(1, topo.q_dim(), s);
            let ks = rand(1, topo.kv_dim(), s + 1);
            let vs = rand(1, topo.kv_dim(), s + 2);
            let outs = pool.install(|| engine.step_decode(&[seq], &qs, &ks, &vs));
            prop_assert!(outs[0].residual().abs() < 1e-9, "step {} checksum", t);
            hist_q.push(qs.row(0).to_vec());
            mirror_append(&mut hist_k, &mut hist_v, ks.row(0).to_vec(), vs.row(0).to_vec());
            let p = prompt_len + t;
            for h in 0..query_heads {
                let row = golden_row(&hist_q, &hist_k, &hist_v, h, p);
                for (c, val) in row.iter().enumerate() {
                    prop_assert_eq!(
                        outs[0].output[h * d + c].to_bits(),
                        val.to_bits(),
                        "kv {} step {} head {} lane {}", kv_heads, t, h, c
                    );
                }
            }
            if window_blocks > 0 {
                prop_assert!(
                    engine.cache().seq_blocks(seq).len() <= window_blocks + 1,
                    "retained blocks bounded by the eviction window"
                );
            }
        }
        prop_assert!(engine.global_residual(seq).abs() < 1e-9);
        prop_assert_eq!(
            engine.seq_len(seq),
            engine.prompt_len(seq) + engine.decoded_len(seq),
            "coverage accounting survives grouping"
        );
    }

    /// Checked and unchecked decode paths report consistent token counts
    /// through admit/retire cycles: `prompt_len + checked_len +
    /// unchecked_len == seq_len` at every point, and slot reuse resets
    /// the counters.
    #[test]
    fn coverage_accounting_survives_admit_retire_cycles(
        seed in 0u64..1_000_000,
        cycles in 1usize..4,
        checked_steps in 0usize..4,
        unchecked_steps in 0usize..4,
    ) {
        use fa_tensor::random::ElementDist;
        let cfg = MultiHeadConfig::new(2, AttentionConfig::new(3));
        let dim = cfg.model_dim();
        let rand = |rows: usize, s: u64| {
            Matrix::<f64>::random_seeded(rows, dim, ElementDist::default(), s)
        };
        let mut engine = DecodeBatch::<f64>::new(cfg, 2);
        for cycle in 0..cycles {
            let n = 1 + (seed as usize + cycle) % 5;
            let s0 = seed + 999 * cycle as u64;
            let seq = engine.enqueue(&rand(n, s0), &rand(n, s0 + 1), &rand(n, s0 + 2));
            engine.prefill_step_for(&[seq]);
            let a = engine.take_admitted(seq).expect("prompt fits one chunk");
            prop_assert_eq!(engine.prompt_len(a.seq), n);
            prop_assert_eq!(engine.checked_len(a.seq), 0, "slot reuse resets counters");
            prop_assert_eq!(engine.unchecked_len(a.seq), 0);
            let ids = [a.seq];
            for t in 0..checked_steps {
                let s = s0 + 10 + t as u64;
                engine.step_decode(&ids, &rand(1, s), &rand(1, s + 1), &rand(1, s + 2));
            }
            for t in 0..unchecked_steps {
                let s = s0 + 50 + t as u64;
                engine.step_all_unchecked(&ids, &rand(1, s), &rand(1, s + 1), &rand(1, s + 2));
            }
            prop_assert_eq!(engine.checked_len(a.seq), checked_steps);
            prop_assert_eq!(engine.unchecked_len(a.seq), unchecked_steps);
            prop_assert_eq!(
                engine.decoded_len(a.seq),
                checked_steps + unchecked_steps,
                "both paths count into one decoded total"
            );
            prop_assert_eq!(
                engine.seq_len(a.seq),
                engine.prompt_len(a.seq) + engine.decoded_len(a.seq),
                "cache length decomposes exactly"
            );
            engine.retire(a.seq);
        }
    }

    /// `DecodeBatch::step_decode` equals per-(sequence, head) serial
    /// `DecodeSession` decode bit for bit — for any thread count, batch
    /// size, cache block size and step count.
    #[test]
    fn batched_decode_equals_serial_decode_bitwise(
        threads in 1usize..9,
        block_rows in 1usize..20,
        batch_size in 1usize..5,
        steps in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        use fa_attention::batch::DecodeBatch;
        use fa_tensor::random::ElementDist;
        let heads = 2;
        let d = 8;
        let cfg = MultiHeadConfig::new(heads, AttentionConfig::new(d));

        let mut sessions: Vec<Vec<DecodeSession<f64>>> = (0..batch_size)
            .map(|_| (0..heads).map(|_| DecodeSession::new(cfg.head)).collect())
            .collect();

        let outs = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                let mut engine = DecodeBatch::<f64>::new(cfg, block_rows);
                let ids: Vec<usize> =
                    (0..batch_size).map(|_| engine.add_sequence()).collect();
                let mut all = Vec::new();
                for t in 0..steps {
                    let s = seed + 10 * t as u64;
                    let dim = cfg.model_dim();
                    let qs = Matrix::<f64>::random_seeded(batch_size, dim, ElementDist::default(), s);
                    let ks = Matrix::<f64>::random_seeded(batch_size, dim, ElementDist::default(), s + 1);
                    let vs = Matrix::<f64>::random_seeded(batch_size, dim, ElementDist::default(), s + 2);
                    all.push((engine.step_decode(&ids, &qs, &ks, &vs), qs, ks, vs));
                }
                all
            });

        for (outs_t, qs, ks, vs) in &outs {
            for (i, out) in outs_t.iter().enumerate() {
                prop_assert!(out.residual().abs() < 1e-10, "fused check holds");
                for (h, session) in sessions[i].iter_mut().enumerate() {
                    let slice = |m: &Matrix<f64>| m.row(i)[h * d..(h + 1) * d].to_vec();
                    let reference = session.step(&slice(qs), &slice(ks), &slice(vs));
                    for (c, r) in reference.iter().enumerate() {
                        prop_assert_eq!(out.output[h * d + c].to_bits(), r.to_bits(),
                            "threads {} seq {} head {} lane {}", threads, i, h, c);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The serving-scale fault-tolerance contract, swept across
    /// KvFormat × EvictionPolicy × GQA group size × injection step: an
    /// injected high-bit flip into live K/V storage, a `sumrow` input,
    /// or the verdict accumulator is localized by the structural audit
    /// to exactly the poisoned site, repaired block-granularly from the
    /// recovery log, and the engine resumes decoding bit-identical to a
    /// never-injected golden twin. Fault-free audits are asserted clean
    /// both before injection and after repair.
    #[test]
    fn injected_faults_localize_and_recover_bit_identical(
        format_sel in 0usize..4,
        evict_sel in 0usize..3,
        topo_sel in 0usize..4,
        pre_steps in 0usize..6,
        post_steps in 1usize..6,
        site_sel in 0usize..4,
        bit_sel in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        use fa_attention::batch::guard::{InjectionSite, LocalizedFault};
        use fa_attention::batch::{EvictionPolicy, KvFormat};
        use fa_attention::HeadTopology;
        use fa_tensor::random::ElementDist;

        let format = match format_sel {
            0 => KvFormat::F64,
            1 => KvFormat::Bf16,
            2 => KvFormat::Mixed { burst_blocks: 1 },
            _ => KvFormat::Mixed { burst_blocks: 2 },
        };
        let eviction = match evict_sel {
            0 => EvictionPolicy::RetainAll,
            1 => EvictionPolicy::SlidingWindow { window_blocks: 2 },
            _ => EvictionPolicy::SlidingWindow { window_blocks: 3 },
        };
        let (qh, kv) = [(1usize, 1usize), (2, 1), (4, 2), (2, 2)][topo_sel];
        let d = 4;
        let block_rows = 4;
        let batch = 2usize;
        let prefill_len = 10;
        let tol = 1e-6;
        let topo = HeadTopology::gqa(qh, kv, AttentionConfig::new(d));

        let mk = || DecodeBatch::<f64>::with_policy(
            topo, block_rows, KvLayout::HeadMajor, format, eviction,
        );
        let mut subject = mk();
        subject.enable_recovery_log();
        let mut golden = mk();
        let ids: Vec<usize> = (0..batch).map(|_| subject.add_sequence()).collect();
        for _ in 0..batch { golden.add_sequence(); }
        let rand = |rows: usize, cols: usize, s: u64| {
            Matrix::<f64>::random_seeded(rows, cols, ElementDist::default(), s)
        };
        for (i, &id) in ids.iter().enumerate() {
            let k = rand(prefill_len, topo.kv_dim(), seed.wrapping_add(100 + i as u64));
            let v = rand(prefill_len, topo.kv_dim(), seed.wrapping_add(200 + i as u64));
            subject.prefill(id, &k, &v);
            golden.prefill(id, &k, &v);
        }
        // Lockstep decode with bitwise-identical outputs asserted.
        let decode = |subject: &mut DecodeBatch<f64>, golden: &mut DecodeBatch<f64>,
                      t0: usize, n: usize| {
            for t in t0..t0 + n {
                let qs = rand(batch, topo.q_dim(), seed.wrapping_add(1_000 + t as u64));
                let ks = rand(batch, topo.kv_dim(), seed.wrapping_add(2_000 + t as u64));
                let vs = rand(batch, topo.kv_dim(), seed.wrapping_add(3_000 + t as u64));
                let a = subject.step_decode(&ids, &qs, &ks, &vs);
                let b = golden.step_decode(&ids, &qs, &ks, &vs);
                for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                    for (c, (xa, ya)) in x.output.iter().zip(&y.output).enumerate() {
                        prop_assert_eq!(
                            xa.to_bits(), ya.to_bits(),
                            "step {} seq {} lane {}", t, i, c
                        );
                    }
                }
            }
        };
        decode(&mut subject, &mut golden, 0, pre_steps);

        // Fault-free control: every audit is clean under every policy.
        for &id in &ids {
            prop_assert!(subject.audit(id, tol).is_empty(), "fault-free audit clean");
        }

        // Inject into a retained position of one victim sequence. High
        // exponent bits guarantee the storage delta survives the f64
        // checksum fold (low-bit flips of tiny lanes can be absorbed by
        // rounding — the live campaign samples those honestly; this
        // sweep pins the deterministic contract).
        let victim = ids[(seed as usize) % batch];
        let first = subject.cache().first_retained(victim);
        let len = subject.seq_len(victim);
        let pos = first + (seed as usize / 7) % (len - first);
        let g = (seed as usize / 11) % kv;
        let lane = (seed as usize / 13) % d;
        let site = InjectionSite::ALL[site_sel];
        match site {
            InjectionSite::Key | InjectionSite::Value => {
                let key_side = site == InjectionSite::Key;
                let bit = if subject.storage_is_bf16(victim, pos) {
                    12 + bit_sel
                } else {
                    60 + bit_sel
                };
                subject.flip_storage_bit(victim, pos, g, lane, key_side, bit);
                let faults = subject.audit(victim, tol);
                prop_assert_eq!(faults.len(), 1, "one verdict: {:?}", &faults);
                match faults[0] {
                    LocalizedFault::CorruptBlock { kv_head, first: bf, rows, key_side: ks, .. } => {
                        prop_assert_eq!(kv_head, g, "kv head pinned");
                        prop_assert_eq!(ks, key_side, "side pinned");
                        prop_assert!((bf..bf + rows).contains(&pos), "block spans the flip");
                    }
                    other => prop_assert!(false, "unexpected verdict {:?}", other),
                }
                let report = subject.repair(victim, &faults);
                prop_assert_eq!(report.blocks_recovered, 1);
                prop_assert!(report.rows_rewritten >= 1);
            }
            InjectionSite::Sumrow => {
                subject.flip_sumrow_bit(victim, pos, g, 60 + bit_sel);
                let faults = subject.audit(victim, tol);
                prop_assert_eq!(
                    &faults,
                    &vec![LocalizedFault::CorruptSumrow { pos, kv_head: g }]
                );
                let report = subject.repair(victim, &faults);
                prop_assert_eq!(report.sumrows_repaired, 1);
                prop_assert_eq!(report.blocks_recovered, 0);
            }
            InjectionSite::Accumulator => {
                let bit = 52 + ((seed / 17) % 11) as u32;
                subject.flip_total_bit(victim, (seed / 19) % 2 == 0, bit);
                let residual = subject.global_residual(victim);
                let faults = subject.audit(victim, tol);
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(residual.abs() <= tol) {
                    prop_assert_eq!(faults.len(), 1, "verdict fault: {:?}", &faults);
                    prop_assert!(matches!(faults[0], LocalizedFault::CorruptTotals { .. }));
                } else {
                    prop_assert!(faults.is_empty(), "sub-tolerance verdict flip is masked");
                }
                let _ = subject.repair(victim, &faults);
            }
        }

        // Post-repair: structure clean, decode tracks the golden twin
        // bit for bit under the full policy matrix.
        for &id in &ids {
            prop_assert!(subject.audit(id, tol).is_empty(), "post-repair audit clean");
        }
        decode(&mut subject, &mut golden, pre_steps, post_steps);
    }

    /// The graceful-degradation contract, swept across KvFormat ×
    /// EvictionPolicy × GQA group size × recovery path: when damage is
    /// beyond in-place repair, `quarantine` frees the victim's blocks and
    /// its history recomputes through the chunked-prefill admission path
    /// — auto-requeued from the recovery log when it still covers
    /// everything, resubmitted from the caller's copy when a budget
    /// truncated it. Batch peers decode bit-identical to a golden twin
    /// throughout the re-admission, and the victim itself resumes
    /// bit-identical to an undamaged replay afterwards.
    #[test]
    fn quarantined_sequences_resume_bit_identical(
        format_sel in 0usize..4,
        evict_sel in 0usize..3,
        topo_sel in 0usize..4,
        pre_steps in 1usize..6,
        post_steps in 1usize..6,
        trunc_sel in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        use fa_attention::batch::{EvictionPolicy, KvFormat};
        use fa_attention::HeadTopology;
        use fa_tensor::random::ElementDist;

        let format = match format_sel {
            0 => KvFormat::F64,
            1 => KvFormat::Bf16,
            2 => KvFormat::Mixed { burst_blocks: 1 },
            _ => KvFormat::Mixed { burst_blocks: 2 },
        };
        let eviction = match evict_sel {
            0 => EvictionPolicy::RetainAll,
            1 => EvictionPolicy::SlidingWindow { window_blocks: 2 },
            _ => EvictionPolicy::SlidingWindow { window_blocks: 3 },
        };
        let (qh, kv) = [(1usize, 1usize), (2, 1), (4, 2), (2, 2)][topo_sel];
        let d = 4;
        let block_rows = 4;
        let batch = 3usize;
        let prefill_len = 10;
        let tol = 1e-6;
        let topo = HeadTopology::gqa(qh, kv, AttentionConfig::new(d));

        // A small prefill chunk forces the requeue through several
        // admission passes interleaved with peer decode.
        let mk = || {
            let mut e = DecodeBatch::<f64>::with_policy(
                topo, block_rows, KvLayout::HeadMajor, format, eviction,
            );
            e.set_prefill_chunk(3);
            e
        };
        let mut subject = mk();
        subject.enable_recovery_log();
        let mut golden = mk();
        let ids: Vec<usize> = (0..batch).map(|_| subject.add_sequence()).collect();
        for _ in 0..batch { golden.add_sequence(); }
        let rand = |rows: usize, cols: usize, s: u64| {
            Matrix::<f64>::random_seeded(rows, cols, ElementDist::default(), s)
        };
        // The serving frontend's own copy of every admitted row — the
        // recovery source when the engine's log was budget-truncated.
        let mut hist_k: Vec<Vec<f64>> = vec![Vec::new(); batch];
        let mut hist_v: Vec<Vec<f64>> = vec![Vec::new(); batch];
        for (i, &id) in ids.iter().enumerate() {
            let k = rand(prefill_len, topo.kv_dim(), seed.wrapping_add(100 + i as u64));
            let v = rand(prefill_len, topo.kv_dim(), seed.wrapping_add(200 + i as u64));
            hist_k[id].extend_from_slice(k.as_slice());
            hist_v[id].extend_from_slice(v.as_slice());
            subject.prefill(id, &k, &v);
            golden.prefill(id, &k, &v);
        }
        // Lockstep decode of `step_ids` with bitwise-identical outputs
        // asserted; every admitted row lands in the frontend history.
        let decode = |subject: &mut DecodeBatch<f64>, golden: &mut DecodeBatch<f64>,
                      hist_k: &mut Vec<Vec<f64>>, hist_v: &mut Vec<Vec<f64>>,
                      step_ids: &[usize], t0: usize, n: usize| {
            for t in t0..t0 + n {
                let qs = rand(step_ids.len(), topo.q_dim(), seed.wrapping_add(1_000 + t as u64));
                let ks = rand(step_ids.len(), topo.kv_dim(), seed.wrapping_add(2_000 + t as u64));
                let vs = rand(step_ids.len(), topo.kv_dim(), seed.wrapping_add(3_000 + t as u64));
                for (i, &id) in step_ids.iter().enumerate() {
                    hist_k[id].extend_from_slice(ks.row(i));
                    hist_v[id].extend_from_slice(vs.row(i));
                }
                let a = subject.step_decode(step_ids, &qs, &ks, &vs);
                let b = golden.step_decode(step_ids, &qs, &ks, &vs);
                for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                    for (c, (xa, ya)) in x.output.iter().zip(&y.output).enumerate() {
                        prop_assert_eq!(
                            xa.to_bits(), ya.to_bits(),
                            "step {} seq {} lane {}", t, step_ids[i], c
                        );
                    }
                }
            }
        };
        decode(&mut subject, &mut golden, &mut hist_k, &mut hist_v, &ids, 0, pre_steps);

        let victim = ids[(seed as usize) % batch];
        let peers: Vec<usize> = ids.iter().copied().filter(|&i| i != victim).collect();
        let len = subject.seq_len(victim);
        let key_side = (seed / 23) % 2 == 0;
        let g = (seed as usize / 11) % kv;
        let lane = (seed as usize / 13) % d;

        if trunc_sel == 0 {
            // Full log: any retained-position flip; quarantine requeues
            // the whole history from the log automatically.
            let first = subject.cache().first_retained(victim);
            let pos = first + (seed as usize / 7) % (len - first);
            let bit = if subject.storage_is_bf16(victim, pos) { 13 } else { 61 };
            subject.flip_storage_bit(victim, pos, g, lane, key_side, bit);
            let report = subject.quarantine(victim);
            prop_assert!(report.blocks_freed > 0);
            prop_assert_eq!(report.requeued_rows, len, "full log auto-requeues");
            prop_assert!(subject.is_pending(victim));
        } else {
            // Budget-truncated log: checkpoint clean, truncate to 2 rows,
            // then flip below the log's start — unrecoverable in place.
            subject.set_recovery_log_budget(Some(2));
            prop_assert!(subject.checkpoint_recovery_log(victim, tol));
            prop_assert_eq!(subject.seq_log_rows(victim), 2);
            let first = subject.cache().first_retained(victim);
            prop_assume!(len - 2 > first);
            let pos = first + (seed as usize / 7) % (len - 2 - first);
            let bit = if subject.storage_is_bf16(victim, pos) { 13 } else { 61 };
            subject.flip_storage_bit(victim, pos, g, lane, key_side, bit);
            let faults = subject.audit(victim, tol);
            prop_assert!(!faults.is_empty(), "high-bit flip is visible");
            let report = subject.repair(victim, &faults);
            prop_assert_eq!(report.blocks_unrecoverable, 1, "log truncated past it");
            prop_assert_eq!(report.blocks_recovered, 0);
            let report = subject.quarantine(victim);
            prop_assert!(report.blocks_freed > 0);
            prop_assert_eq!(report.requeued_rows, 0, "truncated log cannot requeue");
            let k = Matrix::from_vec(len, topo.kv_dim(), hist_k[victim].clone());
            let v = Matrix::from_vec(len, topo.kv_dim(), hist_v[victim].clone());
            prop_assert!(subject.resubmit(victim, &k, &v).is_ok());
            prop_assert!(subject.is_pending(victim));
        }

        // Peers keep serving while the victim re-admits chunk by chunk
        // (one prefill_step_for per decode step); the golden twin pauses
        // its victim too, so peers see identical traffic on both engines.
        let mut waited = 0usize;
        while subject.is_pending(victim) {
            subject.prefill_step_for(&[victim]);
            decode(
                &mut subject, &mut golden, &mut hist_k, &mut hist_v,
                &peers, 10_000 + waited, 1,
            );
            waited += 1;
            prop_assert!(waited <= 2 * len, "requeue must terminate");
        }

        // The rebuilt victim is bitwise the undamaged one: same length,
        // clean audit, and bit-identical decode for the whole batch.
        prop_assert_eq!(subject.seq_len(victim), golden.seq_len(victim));
        for &id in &ids {
            prop_assert!(subject.audit(id, tol).is_empty(), "post-requeue audit clean");
        }
        decode(
            &mut subject, &mut golden, &mut hist_k, &mut hist_v,
            &ids, 20_000, post_steps,
        );
    }

    /// The serving frontend's preemption ladder, swept across KvFormat ×
    /// EvictionPolicy × GQA topology: any voluntary preemption schedule —
    /// zero or more soft-tier demotions (`demote`, arbitrary bursts),
    /// then hard-tier evict-and-requeue (`quarantine` + recompute from
    /// the recovery log or the frontend's history) — replays
    /// bit-identical to a never-preempted twin once the victim resumes,
    /// with batch peers lockstep bit for bit at every step in between.
    #[test]
    fn preemption_schedules_resume_bit_identical(
        format_sel in 0usize..4,
        evict_sel in 0usize..3,
        topo_sel in 0usize..4,
        pre_steps in 1usize..6,
        mid_steps in 1usize..4,
        post_steps in 1usize..6,
        demote_count in 0usize..3,
        burst in 0usize..3,
        log_sel in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        use fa_attention::batch::{EvictionPolicy, KvFormat};
        use fa_attention::HeadTopology;
        use fa_tensor::random::ElementDist;

        let format = match format_sel {
            0 => KvFormat::F64,
            1 => KvFormat::Bf16,
            2 => KvFormat::Mixed { burst_blocks: 1 },
            _ => KvFormat::Mixed { burst_blocks: 2 },
        };
        let eviction = match evict_sel {
            0 => EvictionPolicy::RetainAll,
            1 => EvictionPolicy::SlidingWindow { window_blocks: 2 },
            _ => EvictionPolicy::SlidingWindow { window_blocks: 3 },
        };
        let (qh, kv) = [(1usize, 1usize), (2, 1), (4, 2), (2, 2)][topo_sel];
        let d = 4;
        let block_rows = 4;
        let batch = 3usize;
        let prefill_len = 10;
        let tol = 1e-6;
        let topo = HeadTopology::gqa(qh, kv, AttentionConfig::new(d));
        let mk = || {
            let mut e = DecodeBatch::<f64>::with_policy(
                topo, block_rows, KvLayout::HeadMajor, format, eviction,
            );
            e.set_prefill_chunk(3);
            e
        };
        let from_log = log_sel == 1;
        let mut subject = mk();
        if from_log {
            subject.enable_recovery_log();
        }
        let mut golden = mk();
        let ids: Vec<usize> = (0..batch).map(|_| subject.add_sequence()).collect();
        for _ in 0..batch { golden.add_sequence(); }
        let rand = |rows: usize, cols: usize, s: u64| {
            Matrix::<f64>::random_seeded(rows, cols, ElementDist::default(), s)
        };
        let mut hist_k: Vec<Vec<f64>> = vec![Vec::new(); batch];
        let mut hist_v: Vec<Vec<f64>> = vec![Vec::new(); batch];
        for (i, &id) in ids.iter().enumerate() {
            let k = rand(prefill_len, topo.kv_dim(), seed.wrapping_add(100 + i as u64));
            let v = rand(prefill_len, topo.kv_dim(), seed.wrapping_add(200 + i as u64));
            hist_k[id].extend_from_slice(k.as_slice());
            hist_v[id].extend_from_slice(v.as_slice());
            subject.prefill(id, &k, &v);
            golden.prefill(id, &k, &v);
        }
        let decode = |subject: &mut DecodeBatch<f64>, golden: &mut DecodeBatch<f64>,
                      hist_k: &mut Vec<Vec<f64>>, hist_v: &mut Vec<Vec<f64>>,
                      step_ids: &[usize], t0: usize, n: usize| {
            for t in t0..t0 + n {
                let qs = rand(step_ids.len(), topo.q_dim(), seed.wrapping_add(1_000 + t as u64));
                let ks = rand(step_ids.len(), topo.kv_dim(), seed.wrapping_add(2_000 + t as u64));
                let vs = rand(step_ids.len(), topo.kv_dim(), seed.wrapping_add(3_000 + t as u64));
                for (i, &id) in step_ids.iter().enumerate() {
                    hist_k[id].extend_from_slice(ks.row(i));
                    hist_v[id].extend_from_slice(vs.row(i));
                }
                let a = subject.step_decode(step_ids, &qs, &ks, &vs);
                let b = golden.step_decode(step_ids, &qs, &ks, &vs);
                for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                    for (c, (xa, ya)) in x.output.iter().zip(&y.output).enumerate() {
                        prop_assert_eq!(
                            xa.to_bits(), ya.to_bits(),
                            "step {} seq {} lane {}", t, step_ids[i], c
                        );
                    }
                }
            }
        };
        decode(&mut subject, &mut golden, &mut hist_k, &mut hist_v, &ids, 0, pre_steps);

        let victim = ids[(seed as usize) % batch];
        let peers: Vec<usize> = ids.iter().copied().filter(|&i| i != victim).collect();

        // The preemption window: the victim pauses on BOTH engines (the
        // never-preempted twin simply does not schedule it) while the
        // subject walks the ladder. Soft tier first — each demotion may
        // round stored rows to BF16, which is exactly why the victim
        // cannot keep decoding against the twin mid-window.
        for dm in 0..demote_count {
            let _ = subject.demote(victim, burst);
            prop_assert!(subject.audit(victim, tol).is_empty(), "demotion {dm} audits clean");
            decode(
                &mut subject, &mut golden, &mut hist_k, &mut hist_v,
                &peers, 10_000 + dm * 100, mid_steps,
            );
        }

        // Hard tier: evict-and-requeue with recompute-on-resume, either
        // auto-requeued from the recovery log or resubmitted from the
        // frontend history. Rebuilding replays the full-precision rows,
        // erasing every demotion above.
        let len = subject.seq_len(victim);
        let report = subject.quarantine(victim);
        prop_assert!(report.blocks_freed > 0);
        if from_log {
            prop_assert_eq!(report.requeued_rows, len, "full log auto-requeues");
        } else {
            prop_assert_eq!(report.requeued_rows, 0, "no log to requeue from");
            let k = Matrix::from_vec(len, topo.kv_dim(), hist_k[victim].clone());
            let v = Matrix::from_vec(len, topo.kv_dim(), hist_v[victim].clone());
            prop_assert!(subject.resubmit(victim, &k, &v).is_ok());
        }
        prop_assert!(subject.is_pending(victim));

        // Peers keep decoding lockstep while the victim re-admits.
        let mut waited = 0usize;
        while subject.is_pending(victim) {
            subject.prefill_step_for(&[victim]);
            decode(
                &mut subject, &mut golden, &mut hist_k, &mut hist_v,
                &peers, 20_000 + waited, 1,
            );
            waited += 1;
            prop_assert!(waited <= 2 * len, "requeue must terminate");
        }

        // Resume: the rebuilt victim is bitwise the never-preempted one.
        prop_assert_eq!(subject.seq_len(victim), golden.seq_len(victim));
        prop_assert_eq!(subject.demoted_len(victim), golden.demoted_len(victim),
            "requeue re-runs the same format policy as the twin");
        for &id in &ids {
            prop_assert!(subject.audit(id, tol).is_empty(), "post-resume audit clean");
        }
        decode(
            &mut subject, &mut golden, &mut hist_k, &mut hist_v,
            &ids, 30_000, post_steps,
        );
    }

    /// The speculative-decoding headline: **any** accept/reject schedule
    /// — swept across KvFormat × EvictionPolicy × GQA topology ×
    /// shared-prefix attachment × thread count — replays bit-identical
    /// to non-speculative decode of exactly the accepted tokens, window
    /// outputs and checksum verdicts included, and the engine keeps
    /// decoding lockstep with the sequential twin afterwards with every
    /// BlockCheck/sumrow rewound bitwise.
    #[test]
    fn speculative_schedules_replay_bit_identical_to_sequential_decode(
        format_sel in 0usize..4,
        evict_sel in 0usize..3,
        topo_sel in 0usize..4,
        share_sel in 0usize..2,
        gamma in 2usize..6,
        threads in 1usize..5,
        pre_steps in 0usize..3,
        post_steps in 1usize..4,
        rounds in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        use fa_attention::batch::{EvictionPolicy, KvFormat};
        use fa_attention::HeadTopology;
        use fa_tensor::random::ElementDist;

        let format = match format_sel {
            0 => KvFormat::F64,
            1 => KvFormat::Bf16,
            2 => KvFormat::Mixed { burst_blocks: 1 },
            _ => KvFormat::Mixed { burst_blocks: 2 },
        };
        let eviction = match evict_sel {
            0 => EvictionPolicy::RetainAll,
            1 => EvictionPolicy::SlidingWindow { window_blocks: 2 },
            _ => EvictionPolicy::SlidingWindow { window_blocks: 3 },
        };
        let (qh, kv) = [(1usize, 1usize), (2, 1), (4, 2), (2, 2)][topo_sel];
        let shared = share_sel == 1;
        let d = 4;
        let block_rows = 4;
        let batch = 3usize;
        let topo = HeadTopology::gqa(qh, kv, AttentionConfig::new(d));
        let rand = |rows: usize, cols: usize, s: u64| {
            Matrix::<f64>::random_seeded(rows, cols, ElementDist::default(), s)
        };
        // Per-(sequence, token-index) stream rows: accepted window
        // positions and the twin's sequential decode draw the SAME rows;
        // rejected positions draw from a disjoint lane group, so a
        // proposal past the accept point can never collide with the
        // true stream.
        let srow = |i: usize, t: usize, lane: u64, cols: usize| {
            rand(
                1,
                cols,
                seed.wrapping_add(7_000)
                    .wrapping_add(i as u64 * 65_536)
                    .wrapping_add(t as u64 * 8)
                    .wrapping_add(lane),
            )
        };

        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                let mk = || {
                    let mut e = DecodeBatch::<f64>::with_policy(
                        topo, block_rows, KvLayout::HeadMajor, format, eviction,
                    );
                    e.set_prefill_chunk(3);
                    e
                };
                let mut subject = mk();
                let mut golden = mk();
                let mut ids: Vec<usize> = Vec::new();
                if shared {
                    // Every sequence rides one 6-row registered prefix: the
                    // half-filled shared tail forces the window's first
                    // append to CoW-split, and rollback must restore the
                    // share for all readers.
                    let pq = rand(6, topo.q_dim(), seed ^ 0xA11CE);
                    let pk = rand(6, topo.kv_dim(), seed ^ 0xB0B);
                    let pv = rand(6, topo.kv_dim(), seed ^ 0xCAFE);
                    let pid_s = subject.register_prefix(&pq, &pk, &pv);
                    let pid_g = golden.register_prefix(&pq, &pk, &pv);
                    let eq = Matrix::zeros(0, topo.q_dim());
                    let ekv = Matrix::zeros(0, topo.kv_dim());
                    for _ in 0..batch {
                        ids.push(subject.enqueue_shared(pid_s, &eq, &ekv, &ekv));
                        golden.enqueue_shared(pid_g, &eq, &ekv, &ekv);
                    }
                } else {
                    for i in 0..batch {
                        let id = subject.add_sequence();
                        golden.add_sequence();
                        let k = rand(10, topo.kv_dim(), seed.wrapping_add(100 + i as u64));
                        let v = rand(10, topo.kv_dim(), seed.wrapping_add(200 + i as u64));
                        subject.prefill(id, &k, &v);
                        golden.prefill(id, &k, &v);
                        ids.push(id);
                    }
                }
                let mut decoded = vec![0usize; batch];
                // Sequential lockstep decode of every sequence, outputs
                // bit-asserted subject vs golden.
                let lockstep = |subject: &mut DecodeBatch<f64>,
                                golden: &mut DecodeBatch<f64>,
                                decoded: &mut Vec<usize>,
                                n: usize| {
                    for _ in 0..n {
                        let (qd, kd) = (topo.q_dim(), topo.kv_dim());
                        let (mut qdat, mut kdat, mut vdat) = (Vec::new(), Vec::new(), Vec::new());
                        for (i, &dec) in decoded.iter().enumerate() {
                            qdat.extend_from_slice(srow(i, dec, 0, qd).as_slice());
                            kdat.extend_from_slice(srow(i, dec, 1, kd).as_slice());
                            vdat.extend_from_slice(srow(i, dec, 2, kd).as_slice());
                        }
                        let qs = Matrix::from_vec(batch, qd, qdat);
                        let ks = Matrix::from_vec(batch, kd, kdat);
                        let vs = Matrix::from_vec(batch, kd, vdat);
                        let a = subject.step_decode(&ids, &qs, &ks, &vs);
                        let b = golden.step_decode(&ids, &qs, &ks, &vs);
                        for (x, y) in a.iter().zip(&b) {
                            prop_assert_eq!(x.predicted.to_bits(), y.predicted.to_bits());
                            prop_assert_eq!(x.actual.to_bits(), y.actual.to_bits());
                            for (xa, ya) in x.output.iter().zip(&y.output) {
                                prop_assert_eq!(xa.to_bits(), ya.to_bits());
                            }
                        }
                        for c in decoded.iter_mut() {
                            *c += 1;
                        }
                    }
                };
                lockstep(&mut subject, &mut golden, &mut decoded, pre_steps);

                for r in 0..rounds {
                    // A seed-derived accept/reject schedule, 0..=γ each.
                    let accepted: Vec<usize> = (0..batch)
                        .map(|i| {
                            (seed >> (2 * (r * batch + i))) as usize % (gamma + 1)
                        })
                        .collect();
                    let (qd, kd) = (topo.q_dim(), topo.kv_dim());
                    let (mut qdat, mut kdat, mut vdat) = (Vec::new(), Vec::new(), Vec::new());
                    for i in 0..batch {
                        for j in 0..gamma {
                            let t = decoded[i] + j;
                            let lane = if j < accepted[i] { 0 } else { 4 };
                            qdat.extend_from_slice(srow(i, t, lane, qd).as_slice());
                            kdat.extend_from_slice(srow(i, t, lane + 1, kd).as_slice());
                            vdat.extend_from_slice(srow(i, t, lane + 2, kd).as_slice());
                        }
                    }
                    let qs = Matrix::from_vec(batch * gamma, qd, qdat);
                    let ks = Matrix::from_vec(batch * gamma, kd, kdat);
                    let vs = Matrix::from_vec(batch * gamma, kd, vdat);
                    let outs = subject.speculate(&ids, &qs, &ks, &vs, gamma);

                    // The golden twin decodes exactly the accepted tokens,
                    // sequentially: every window output over the accepted
                    // prefix must match it bit for bit, verdict included.
                    #[allow(clippy::needless_range_loop)]
                    for t in 0..gamma {
                        let live: Vec<usize> =
                            (0..batch).filter(|&i| accepted[i] > t).collect();
                        if live.is_empty() {
                            continue;
                        }
                        let (mut gq, mut gk, mut gv) = (Vec::new(), Vec::new(), Vec::new());
                        let step_ids: Vec<usize> = live.iter().map(|&i| ids[i]).collect();
                        for &i in &live {
                            gq.extend_from_slice(srow(i, decoded[i] + t, 0, qd).as_slice());
                            gk.extend_from_slice(srow(i, decoded[i] + t, 1, kd).as_slice());
                            gv.extend_from_slice(srow(i, decoded[i] + t, 2, kd).as_slice());
                        }
                        let gq = Matrix::from_vec(live.len(), qd, gq);
                        let gk = Matrix::from_vec(live.len(), kd, gk);
                        let gv = Matrix::from_vec(live.len(), kd, gv);
                        let outs_g = golden.step_decode(&step_ids, &gq, &gk, &gv);
                        for (x, &i) in outs_g.iter().zip(&live) {
                            let w = &outs[i][t];
                            prop_assert_eq!(
                                w.predicted.to_bits(), x.predicted.to_bits(),
                                "round {} token {} seq {} predicted", r, t, i
                            );
                            prop_assert_eq!(
                                w.actual.to_bits(), x.actual.to_bits(),
                                "round {} token {} seq {} actual", r, t, i
                            );
                            for (c, (wa, xa)) in w.output.iter().zip(&x.output).enumerate() {
                                prop_assert_eq!(
                                    wa.to_bits(), xa.to_bits(),
                                    "round {} token {} seq {} lane {}", r, t, i, c
                                );
                            }
                        }
                    }
                    subject.resolve_speculation(&accepted);
                    for (i, a) in accepted.iter().enumerate() {
                        decoded[i] += a;
                    }
                    for (i, &id) in ids.iter().enumerate() {
                        prop_assert_eq!(
                            subject.seq_len(id), golden.seq_len(id),
                            "round {} seq {} length", r, i
                        );
                        prop_assert_eq!(
                            subject.demoted_len(id), golden.demoted_len(id),
                            "round {} seq {} demotion schedule", r, i
                        );
                        prop_assert!(
                            subject.rewind_checks_clean(id),
                            "round {r} seq {i}: BlockChecks/sumrows must rewind bitwise"
                        );
                    }
                }
                lockstep(&mut subject, &mut golden, &mut decoded, post_steps);
                assert_block_owners_consistent(&subject);
            });
    }

    /// Satellite: live corruption **inside** the speculative window. A
    /// value-side exponent flip in a recent cached row makes the window
    /// verdict over it alarm before anything is delivered; rejecting the
    /// whole window, quarantining the victim, and recomputing (from the
    /// recovery log or the frontend history) resumes bit-identical to a
    /// never-corrupted sequential twin — peers lockstep throughout.
    #[test]
    fn corruption_inside_the_speculative_window_alarms_before_delivery(
        format_sel in 0usize..4,
        evict_sel in 0usize..3,
        topo_sel in 0usize..4,
        gamma in 2usize..6,
        pre_steps in 1usize..4,
        post_steps in 1usize..4,
        log_sel in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        use fa_attention::batch::{EvictionPolicy, KvFormat};
        use fa_attention::HeadTopology;
        use fa_tensor::random::ElementDist;

        let format = match format_sel {
            0 => KvFormat::F64,
            1 => KvFormat::Bf16,
            2 => KvFormat::Mixed { burst_blocks: 1 },
            _ => KvFormat::Mixed { burst_blocks: 2 },
        };
        let eviction = match evict_sel {
            0 => EvictionPolicy::RetainAll,
            1 => EvictionPolicy::SlidingWindow { window_blocks: 2 },
            _ => EvictionPolicy::SlidingWindow { window_blocks: 3 },
        };
        let (qh, kv) = [(1usize, 1usize), (2, 1), (4, 2), (2, 2)][topo_sel];
        let d = 4;
        let block_rows = 4;
        let batch = 3usize;
        let prefill_len = 10;
        let tol = 1e-6;
        let from_log = log_sel == 1;
        let topo = HeadTopology::gqa(qh, kv, AttentionConfig::new(d));
        let mk = || {
            let mut e = DecodeBatch::<f64>::with_policy(
                topo, block_rows, KvLayout::HeadMajor, format, eviction,
            );
            e.set_prefill_chunk(3);
            e
        };
        let mut subject = mk();
        if from_log {
            subject.enable_recovery_log();
        }
        let mut golden = mk();
        let rand = |rows: usize, cols: usize, s: u64| {
            Matrix::<f64>::random_seeded(rows, cols, ElementDist::default(), s)
        };
        let srow = |i: usize, t: usize, lane: u64, cols: usize| {
            rand(
                1,
                cols,
                seed.wrapping_add(7_000)
                    .wrapping_add(i as u64 * 65_536)
                    .wrapping_add(t as u64 * 8)
                    .wrapping_add(lane),
            )
        };
        let ids: Vec<usize> = (0..batch).map(|_| subject.add_sequence()).collect();
        for _ in 0..batch {
            golden.add_sequence();
        }
        let mut hist_k: Vec<Vec<f64>> = vec![Vec::new(); batch];
        let mut hist_v: Vec<Vec<f64>> = vec![Vec::new(); batch];
        for (i, &id) in ids.iter().enumerate() {
            let k = rand(prefill_len, topo.kv_dim(), seed.wrapping_add(100 + i as u64));
            let v = rand(prefill_len, topo.kv_dim(), seed.wrapping_add(200 + i as u64));
            hist_k[i].extend_from_slice(k.as_slice());
            hist_v[i].extend_from_slice(v.as_slice());
            subject.prefill(id, &k, &v);
            golden.prefill(id, &k, &v);
        }
        let mut decoded = vec![0usize; batch];
        // Lockstep decode of the listed member indices, bit-asserted,
        // with the frontend history tracking every accepted row.
        let lockstep = |subject: &mut DecodeBatch<f64>,
                        golden: &mut DecodeBatch<f64>,
                        hist_k: &mut Vec<Vec<f64>>,
                        hist_v: &mut Vec<Vec<f64>>,
                        decoded: &mut Vec<usize>,
                        members: &[usize],
                        n: usize| {
            for _ in 0..n {
                let (qd, kd) = (topo.q_dim(), topo.kv_dim());
                let (mut qdat, mut kdat, mut vdat) = (Vec::new(), Vec::new(), Vec::new());
                let step_ids: Vec<usize> = members.iter().map(|&i| ids[i]).collect();
                for &i in members {
                    let q = srow(i, decoded[i], 0, qd);
                    let k = srow(i, decoded[i], 1, kd);
                    let v = srow(i, decoded[i], 2, kd);
                    hist_k[i].extend_from_slice(k.as_slice());
                    hist_v[i].extend_from_slice(v.as_slice());
                    qdat.extend_from_slice(q.as_slice());
                    kdat.extend_from_slice(k.as_slice());
                    vdat.extend_from_slice(v.as_slice());
                }
                let qs = Matrix::from_vec(members.len(), qd, qdat);
                let ks = Matrix::from_vec(members.len(), kd, kdat);
                let vs = Matrix::from_vec(members.len(), kd, vdat);
                let a = subject.step_decode(&step_ids, &qs, &ks, &vs);
                let b = golden.step_decode(&step_ids, &qs, &ks, &vs);
                for (x, y) in a.iter().zip(&b) {
                    for (xa, ya) in x.output.iter().zip(&y.output) {
                        prop_assert_eq!(xa.to_bits(), ya.to_bits());
                    }
                }
                for &i in members {
                    decoded[i] += 1;
                }
            }
        };
        let all: Vec<usize> = (0..batch).collect();
        lockstep(
            &mut subject, &mut golden, &mut hist_k, &mut hist_v,
            &mut decoded, &all, pre_steps,
        );

        // Flip the top exponent bit of a value lane in the victim's most
        // recent row: |v| < 2 everywhere, so the flip explodes the value
        // and the fused verdict over it cannot stay inside tol.
        let vi = (seed as usize) % batch;
        let victim = ids[vi];
        let peers: Vec<usize> = (0..batch).filter(|&i| i != vi).collect();
        let pos = subject.seq_len(victim) - 1;
        let g = (seed as usize / 11) % kv;
        let lane = (seed as usize / 13) % d;
        let bit = if subject.storage_is_bf16(victim, pos) { 14 } else { 62 };
        subject.flip_storage_bit(victim, pos, g, lane, false, bit);

        // Open a window of entirely true draft rows: without the fault
        // every token would verify.
        let (qd, kd) = (topo.q_dim(), topo.kv_dim());
        let (mut qdat, mut kdat, mut vdat) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &dec) in decoded.iter().enumerate() {
            for j in 0..gamma {
                qdat.extend_from_slice(srow(i, dec + j, 0, qd).as_slice());
                kdat.extend_from_slice(srow(i, dec + j, 1, kd).as_slice());
                vdat.extend_from_slice(srow(i, dec + j, 2, kd).as_slice());
            }
        }
        let qs = Matrix::from_vec(batch * gamma, qd, qdat);
        let ks = Matrix::from_vec(batch * gamma, kd, kdat);
        let vs = Matrix::from_vec(batch * gamma, kd, vdat);
        let outs = subject.speculate(&ids, &qs, &ks, &vs, gamma);

        // The alarm fires inside the window, before delivery; peers
        // verify clean.
        let res = outs[vi][0].residual().abs();
        prop_assert!(
            res.is_nan() || res > tol,
            "window token 0 over the flipped value must alarm (residual {res:e})"
        );
        for &i in &peers {
            for (t, o) in outs[i].iter().enumerate() {
                let r = o.residual().abs();
                prop_assert!(r <= tol, "peer {i} window token {t} stays clean");
            }
        }

        // Reject the victim's whole window; peers accept all of theirs.
        // The golden twin decodes the peers' tokens sequentially.
        let accepted: Vec<usize> = (0..batch)
            .map(|i| if i == vi { 0 } else { gamma })
            .collect();
        #[allow(clippy::needless_range_loop)]
        for t in 0..gamma {
            let (mut gq, mut gk, mut gv) = (Vec::new(), Vec::new(), Vec::new());
            let step_ids: Vec<usize> = peers.iter().map(|&i| ids[i]).collect();
            for &i in &peers {
                gq.extend_from_slice(srow(i, decoded[i] + t, 0, qd).as_slice());
                gk.extend_from_slice(srow(i, decoded[i] + t, 1, kd).as_slice());
                gv.extend_from_slice(srow(i, decoded[i] + t, 2, kd).as_slice());
            }
            let gq = Matrix::from_vec(peers.len(), qd, gq);
            let gk = Matrix::from_vec(peers.len(), kd, gk);
            let gv = Matrix::from_vec(peers.len(), kd, gv);
            let outs_g = golden.step_decode(&step_ids, &gq, &gk, &gv);
            for (x, &i) in outs_g.iter().zip(&peers) {
                for (wa, xa) in outs[i][t].output.iter().zip(&x.output) {
                    prop_assert_eq!(wa.to_bits(), xa.to_bits());
                }
            }
        }
        subject.resolve_speculation(&accepted);
        for &i in &peers {
            for j in 0..gamma {
                let k = srow(i, decoded[i] + j, 1, kd);
                let v = srow(i, decoded[i] + j, 2, kd);
                hist_k[i].extend_from_slice(k.as_slice());
                hist_v[i].extend_from_slice(v.as_slice());
            }
            decoded[i] += gamma;
            prop_assert!(subject.rewind_checks_clean(ids[i]));
        }
        // The rewound victim still carries the storage fault — the
        // rollback restores pre-window state exactly, corruption and
        // all — so its checks cannot audit clean until recovery.
        prop_assert!(
            !subject.rewind_checks_clean(victim),
            "the flipped lane must survive rollback for the audit to see"
        );

        // Quarantine and recompute the victim (auto-requeue from the
        // recovery log, or resubmit from the frontend history).
        let len = subject.seq_len(victim);
        let report = subject.quarantine(victim);
        prop_assert!(report.blocks_freed > 0);
        if from_log {
            prop_assert_eq!(report.requeued_rows, len, "full log auto-requeues");
        } else {
            prop_assert_eq!(report.requeued_rows, 0, "no log to requeue from");
            let k = Matrix::from_vec(len, topo.kv_dim(), hist_k[vi].clone());
            let v = Matrix::from_vec(len, topo.kv_dim(), hist_v[vi].clone());
            prop_assert!(subject.resubmit(victim, &k, &v).is_ok());
        }
        prop_assert!(subject.is_pending(victim));
        let mut waited = 0usize;
        while subject.is_pending(victim) {
            subject.prefill_step_for(&[victim]);
            lockstep(
                &mut subject, &mut golden, &mut hist_k, &mut hist_v,
                &mut decoded, &peers, 1,
            );
            waited += 1;
            prop_assert!(waited <= 2 * len, "requeue must terminate");
        }

        // Resume: bit-identical to the never-corrupted twin, clean audit.
        prop_assert_eq!(subject.seq_len(victim), golden.seq_len(victim));
        for &id in &ids {
            prop_assert!(subject.audit(id, tol).is_empty(), "post-recovery audit clean");
        }
        lockstep(
            &mut subject, &mut golden, &mut hist_k, &mut hist_v,
            &mut decoded, &all, post_steps,
        );
        assert_block_owners_consistent(&subject);
    }
}

/// Block-ownership census for the prefix-sharing arena: every unretired
/// sequence and every registered prefix contributes one reference per
/// block it holds. The arena agrees when (a) the number of distinct held
/// blocks equals the physically allocated, not-free-listed count — no
/// leaked orphans, no freed-but-held aliases — and (b) every block's
/// refcount equals its holder count — no lost or double-counted
/// references to decrement into a double free later.
fn assert_block_owners_consistent(e: &DecodeBatch<f64>) {
    use fa_attention::batch::BlockRef;
    use std::collections::HashMap;
    let mut owners: HashMap<(bool, usize), u32> = HashMap::new();
    for s in 0..e.num_sequences() {
        if e.is_retired(s) {
            continue;
        }
        for b in e.cache().seq_blocks(s) {
            *owners.entry((b.bf16, b.index)).or_insert(0) += 1;
        }
    }
    for id in e.prefix_ids() {
        for b in e.prefix_blocks(id) {
            *owners.entry((b.bf16, b.index)).or_insert(0) += 1;
        }
    }
    assert_eq!(
        owners.len(),
        e.cache().live_unique_blocks(),
        "allocated-but-unowned block (leak) or held-but-freed block (double free)"
    );
    for (&(bf16, index), &n) in &owners {
        assert_eq!(
            e.cache().block_ref_count(BlockRef { index, bf16 }),
            n,
            "refcount disagrees with the owner census at block {index} (bf16 {bf16})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Refcount lifecycle under admit/share/diverge/demote/quarantine/
    /// retire storms, swept across KvFormat × EvictionPolicy × GQA
    /// topology: after every operation the block-ownership census
    /// balances (no leak ever accumulates, no reference is dropped
    /// twice), every live reader audits clean, and tearing everything
    /// down returns every block of both arenas to the free lists.
    #[test]
    fn shared_prefix_storms_never_leak_or_double_free(
        format_sel in 0usize..4,
        evict_sel in 0usize..3,
        topo_sel in 0usize..4,
        prefix_mult in 1usize..3,
        ops in proptest::collection::vec((0usize..5, 0usize..16), 6..18),
        seed in 0u64..1_000_000,
    ) {
        use fa_attention::batch::{EvictionPolicy, KvFormat};
        use fa_attention::HeadTopology;
        use fa_tensor::random::ElementDist;

        let format = match format_sel {
            0 => KvFormat::F64,
            1 => KvFormat::Bf16,
            2 => KvFormat::Mixed { burst_blocks: 1 },
            _ => KvFormat::Mixed { burst_blocks: 2 },
        };
        let eviction = match evict_sel {
            0 => EvictionPolicy::RetainAll,
            1 => EvictionPolicy::SlidingWindow { window_blocks: 2 },
            _ => EvictionPolicy::SlidingWindow { window_blocks: 3 },
        };
        let (qh, kv) = [(1usize, 1usize), (2, 1), (4, 2), (2, 2)][topo_sel];
        let d = 4;
        let tol = 1e-6;
        let topo = HeadTopology::gqa(qh, kv, AttentionConfig::new(d));
        let mut e = DecodeBatch::<f64>::with_policy(
            topo, 4, KvLayout::HeadMajor, format, eviction,
        );
        e.set_prefill_chunk(3);
        e.enable_recovery_log();
        let rand = |rows: usize, cols: usize, s: u64| {
            Matrix::<f64>::random_seeded(rows, cols, ElementDist::default(), s)
        };

        // Two registered prefixes of different lengths (one spills into a
        // partially-filled tail block, so shared appends exercise CoW).
        let mut prefix_ids = Vec::new();
        for p in 0..2u64 {
            let rows = 3 * (prefix_mult + p as usize);
            let q = rand(rows, topo.q_dim(), seed.wrapping_add(10 + p));
            let k = rand(rows, topo.kv_dim(), seed.wrapping_add(20 + p));
            let v = rand(rows, topo.kv_dim(), seed.wrapping_add(30 + p));
            prefix_ids.push(e.register_prefix(&q, &k, &v));
        }
        assert_block_owners_consistent(&e);

        let mut live: Vec<usize> = Vec::new();
        let mut admits = 0u64;
        let mut t = 0u64;
        for (op, arg) in ops {
            match op {
                0 => {
                    // Admit a reader behind a random prefix, with a
                    // random (possibly empty) private suffix.
                    let id = prefix_ids[arg % prefix_ids.len()];
                    let rows = arg % 5;
                    let q = rand(rows, topo.q_dim(), seed.wrapping_add(500 + admits * 3));
                    let k = rand(rows, topo.kv_dim(), seed.wrapping_add(501 + admits * 3));
                    let v = rand(rows, topo.kv_dim(), seed.wrapping_add(502 + admits * 3));
                    let s = e.enqueue_shared(id, &q, &k, &v);
                    while e.prefill_step_for(&[s]) > 0 {}
                    let _ = e.take_admitted(s);
                    live.push(s);
                    admits += 1;
                }
                1 => {
                    // One decode step over every live reader (divergent
                    // appends: private blocks, CoW off shared tails).
                    if !live.is_empty() {
                        let qs = rand(live.len(), topo.q_dim(), seed.wrapping_add(5_000 + t * 3));
                        let ks = rand(live.len(), topo.kv_dim(), seed.wrapping_add(5_001 + t * 3));
                        let vs = rand(live.len(), topo.kv_dim(), seed.wrapping_add(5_002 + t * 3));
                        let _ = e.step_decode(&live, &qs, &ks, &vs);
                        t += 1;
                    }
                }
                2 => {
                    // Soft-tier demotion (a shared native block demotes
                    // into a private BF16 copy — copy-on-write).
                    if !live.is_empty() {
                        let s = live[arg % live.len()];
                        let _ = e.demote(s, arg % 3);
                    }
                }
                3 => {
                    // Quarantine: drop the reader's shared references and
                    // rebuild its whole history privately from the log.
                    if !live.is_empty() {
                        let s = live[arg % live.len()];
                        let _ = e.quarantine(s);
                        while e.prefill_step_for(&[s]) > 0 {}
                        let _ = e.take_admitted(s);
                        prop_assert!(!e.is_pending(s), "the seeded log rebuilds fully");
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let s = live.swap_remove(arg % live.len());
                        e.retire(s);
                    }
                }
            }
            assert_block_owners_consistent(&e);
            for &s in &live {
                prop_assert!(e.audit(s, tol).is_empty(), "live readers audit clean");
            }
        }

        // Teardown: retiring every reader and releasing every prefix
        // must return both arenas to empty.
        for s in live.drain(..) {
            e.retire(s);
        }
        assert_block_owners_consistent(&e);
        for id in prefix_ids {
            e.release_prefix(id);
        }
        prop_assert_eq!(e.cache().live_unique_blocks(), 0, "teardown frees every block");
    }

    /// Shared-prefix admission swept across KvFormat × EvictionPolicy ×
    /// GQA topology × random suffix lengths: every reader's admitted
    /// suffix output and every decode token is bit-identical to an
    /// unshared engine replaying `prefix ‖ suffix` on the same
    /// chunk-aligned schedule — with shared-block batched scoring on
    /// *and* off — while the shared arena never holds more unique blocks
    /// than the unshared one.
    #[test]
    fn shared_admission_bit_identical_to_unshared_replay_swept(
        format_sel in 0usize..4,
        evict_sel in 0usize..3,
        topo_sel in 0usize..4,
        prefix_mult in 1usize..3,
        suffixes in proptest::collection::vec(0usize..6, 2..5),
        post_steps in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        use fa_attention::batch::{EvictionPolicy, KvFormat};
        use fa_attention::HeadTopology;
        use fa_tensor::random::ElementDist;

        let format = match format_sel {
            0 => KvFormat::F64,
            1 => KvFormat::Bf16,
            2 => KvFormat::Mixed { burst_blocks: 1 },
            _ => KvFormat::Mixed { burst_blocks: 2 },
        };
        let eviction = match evict_sel {
            0 => EvictionPolicy::RetainAll,
            1 => EvictionPolicy::SlidingWindow { window_blocks: 2 },
            _ => EvictionPolicy::SlidingWindow { window_blocks: 3 },
        };
        let (qh, kv) = [(1usize, 1usize), (2, 1), (4, 2), (2, 2)][topo_sel];
        let d = 4;
        let tol = 1e-6;
        let topo = HeadTopology::gqa(qh, kv, AttentionConfig::new(d));
        // Chunk 3 with block 4: a prefix of 3·prefix_mult rows is always
        // chunk-aligned (the bit-identicality precondition) yet lands
        // mid-block half the time, exercising tail copy-on-write.
        let prefix_rows = 3 * prefix_mult;
        let mk = || {
            let mut e = DecodeBatch::<f64>::with_policy(
                topo, 4, KvLayout::HeadMajor, format, eviction,
            );
            e.set_prefill_chunk(3);
            e
        };
        let rand = |rows: usize, cols: usize, s: u64| {
            Matrix::<f64>::random_seeded(rows, cols, ElementDist::default(), s)
        };
        let vcat = |a: &Matrix<f64>, b: &Matrix<f64>| {
            Matrix::from_fn(a.rows() + b.rows(), a.cols(), |r, c| {
                if r < a.rows() { a[(r, c)] } else { b[(r - a.rows(), c)] }
            })
        };

        let mut shared = mk();
        let mut unbatched = mk();
        unbatched.set_shared_scoring(false);
        let mut plain = mk();
        let pq = rand(prefix_rows, topo.q_dim(), seed.wrapping_add(1));
        let pk = rand(prefix_rows, topo.kv_dim(), seed.wrapping_add(2));
        let pv = rand(prefix_rows, topo.kv_dim(), seed.wrapping_add(3));
        let id_a = shared.register_prefix(&pq, &pk, &pv);
        let id_b = unbatched.register_prefix(&pq, &pk, &pv);
        let (mut s_ids, mut u_ids, mut p_ids) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &rows) in suffixes.iter().enumerate() {
            let q = rand(rows, topo.q_dim(), seed.wrapping_add(100 + 3 * i as u64));
            let k = rand(rows, topo.kv_dim(), seed.wrapping_add(101 + 3 * i as u64));
            let v = rand(rows, topo.kv_dim(), seed.wrapping_add(102 + 3 * i as u64));
            s_ids.push(shared.enqueue_shared(id_a, &q, &k, &v));
            u_ids.push(unbatched.enqueue_shared(id_b, &q, &k, &v));
            p_ids.push(plain.enqueue(&vcat(&pq, &q), &vcat(&pk, &k), &vcat(&pv, &v)));
        }
        while shared.prefill_step_for(&s_ids) > 0 {}
        while unbatched.prefill_step_for(&u_ids) > 0 {}
        while plain.prefill_step_for(&p_ids) > 0 {}
        for (i, &rows) in suffixes.iter().enumerate() {
            let sa = shared.take_admitted(s_ids[i]).expect("suffix parks an admission");
            let ua = unbatched.take_admitted(u_ids[i]).expect("suffix parks an admission");
            let pa = plain.take_admitted(p_ids[i]).expect("prompt parks an admission");
            for r in 0..rows {
                for c in 0..topo.q_dim() {
                    let want = pa.output[(prefix_rows + r, c)].to_bits();
                    prop_assert_eq!(sa.output[(r, c)].to_bits(), want,
                        "reader {} suffix row {} lane {}", i, r, c);
                    prop_assert_eq!(ua.output[(r, c)].to_bits(), want,
                        "reader {} (scoring off) suffix row {} lane {}", i, r, c);
                }
            }
        }
        // Worst case (every prefix block CoW'd or slid out of every
        // reader's window) sharing still costs at most the registry's
        // own pinned copy of the prefix.
        prop_assert!(
            shared.cache().live_unique_blocks()
                <= plain.cache().live_unique_blocks() + shared.prefix_blocks(id_a).len(),
            "sharing costs at most the registry's pinned prefix copy"
        );

        for t in 0..post_steps as u64 {
            let n = s_ids.len();
            let qs = rand(n, topo.q_dim(), seed.wrapping_add(1_000 + 3 * t));
            let ks = rand(n, topo.kv_dim(), seed.wrapping_add(1_001 + 3 * t));
            let vs = rand(n, topo.kv_dim(), seed.wrapping_add(1_002 + 3 * t));
            let a = shared.step_decode(&s_ids, &qs, &ks, &vs);
            let b = unbatched.step_decode(&u_ids, &qs, &ks, &vs);
            let c = plain.step_decode(&p_ids, &qs, &ks, &vs);
            for i in 0..n {
                for (l, want) in c[i].output.iter().enumerate() {
                    prop_assert_eq!(a[i].output[l].to_bits(), want.to_bits(),
                        "step {} reader {} lane {}", t, i, l);
                    prop_assert_eq!(b[i].output[l].to_bits(), want.to_bits(),
                        "step {} reader {} (scoring off) lane {}", t, i, l);
                }
            }
        }
        prop_assert_eq!(unbatched.shared_score_tiles(), 0, "toggle off means no tiles");
        for &s in &s_ids {
            prop_assert!(shared.audit(s, tol).is_empty(), "shared readers audit clean");
        }
    }

    /// A poisoned shared block repairs exactly once for all readers,
    /// swept across GQA topology × reader count × fault site: a bit flip
    /// inside the shared prefix storage alarms *every* reader's audit,
    /// one `audit_and_repair` through any single reader restores the
    /// shared storage in place, every reader then audits clean, and all
    /// of them decode bit-identical to a never-faulted twin.
    #[test]
    fn poisoned_shared_prefix_repairs_once_for_all_readers(
        topo_sel in 0usize..4,
        n_readers in 2usize..4,
        pos_sel in 0usize..4,
        lane_sel in 0usize..4,
        key_side in any::<bool>(),
        bit_sel in 0u32..3,
        post_steps in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        use fa_attention::batch::{EvictionPolicy, KvFormat};
        use fa_attention::HeadTopology;
        use fa_tensor::random::ElementDist;

        let (qh, kv) = [(1usize, 1usize), (2, 1), (4, 2), (2, 2)][topo_sel];
        let d = 4;
        let tol = 1e-6;
        let topo = HeadTopology::gqa(qh, kv, AttentionConfig::new(d));
        let mk = || {
            let mut e = DecodeBatch::<f64>::with_policy(
                topo, 4, KvLayout::HeadMajor, KvFormat::F64, EvictionPolicy::RetainAll,
            );
            e.set_prefill_chunk(4);
            e.enable_recovery_log();
            e
        };
        let rand = |rows: usize, cols: usize, s: u64| {
            Matrix::<f64>::random_seeded(rows, cols, ElementDist::default(), s)
        };
        let mut subject = mk();
        let mut golden = mk();
        let pq = rand(8, topo.q_dim(), seed.wrapping_add(1));
        let pk = rand(8, topo.kv_dim(), seed.wrapping_add(2));
        let pv = rand(8, topo.kv_dim(), seed.wrapping_add(3));
        let id_s = subject.register_prefix(&pq, &pk, &pv);
        let id_g = golden.register_prefix(&pq, &pk, &pv);
        let (mut s_ids, mut g_ids) = (Vec::new(), Vec::new());
        for i in 0..n_readers {
            let rows = i + 1;
            let q = rand(rows, topo.q_dim(), seed.wrapping_add(100 + 3 * i as u64));
            let k = rand(rows, topo.kv_dim(), seed.wrapping_add(101 + 3 * i as u64));
            let v = rand(rows, topo.kv_dim(), seed.wrapping_add(102 + 3 * i as u64));
            s_ids.push(subject.enqueue_shared(id_s, &q, &k, &v));
            g_ids.push(golden.enqueue_shared(id_g, &q, &k, &v));
        }
        while subject.prefill_step_for(&s_ids) > 0 {}
        while golden.prefill_step_for(&g_ids) > 0 {}
        for i in 0..n_readers {
            let _ = subject.take_admitted(s_ids[i]);
            let _ = golden.take_admitted(g_ids[i]);
        }
        for &s in &s_ids {
            prop_assert!(subject.audit(s, tol).is_empty(), "fault-free audit clean");
        }

        // Flip a high exponent bit inside the first (fully shared) prefix
        // block, addressed through reader 0 — the storage is one physical
        // block, so the damage is visible through every reader.
        subject.flip_storage_bit(
            s_ids[0], pos_sel, lane_sel % kv, lane_sel % d, key_side, 60 + bit_sel,
        );
        for &s in &s_ids {
            prop_assert!(
                !subject.audit(s, tol).is_empty(),
                "every reader sees the shared fault"
            );
        }
        let report = subject.audit_and_repair(s_ids[0], tol);
        prop_assert!(report.rows_rewritten >= 1, "the log rewrites the poisoned rows");
        prop_assert_eq!(report.blocks_unrecoverable, 0);
        for &s in &s_ids {
            prop_assert!(subject.audit(s, tol).is_empty(), "one repair clears every reader");
        }

        for t in 0..post_steps as u64 {
            let qs = rand(n_readers, topo.q_dim(), seed.wrapping_add(1_000 + 3 * t));
            let ks = rand(n_readers, topo.kv_dim(), seed.wrapping_add(1_001 + 3 * t));
            let vs = rand(n_readers, topo.kv_dim(), seed.wrapping_add(1_002 + 3 * t));
            let a = subject.step_decode(&s_ids, &qs, &ks, &vs);
            let b = golden.step_decode(&g_ids, &qs, &ks, &vs);
            for i in 0..n_readers {
                for (l, want) in b[i].output.iter().enumerate() {
                    prop_assert_eq!(a[i].output[l].to_bits(), want.to_bits(),
                        "post-repair step {} reader {} lane {}", t, i, l);
                }
            }
        }
    }
}
