//! The unified KV-cache policy layer: mixed-format blocks (f64 prefill
//! burst → BF16 steady state), chunked prompt admission interleaved with
//! decode, and sliding-window block eviction — every token still
//! checksum-covered.
//!
//! Run with: `cargo run --release --example mixed_format_serving`

use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat};
use fa_attention::multihead::MultiHeadConfig;
use fa_attention::AttentionConfig;
use fa_tensor::{random::ElementDist, Matrix};

fn main() {
    // Four heads of dimension 32, 16-row cache blocks. The policy layer:
    // the newest full block per sequence stays f64 (the "burst" the
    // prompt chunks and fresh tokens score against), older blocks demote
    // to BF16 in place — quartering their stream bytes — and blocks that
    // fall behind a 4-block sliding window return to the free list, so
    // per-sequence cache memory is bounded no matter how long decoding
    // runs.
    let cfg = MultiHeadConfig::new(4, AttentionConfig::new(32));
    let dim = cfg.model_dim();
    let mut engine = DecodeBatch::<f64>::with_policy(
        cfg,
        16,
        fa_attention::batch::KvLayout::HeadMajor,
        KvFormat::Mixed { burst_blocks: 1 },
        EvictionPolicy::SlidingWindow { window_blocks: 4 },
    );
    engine.set_prefill_chunk(24);

    let prompt = |len: usize, seed: u64| {
        (
            Matrix::<f64>::random_seeded(len, dim, ElementDist::default(), seed),
            Matrix::<f64>::random_seeded(len, dim, ElementDist::default(), seed + 1),
            Matrix::<f64>::random_seeded(len, dim, ElementDist::default(), seed + 2),
        )
    };

    // Two sequences admitted before decoding starts (two chunks each)
    // form the opening batch.
    let mut live: Vec<usize> = (0..2)
        .map(|i| {
            let (q, k, v) = prompt(40, 10 * (i as u64 + 1));
            engine.enqueue(&q, &k, &v)
        })
        .collect();
    while engine.prefill_step_for(&live) > 0 {}
    for &s in &live {
        engine.take_admitted(s).expect("prompt drained");
        println!(
            "admitted seq {s}: {} prompt tokens, {} rows already demoted to bf16",
            engine.prompt_len(s),
            engine.demoted_len(s),
        );
    }

    // A long prompt arrives mid-flight: enqueue it. Each step advances
    // it by one 24-token chunk, then decodes the batch — the batch never
    // stalls.
    let (lq, lk, lv) = prompt(96, 99);
    let newcomer = engine.enqueue(&lq, &lk, &lv);
    println!(
        "enqueued seq {newcomer} with {} prompt tokens (chunk {})",
        engine.pending_len(newcomer),
        engine.prefill_chunk()
    );

    let mut step = 0u64;
    while engine.is_pending(newcomer) {
        let qs = Matrix::<f64>::random_seeded(live.len(), dim, ElementDist::default(), 200 + step);
        let ks = Matrix::<f64>::random_seeded(live.len(), dim, ElementDist::default(), 300 + step);
        let vs = Matrix::<f64>::random_seeded(live.len(), dim, ElementDist::default(), 400 + step);
        engine.prefill_step_for(&[newcomer]);
        for out in engine.step_decode(&live, &qs, &ks, &vs) {
            assert!(out.residual().abs() < 1e-9, "fused per-token check");
        }
        step += 1;
        println!(
            "decode step {step}: batch of {} decoded while {} prompt tokens remain pending",
            live.len(),
            engine.pending_len(newcomer)
        );
    }
    let admitted = engine.take_admitted(newcomer).expect("prompt completed");
    assert!(
        admitted.residual().abs() < 1e-9,
        "chunk-folded prompt check"
    );
    println!(
        "seq {newcomer} admitted across {step} decode steps (prompt residual {:+.3e})",
        admitted.residual()
    );
    live.push(newcomer);

    // Keep decoding: demotion and eviction run behind the scenes while
    // the checksum lane keeps covering every token.
    for t in 0..40 {
        let qs = Matrix::<f64>::random_seeded(live.len(), dim, ElementDist::default(), 500 + t);
        let ks = Matrix::<f64>::random_seeded(live.len(), dim, ElementDist::default(), 600 + t);
        let vs = Matrix::<f64>::random_seeded(live.len(), dim, ElementDist::default(), 700 + t);
        for out in engine.step_decode(&live, &qs, &ks, &vs) {
            assert!(out.residual().abs() < 1e-9);
        }
    }

    println!("steady state (window = 64 tokens, burst = 1 block):");
    for &s in &live {
        println!(
            "  seq {s}: len {} | demoted {} rows | evicted {} rows | {} retained blocks | residual {:+.3e}",
            engine.seq_len(s),
            engine.demoted_len(s),
            engine.evicted_len(s),
            engine.cache().seq_blocks(s).len(),
            engine.global_residual(s),
        );
        assert!(engine.global_residual(s).abs() < 1e-8);
        assert!(engine.evicted_len(s) > 0, "window bounded the cache");
        assert!(
            engine.cache().seq_blocks(s).len() <= 5,
            "retained blocks bounded by window_blocks + 1"
        );
        assert_eq!(engine.unchecked_len(s), 0, "full coverage");
    }
    println!(
        "arena: {} native + {} bf16 blocks, {} recycled claims — memory bounded by the window",
        engine.cache().allocated_blocks(),
        engine.cache().allocated_blocks16(),
        engine.cache().recycled_blocks(),
    );
    println!("all mixed-format serving checksums verified");
}
