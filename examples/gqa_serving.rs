//! GQA-native serving: a Llama-3.1-shaped grouped topology (4 query
//! heads per kv head) decoding through the paged per-kv-head cache with
//! the full policy layer on top — mixed-format blocks (f64 burst → BF16
//! steady state) and sliding-window eviction — every token
//! checksum-covered, per-query-head verdicts exact.
//!
//! Run with: `cargo run --release --example gqa_serving`

use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
use fa_attention::{AttentionConfig, HeadTopology};
use fa_tensor::{random::ElementDist, Matrix};

fn main() {
    // Llama-3.1's grouping, scaled down: 8 query heads share 2 kv heads
    // (group_size 4) at head_dim 32. The cache stores one K/V stream per
    // *kv* head, so every decode step streams 1/4 of the bytes an
    // equivalent MHA engine would — and the policy layer composes on
    // top: blocks older than the newest full block demote to BF16, and
    // blocks behind a 4-block window are evicted outright.
    let topo = HeadTopology::gqa(8, 2, AttentionConfig::new(32));
    let mut engine = DecodeBatch::<f64>::with_policy(
        topo,
        16,
        KvLayout::HeadMajor,
        KvFormat::Mixed { burst_blocks: 1 },
        EvictionPolicy::SlidingWindow { window_blocks: 4 },
    );
    engine.set_prefill_chunk(24);
    println!(
        "topology: {} query heads / {} kv heads (group {}), q_dim {}, kv_dim {}",
        topo.query_heads,
        topo.kv_heads,
        topo.group_size(),
        topo.q_dim(),
        topo.kv_dim(),
    );

    let prompt = |len: usize, seed: u64| {
        (
            Matrix::<f64>::random_seeded(len, topo.q_dim(), ElementDist::default(), seed),
            Matrix::<f64>::random_seeded(len, topo.kv_dim(), ElementDist::default(), seed + 1),
            Matrix::<f64>::random_seeded(len, topo.kv_dim(), ElementDist::default(), seed + 2),
        )
    };

    // Two prompts admitted before decoding starts: batched checked GQA
    // prefill, one 24-token chunk per prefill_step_for — each kv head's
    // stream feeds its whole group of query heads, including the shared
    // sumrow(V) checksum input.
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
            "admitted seq {s}: {} prompt tokens (residual {:+.3e})",
            engine.prompt_len(s),
            engine.global_residual(s),
        );
        assert!(engine.global_residual(s).abs() < 1e-8);
    }

    // A long prompt arrives mid-flight and admits chunk by chunk while
    // the batch keeps decoding: each step runs one prefill chunk for it,
    // then decodes the live batch.
    let (lq, lk, lv) = prompt(72, 99);
    let newcomer = engine.enqueue(&lq, &lk, &lv);
    let mut step = 0u64;
    while engine.is_pending(newcomer) {
        let rows = live.len();
        let q =
            Matrix::<f64>::random_seeded(rows, topo.q_dim(), ElementDist::default(), 200 + step);
        let k =
            Matrix::<f64>::random_seeded(rows, topo.kv_dim(), ElementDist::default(), 300 + step);
        let v =
            Matrix::<f64>::random_seeded(rows, topo.kv_dim(), ElementDist::default(), 400 + step);
        engine.prefill_step_for(&[newcomer]);
        for out in engine.step_decode(&live, &q, &k, &v) {
            assert!(out.residual().abs() < 1e-9, "fused per-token check");
        }
        step += 1;
    }
    let admitted = engine.take_admitted(newcomer).expect("prompt completed");
    assert!(
        admitted.residual().abs() < 1e-9,
        "chunk-folded prompt check"
    );
    println!("seq {newcomer} admitted across {step} decode steps");
    live.push(newcomer);

    // Keep decoding: demotion and eviction run per kv head behind the
    // scenes while every query head keeps its exact verdict.
    for t in 0..40u64 {
        let rows = live.len();
        let q = Matrix::<f64>::random_seeded(rows, topo.q_dim(), ElementDist::default(), 500 + t);
        let k = Matrix::<f64>::random_seeded(rows, topo.kv_dim(), ElementDist::default(), 600 + t);
        let v = Matrix::<f64>::random_seeded(rows, topo.kv_dim(), ElementDist::default(), 700 + t);
        for out in engine.step_decode(&live, &q, &k, &v) {
            assert!(out.residual().abs() < 1e-9);
        }
    }

    println!("steady state (window = 64 tokens, burst = 1 block, group = 4):");
    for &s in &live {
        println!(
            "  seq {s}: len {} | demoted {} rows | evicted {} rows | {} retained blocks | \
             residual {:+.3e}",
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
    // The arena bound is kv_heads-proportional: each block row stores
    // kv_dim (not q_dim) elements, 1/group_size of the MHA footprint.
    println!(
        "arena: {} native + {} bf16 blocks of {} rows x {} elements ({} recycled claims) — \
         1/{} the row width an MHA cache would hold",
        engine.cache().allocated_blocks(),
        engine.cache().allocated_blocks16(),
        engine.cache().block_rows(),
        engine.cache().width(),
        engine.cache().recycled_blocks(),
        topo.group_size(),
    );
    assert_eq!(engine.cache().width(), topo.kv_dim());
    println!("all GQA serving checksums verified");
}
