//! Continuous batching: serving sequences that arrive and finish
//! mid-flight, with the fused ABFT checksum covering every prefill and
//! decode token, and retired sequences' cache blocks recycled through
//! the head-major paged KV cache's free list.
//!
//! Run with: `cargo run --release --example continuous_batching`

use fa_attention::batch::DecodeBatch;
use fa_attention::multihead::MultiHeadConfig;
use fa_attention::AttentionConfig;
use fa_tensor::{random::ElementDist, Matrix};

fn main() {
    // Four heads of dimension 32; the head-major paged cache (64-row
    // blocks) gives each (sequence, head) decode pass one pure
    // contiguous K/V stream.
    let cfg = MultiHeadConfig::new(4, AttentionConfig::new(32));
    let dim = cfg.model_dim();
    let mut engine = DecodeBatch::<f64>::new(cfg, 64);

    let prompt = |len: usize, seed: u64| {
        (
            Matrix::<f64>::random_seeded(len, dim, ElementDist::default(), seed),
            Matrix::<f64>::random_seeded(len, dim, ElementDist::default(), seed + 1),
            Matrix::<f64>::random_seeded(len, dim, ElementDist::default(), seed + 2),
        )
    };

    // Admit the opening batch through the one admission path: enqueue
    // stages each prompt, every prefill_step_for advances all listed
    // prompts by one chunk (default 32 tokens) with all prompts × heads
    // checked through the batched fused-checksum prefill in ONE fork
    // (the chunked form of flash2_with_checksum), and take_admitted
    // collects each finished prompt.
    let mut live: Vec<usize> = (0..3)
        .map(|i| {
            let (q, k, v) = prompt(24 + 16 * i, 10 * (i as u64 + 1));
            engine.enqueue(&q, &k, &v)
        })
        .collect();
    while engine.prefill_step_for(&live) > 0 {}
    for &seq in &live {
        let admitted = engine.take_admitted(seq).expect("prompt drained");
        println!(
            "admitted seq {} ({} prompt tokens, prompt residual {:+.3e})",
            admitted.seq,
            engine.prompt_len(admitted.seq),
            admitted.residual()
        );
        assert!(admitted.residual().abs() < 1e-9, "prompt check must hold");
    }

    let decode = |engine: &mut DecodeBatch<f64>, live: &[usize], t: u64| {
        let qs = Matrix::<f64>::random_seeded(live.len(), dim, ElementDist::default(), 100 + t);
        let ks = Matrix::<f64>::random_seeded(live.len(), dim, ElementDist::default(), 200 + t);
        let vs = Matrix::<f64>::random_seeded(live.len(), dim, ElementDist::default(), 300 + t);
        for out in engine.step_decode(live, &qs, &ks, &vs) {
            assert!(out.residual().abs() < 1e-9, "fused per-token check");
        }
    };

    // Decode a few tokens, then one sequence finishes: retire it. Its
    // blocks go to the free list; everyone else keeps decoding.
    for t in 0..4 {
        decode(&mut engine, &live, t);
    }
    let finished = live.remove(1);
    let verdict = engine.global_residual(finished);
    engine.retire(finished);
    println!(
        "retired seq {finished} (final residual {verdict:+.3e}); free blocks: {}",
        engine.cache().free_block_list().len()
    );

    // A new request arrives mid-flight: admission reuses the retired
    // slot and its recycled blocks — the arena does not grow. Its 40
    // prompt tokens admit one chunk per step while the batch keeps
    // decoding; the caller decides which prompts advance each step.
    let arena_before = engine.cache().allocated_blocks();
    let (q, k, v) = prompt(40, 99);
    let seq = engine.enqueue(&q, &k, &v);
    let mut t = 4;
    while engine.prefill_step_for(&[seq]) > 0 {
        decode(&mut engine, &live, t);
        t += 1;
    }
    let admitted = engine.take_admitted(seq).expect("prompt drained");
    assert!(admitted.residual().abs() < 1e-9, "prompt check must hold");
    live.push(seq);
    println!(
        "admitted replacement as seq {seq} over {} steps — recycled {} blocks, arena {} -> {} blocks",
        t - 4,
        engine.cache().recycled_blocks(),
        arena_before,
        engine.cache().allocated_blocks(),
    );
    assert!(engine.cache().recycled_blocks() > 0, "blocks were reused");

    for t in t..t + 4 {
        decode(&mut engine, &live, t);
    }

    // Session verdicts: the running checksum covers each sequence's
    // admitted prompt AND every checked decode token.
    println!("session verdicts (prompt + decode coverage):");
    for &id in &live {
        println!(
            "  seq {id}: {} prompt + {} decoded tokens, residual {:+.3e}, unchecked {}",
            engine.prompt_len(id),
            engine.decoded_len(id),
            engine.global_residual(id),
            engine.unchecked_len(id),
        );
        assert!(engine.global_residual(id).abs() < 1e-8);
        assert_eq!(engine.unchecked_len(id), 0, "full coverage");
    }
    println!("all continuous-batching checksums verified");
}
