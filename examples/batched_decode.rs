//! Batched checked decode: serving many sequences from one paged KV
//! cache, with the fused per-token ABFT checksum riding every head's
//! pass.
//!
//! Run with: `cargo run --release --example batched_decode`

use fa_attention::batch::DecodeBatch;
use fa_attention::multihead::MultiHeadConfig;
use fa_attention::AttentionConfig;
use fa_tensor::{random::ElementDist, Matrix};

fn main() {
    // Four heads of dimension 32, three concurrent sequences, KV cache
    // allocated in 64-row blocks (the paged-attention layout).
    let cfg = MultiHeadConfig::new(4, AttentionConfig::new(32));
    let dim = cfg.model_dim();
    let mut engine = DecodeBatch::<f64>::new(cfg, 64);
    let ids: Vec<usize> = (0..3).map(|_| engine.add_sequence()).collect();

    // Prefill each sequence with a different-length prompt (the cache is
    // per-sequence, block-allocated — no padding to the longest prompt).
    for (i, &id) in ids.iter().enumerate() {
        let prompt_len = 24 + 16 * i;
        let k =
            Matrix::<f64>::random_seeded(prompt_len, dim, ElementDist::default(), 10 + i as u64);
        let v =
            Matrix::<f64>::random_seeded(prompt_len, dim, ElementDist::default(), 20 + i as u64);
        engine.prefill(id, &k, &v);
        println!("sequence {id}: prefilled {prompt_len} tokens");
    }

    // Decode 8 tokens for all sequences. Each step_decode call appends every
    // sequence's new K/V, then schedules all sequences × heads across the
    // shared thread pool in a single fork; the per-token checksum is
    // computed in the same pass as the output.
    for t in 0..8u64 {
        let qs = Matrix::<f64>::random_seeded(3, dim, ElementDist::default(), 100 + t);
        let ks = Matrix::<f64>::random_seeded(3, dim, ElementDist::default(), 200 + t);
        let vs = Matrix::<f64>::random_seeded(3, dim, ElementDist::default(), 300 + t);
        let outs = engine.step_decode(&ids, &qs, &ks, &vs);
        if t == 0 || t == 7 {
            println!("step {t}:");
            for (i, out) in outs.iter().enumerate() {
                println!(
                    "  seq {i}: cache {:>2} tokens, output[0] {:+.4}, residual {:+.3e}",
                    engine.seq_len(ids[i]),
                    out.output[0],
                    out.residual()
                );
                assert!(out.residual().abs() < 1e-9, "fused check must hold");
            }
        }
    }

    // The session-level verdict accumulates every decoded token's check
    // (Alg. 3 line 11 carried across steps).
    println!("session residuals:");
    for &id in &ids {
        println!("  seq {id}: {:+.3e}", engine.global_residual(id));
        assert!(engine.global_residual(id).abs() < 1e-8);
    }
    println!("all decode checksums verified");
}
