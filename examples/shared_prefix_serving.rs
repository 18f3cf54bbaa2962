//! Prefix-sharing copy-on-write serving: many requests that open with
//! the same system prompt keep **one** physical copy of its KV blocks.
//! The prefix registry prefills the prompt once, every reader adopts
//! the blocks by reference (refcounted, zero bytes copied), and each
//! reader's fused decode pass scores the shared K/V rows and `sumrow`
//! lanes exactly as it scores its private ones — bit-identical to an
//! engine that never shared anything.
//!
//! Three acts:
//!
//! 1. **one prefix, many readers** — register a shared prefix, admit k
//!    readers through it, and verify the whole contract at once: the
//!    arena holds `prefix + k·suffix` blocks (not `k·(prefix+suffix)`),
//!    every block's refcount equals its reader count plus the
//!    registry's pin, and both prompt outputs and decode streams are
//!    bit-identical to an engine that never shared anything;
//! 2. **repair once, everyone healed** — poison the shared prefix: all
//!    readers' audits alarm on the same physical block, one repair
//!    through any single reader mends the word from the block's
//!    fingerprints, and
//!    every other reader's next audit is clean;
//! 3. **scheduler + load generator** — tenants with shared system
//!    prompts flow through the SLO scheduler: one registry entry per
//!    tenant, reader counts tracked, and the whole run replays
//!    bit-identically from the same seed.
//!
//! Run with: `cargo run --release --example shared_prefix_serving`

use fa_attention::batch::{BlockRef, DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
use fa_attention::serve::{LoadGen, LoadSpec, Scheduler, ServeConfig, SloSpec};
use fa_attention::{AttentionConfig, HeadTopology};
use fa_tensor::{random::ElementDist, Matrix};

const TOL: f64 = 1e-6;
const PREFIX_ROWS: usize = 16; // 4 full blocks, chunk-aligned
const SUFFIX_ROWS: usize = 4;
const READERS: usize = 6;
const DECODE_STEPS: usize = 4;

fn engine() -> DecodeBatch<f64> {
    let mut e = DecodeBatch::<f64>::with_policy(
        HeadTopology::gqa(4, 2, AttentionConfig::new(8)),
        4,
        KvLayout::HeadMajor,
        KvFormat::F64,
        EvictionPolicy::RetainAll,
    );
    e.set_prefill_chunk(4);
    e
}

fn rand(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    Matrix::random_seeded(rows, cols, ElementDist::default(), seed)
}

fn vcat(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    Matrix::from_fn(a.rows() + b.rows(), a.cols(), |r, c| {
        if r < a.rows() {
            a[(r, c)]
        } else {
            b[(r - a.rows(), c)]
        }
    })
}

type Prompt = (Matrix<f64>, Matrix<f64>, Matrix<f64>);

fn prompt(rows: usize, seed: u64) -> Prompt {
    (
        rand(rows, 32, seed),
        rand(rows, 16, seed + 1),
        rand(rows, 16, seed + 2),
    )
}

/// Admits `READERS` suffixes behind a freshly registered prefix and
/// returns `(prefix id, sequence ids, admitted suffix outputs)`.
fn admit_shared(
    e: &mut DecodeBatch<f64>,
    prefix: &Prompt,
    suffixes: &[Prompt],
) -> (usize, Vec<usize>, Vec<Matrix<f64>>) {
    let id = e.register_prefix(&prefix.0, &prefix.1, &prefix.2);
    let seqs: Vec<usize> = suffixes
        .iter()
        .map(|(q, k, v)| e.enqueue_shared(id, q, k, v))
        .collect();
    while e.prefill_step_for(&seqs) > 0 {}
    let outs = seqs
        .iter()
        .map(|&s| e.take_admitted(s).expect("reader admitted").output)
        .collect();
    (id, seqs, outs)
}

fn decode_outputs(e: &mut DecodeBatch<f64>, seqs: &[usize], steps: &[Prompt]) -> Vec<Vec<f64>> {
    let mut outs = Vec::new();
    for (q, k, v) in steps {
        for o in e.step_decode(seqs, q, k, v) {
            outs.push(o.output);
        }
    }
    outs
}

fn main() {
    let prefix = prompt(PREFIX_ROWS, 0x10);
    let suffixes: Vec<Prompt> = (0..READERS)
        .map(|i| prompt(SUFFIX_ROWS, 0x100 + 16 * i as u64))
        .collect();
    let steps: Vec<Prompt> = (0..DECODE_STEPS)
        .map(|t| prompt(READERS, 0x900 + 16 * t as u64))
        .collect();

    // ---- Act 1: one prefix, many readers, zero numeric drift --------
    println!("== act 1: {READERS} readers adopt one {PREFIX_ROWS}-token prefix");
    let mut shared = engine();
    let (id, seqs, souts) = admit_shared(&mut shared, &prefix, &suffixes);

    // The O(L + k·suffix) arena claim, exactly.
    let prefix_blocks = shared.prefix_blocks(id).len();
    let arena = shared.cache().live_unique_blocks();
    assert_eq!(prefix_blocks, PREFIX_ROWS / 4);
    assert_eq!(arena, prefix_blocks + READERS * SUFFIX_ROWS.div_ceil(4));
    // Every prefix block: one reference per reader + the registry pin.
    for &b in shared.prefix_blocks(id) {
        let rc = shared.cache().block_ref_count(BlockRef {
            index: b.index,
            bf16: b.bf16,
        });
        assert_eq!(rc, READERS as u32 + 1, "reader refs + registry pin");
    }
    println!(
        "  arena: {arena} blocks = {prefix_blocks} prefix + {READERS} x 1 suffix \
         (independent admission would hold {})",
        READERS * (prefix_blocks + 1)
    );

    // Unshared replay: same tokens as full prompts, no registry.
    let mut plain = engine();
    let pseqs: Vec<usize> = suffixes
        .iter()
        .map(|(q, k, v)| {
            plain.enqueue(
                &vcat(&prefix.0, q),
                &vcat(&prefix.1, k),
                &vcat(&prefix.2, v),
            )
        })
        .collect();
    while plain.prefill_step_for(&pseqs) > 0 {}
    for (i, &s) in pseqs.iter().enumerate() {
        let full = plain.take_admitted(s).expect("plain admitted").output;
        for r in 0..SUFFIX_ROWS {
            assert_eq!(
                souts[i].row(r),
                full.row(PREFIX_ROWS + r),
                "shared admission is bit-identical to the unshared replay"
            );
        }
    }

    // Decode lockstep: the shared cache vs the never-shared engine —
    // one bit stream.
    let a = decode_outputs(&mut shared, &seqs, &steps);
    let c = decode_outputs(&mut plain, &pseqs, &steps);
    assert_eq!(a, c, "shared decode matches the unshared replay bitwise");
    println!(
        "  {} decode tokens bit-identical across shared / unshared",
        a.len()
    );

    // ---- Act 2: poison the shared prefix, repair once ---------------
    println!("== act 2: one flip in the shared prefix, one repair heals all readers");
    let hit_bf16 = shared.flip_storage_bit(seqs[0], 2, 0, 3, true, 61);
    assert!(!hit_bf16, "the prefix lives in native f64 blocks");
    let alarmed = seqs
        .iter()
        .filter(|&&s| !shared.audit(s, TOL).is_empty())
        .count();
    assert_eq!(
        alarmed, READERS,
        "a shared-block fault alarms every reader's audit"
    );
    let rep = shared.audit_and_repair(seqs[0], TOL);
    assert_eq!(rep.rows_rewritten, 1, "the fingerprints mend the word");
    assert_eq!(rep.blocks_unrecoverable, 0);
    for &s in &seqs {
        assert!(
            shared.audit(s, TOL).is_empty(),
            "one repair through any reader heals the physical block for all"
        );
    }
    // Post-repair decode still tracks the never-faulted engines bitwise.
    let post: Vec<Prompt> = (0..2).map(|t| prompt(READERS, 0xA00 + 16 * t)).collect();
    assert_eq!(
        decode_outputs(&mut shared, &seqs, &post),
        decode_outputs(&mut plain, &pseqs, &post),
        "repair restores the exact bits, not an approximation"
    );
    println!("  {alarmed}/{READERS} readers alarmed, 1 repair, all audits clean");

    // ---- Act 3: shared system prompts through the scheduler ---------
    println!("== act 3: tenant system prompts through the SLO scheduler");
    let spec = LoadSpec {
        tenants: 2,
        prefix_tokens: 8,
        prefix_share_prob: 1.0,
        prompt_min: 2,
        prompt_max: 12,
        output_min: 2,
        output_max: 8,
        ..LoadSpec::default()
    };
    let serve = |seed: u64| {
        let mut sched = Scheduler::new(engine(), ServeConfig::default());
        let mut gen = LoadGen::new(spec, seed);
        for _ in 0..40 {
            let arrivals = gen.step();
            sched.step(&arrivals);
        }
        for _ in 0..400 {
            let r = sched.step(&[]);
            if sched.queue_len() == 0
                && sched.active_decoding().is_empty()
                && r.prefill_tokens == 0
                && r.decode_tokens == 0
                && r.finished == 0
            {
                break;
            }
        }
        sched
    };
    let run = serve(0x5EED);
    let twin = serve(0x5EED);
    let ids = run.engine().prefix_ids();
    assert!(
        !ids.is_empty() && ids.len() <= spec.tenants,
        "at most one registry entry per tenant system prompt"
    );
    let readers: usize = ids.iter().map(|&i| run.engine().prefix_readers(i)).sum();
    let admitted = run
        .records()
        .iter()
        .filter(|r| r.admitted_step.is_some())
        .count();
    assert!(run.records().iter().all(|r| r.prefix_seed.is_some()));
    assert!(
        readers >= admitted,
        "every admitted request read its prefix"
    );
    let summary = run.summary(&SloSpec {
        ttft_steps: 16,
        per_token_steps: 6,
    });
    assert!(summary.finished > 0, "the run must finish requests");
    for (x, y) in run.records().iter().zip(twin.records()) {
        assert_eq!(x.phase, y.phase);
        assert_eq!(
            x.token_hashes, y.token_hashes,
            "prefix-sharing serving replays bit-identically from the seed"
        );
    }
    println!(
        "  {} requests finished across {} tenants: {} registry entries, {readers} readers, \
         twin replay bit-identical",
        summary.finished,
        spec.tenants,
        ids.len(),
    );

    println!();
    println!("shared_prefix_serving: all invariants held");
}
