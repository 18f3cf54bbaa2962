//! Convenience driver: benchmarks the kernel layer (emitting
//! `BENCH_kernels.json`), then runs every experiment binary in sequence
//! with the given flags, printing section headers — regenerates the full
//! set of paper artifacts (README "Quickstart") in one command.
//!
//! Usage: `cargo run --release -p fa-bench --bin run_all [--quick]`

use fa_bench::TablePrinter;
use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "fig4_area_power",
    "table1_fault_detection",
    "multi_fault",
    "threshold_sweep",
    "overhead_report",
    "coverage_report",
    "criticality_report",
    "recovery_report",
    "seq_len_sweep",
];

/// Benchmarks the kernel layer and writes `BENCH_kernels.json` so the
/// performance trajectory is machine-readable across PRs.
fn kernel_benchmarks(quick: bool) {
    println!("{}", "=".repeat(78));
    println!("== kernel_layer (matmul / flash2 / fused checksum / dot / decode)");
    println!("{}", "=".repeat(78));
    let report = fa_bench::kernels::measure(quick);

    let mut table = TablePrinter::new(vec!["kernel", "baseline ms", "optimized ms", "speedup"]);
    let named = |name: &str, t: &fa_bench::kernels::KernelTiming| {
        vec![
            name.to_string(),
            format!("{:.3}", t.baseline_ms),
            format!("{:.3}", t.optimized_ms),
            format!("{:.2}x", t.speedup()),
        ]
    };
    for p in &report.matmul {
        let n = p.n;
        table.row(named(&format!("matmul bf16 {n}x{n}"), &p.bf16));
        table.row(named(&format!("matmul f64 {n}x{n}"), &p.f64_mm));
        table.row(named(
            &format!("matmul f64-acc bf16 {n}x{n}"),
            &p.f64_acc_bf16,
        ));
    }
    for p in &report.flash2 {
        let s = p.seq_len;
        table.row(named(&format!("flash2 par/serial N={s}"), &p.parallel));
        table.row(named(
            &format!("fused checksum vs flash2 N={s}"),
            &p.fused_checksum,
        ));
    }
    let len = report.dot_simd.len;
    table.row(named(
        &format!("dot f64 len={len}"),
        &report.dot_simd.f64_dot,
    ));
    table.row(named(
        &format!("dot bf16 len={len}"),
        &report.dot_simd.bf16_dot,
    ));
    print!("{}", table.render());
    println!(
        "blocked bf16 matmul: {:.2} GFLOP/s | flash2: {:.0} tokens/s | \
         checksum overhead: {:.2}% | host threads: {}",
        report.matmul.last().map_or(0.0, |p| p.bf16_gflops),
        report.flash2.last().map_or(0.0, |p| p.tokens_per_s),
        report.flash2.last().map_or(0.0, |p| p.overhead_pct),
        report.host_threads
    );

    let shape = report.decode_shape;
    let mut decode = TablePrinter::new(vec![
        "batch",
        "per-seq loop ms",
        "batched ms",
        "speedup",
        "tokens/s",
        "check ovh %",
        "p10..p90 %",
    ]);
    for p in &report.decode_batched {
        decode.row(vec![
            format!("{}", p.batch),
            format!("{:.3}", p.baseline_ms),
            format!("{:.3}", p.batched_ms),
            format!("{:.2}x", p.speedup()),
            format!("{:.0}", p.batched_tokens_per_s),
            format!("{:.2}", p.checked_overhead_pct),
            format!(
                "{:.2}..{:.2}",
                p.checked_overhead_p10_pct, p.checked_overhead_p90_pct
            ),
        ]);
    }
    println!(
        "decode (d={}, heads={}, prefill={}, steps={}): single-seq \
         {:.0} tokens/s unchecked, {:.0} checked ({:+.2}%, p10..p90 \
         {:.2}..{:.2}% over {} pairs)",
        shape.head_dim,
        shape.heads,
        shape.prefill,
        shape.steps,
        report.decode_single.unchecked_tokens_per_s,
        report.decode_single.checked_tokens_per_s,
        report.decode_single.checked_overhead_pct,
        report.decode_single.checked_overhead_p10_pct,
        report.decode_single.checked_overhead_p90_pct,
        report.decode_single.pairs,
    );
    print!("{}", decode.render());
    let kv = &report.decode_kv_bf16;
    println!(
        "bf16 KV cache @ batch {}: {:.3} ms vs f64 {:.3} ms ({:.2}x, {:.0} tokens/s)",
        kv.batch,
        kv.bf16_cache_ms,
        kv.f64_cache_ms,
        kv.speedup(),
        kv.bf16_tokens_per_s
    );
    let cont = &report.decode_continuous;
    println!(
        "continuous batching @ batch {} (retire+admit every {} steps): \
         f64 {:.0} tokens/s ({:.2} MB/step), bf16 {:.0} tokens/s ({:.2} MB/step); \
         {} blocks recycled, arena {} blocks",
        cont.batch,
        cont.churn_every,
        cont.f64_cache.tokens_per_s,
        cont.f64_cache.bytes_per_step / 1e6,
        cont.bf16_cache.tokens_per_s,
        cont.bf16_cache.bytes_per_step / 1e6,
        cont.recycled_blocks,
        cont.arena_blocks,
    );

    let mixed = &report.decode_mixed_format;
    println!(
        "mixed-format policy @ batch {} (chunked admission {} tokens/step, churn every {}, \
         block {} rows, burst {}):\n  f64   {:.0} tok/s aggregate ({:.0} decode, {:.2} MB/step)\n  \
         bf16  {:.0} tok/s aggregate ({:.0} decode, {:.2} MB/step)\n  mixed {:.0} tok/s aggregate \
         ({:.0} decode, {:.2} MB/step); {} rows demoted, arena {}+{} blocks",
        mixed.batch,
        mixed.prefill_chunk,
        mixed.churn_every,
        mixed.block_rows,
        mixed.burst_blocks,
        mixed.f64_cache.tokens_per_s,
        mixed.f64_cache.decode_tokens_per_s,
        mixed.f64_cache.bytes_per_step / 1e6,
        mixed.bf16_cache.tokens_per_s,
        mixed.bf16_cache.decode_tokens_per_s,
        mixed.bf16_cache.bytes_per_step / 1e6,
        mixed.mixed_cache.tokens_per_s,
        mixed.mixed_cache.decode_tokens_per_s,
        mixed.mixed_cache.bytes_per_step / 1e6,
        mixed.mixed_demoted_rows,
        mixed.mixed_arena_blocks,
        mixed.mixed_arena_blocks16,
    );
    println!(
        "  steady decode, committed-point geometry ({}-row blocks, burst {}, batch {}): \
         f64 {:.0} tok/s ({:.2} MB/step), \
         bf16 {:.0} tok/s ({:.2} MB/step), mixed {:.0} tok/s ({:.2} MB/step)",
        mixed.steady_block_rows,
        mixed.steady_burst_blocks,
        mixed.batch,
        mixed.f64_steady.tokens_per_s,
        mixed.f64_steady.bytes_per_step / 1e6,
        mixed.bf16_steady.tokens_per_s,
        mixed.bf16_steady.bytes_per_step / 1e6,
        mixed.mixed_steady.tokens_per_s,
        mixed.mixed_steady.bytes_per_step / 1e6,
    );
    let sw = &report.decode_sliding_window;
    println!(
        "sliding-window eviction @ batch {} (window {} x {} rows): retain-all {:.0} decode tok/s \
         ({:.2} MB/step, arena {}), windowed {:.0} decode tok/s ({:.2} MB/step, arena {}), \
         {} rows evicted/seq",
        sw.batch,
        sw.window_blocks,
        sw.block_rows,
        sw.retain_all.decode_tokens_per_s,
        sw.retain_all.bytes_per_step / 1e6,
        sw.retain_arena_blocks,
        sw.sliding.decode_tokens_per_s,
        sw.sliding.bytes_per_step / 1e6,
        sw.sliding_arena_blocks,
        sw.evicted_rows,
    );
    let ps = &report.prefix_sharing;
    for p in &ps.points {
        println!(
            "multi-query scoring ({} x {} panel, {} queries): per-query GEMV {:.3} ms, \
             multi sweep {:.3} ms ({:.2}x, p10-p90 {:.2}-{:.2}x over {} pairs), bitwise {}",
            ps.n_rows,
            ps.d,
            p.queries,
            p.timing.base_ms,
            p.timing.variant_ms,
            p.timing.ratio,
            p.timing.ratio_p10,
            p.timing.ratio_p90,
            p.timing.pairs,
            p.bitwise_match,
        );
    }

    let path = "BENCH_kernels.json";
    match std::fs::write(path, report.to_json()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    println!();
}

/// Runs the live fault-injection campaigns against the serving engine
/// and writes `BENCH_faults.json`: detection latency, localization
/// accuracy, and recovery cost under batched decode load.
fn fault_benchmarks(quick: bool) {
    println!("{}", "=".repeat(78));
    println!("== fault_tolerance (live injection: detect / localize / recover)");
    println!("{}", "=".repeat(78));
    let report = fa_bench::faults::measure(quick);

    let mut table = TablePrinter::new(vec![
        "site",
        "trials",
        "detected",
        "fp",
        "silent",
        "masked",
        "online",
        "scrub",
        "steps-to-verdict",
        "localized",
        "accuracy %",
        "recoveries",
        "rows",
        "quarantines",
        "divergent",
    ]);
    for s in &report.sites {
        let st = &s.stats;
        table.row(vec![
            format!("{:?}", s.site),
            format!("{}", st.total()),
            format!("{}", st.base.detected),
            format!("{}", st.base.false_positive),
            format!("{}", st.base.silent),
            format!("{}", st.base.masked),
            format!("{}", st.online_detected),
            format!("{}", st.scrub_detected),
            format!("{:.2}", st.mean_steps_to_verdict()),
            format!("{}", st.localized),
            format!("{:.1}", st.localization_accuracy_pct()),
            format!("{}", st.recoveries),
            format!("{}", st.recovered_rows),
            format!("{}", st.quarantines),
            format!("{}", st.post_recovery_divergent),
        ]);
    }
    print!("{}", table.render());
    println!(
        "load: batch {} x prefill {} + {} decode steps, {} trials/site; \
         audit {:.4} ms, fingerprint repair {:.4} ms ({} rows)",
        report.batch,
        report.prefill,
        report.steps,
        report.trials,
        report.audit_ms,
        report.recover_block_ms,
        report.recovered_rows,
    );
    for leg in &report.policy_sweep {
        let st = &leg.stats;
        println!(
            "  policy {:?}/{:?}: {} trials, {} detected, {} silent, {} localized, \
             {} recoveries, {} quarantines, {} divergent, {} evicted-before-detect",
            leg.format,
            leg.eviction,
            st.total(),
            st.base.detected,
            st.base.silent,
            st.localized,
            st.recoveries,
            st.quarantines,
            st.post_recovery_divergent,
            st.evicted_before_detect,
        );
    }
    for leg in &report.scrub_sweep {
        let st = &leg.stats;
        println!(
            "  scrub {} blocks/step (bound {} steps): mean verdict {:.2} steps, \
             worst {} steps, {} online / {} scrub, {} blocks scrubbed",
            leg.blocks_per_step,
            leg.latency_bound_steps,
            st.mean_steps_to_verdict(),
            st.detection_steps_max,
            st.online_detected,
            st.scrub_detected,
            st.scrubbed_blocks,
        );
    }
    for leg in &report.multi_fault {
        let st = &leg.stats;
        println!(
            "  burst k={}: {} flips, {} localized / {} mislocalized ({:.1}%), \
             {} recoveries, {} quarantines, {} divergent",
            leg.flips_per_trial,
            st.injected_flips,
            st.localized,
            st.mislocalized,
            st.localization_accuracy_pct(),
            st.recoveries,
            st.quarantines,
            st.post_recovery_divergent,
        );
    }

    let sp = &report.shared_prefix_drill;
    println!(
        "  shared-prefix drill ({} prefix tokens, share {:.0}%, speculation gamma={}): \
         {} trials ({} drained), {} landed, {} alarms / {} scrub findings, \
         {} blocks repaired, {} quarantined / {} recovered, fidelity {:.2}% \
         ({} tokens, {} divergent)",
        report.shared_prefix_tokens,
        report.shared_prefix_share_prob * 100.0,
        report.shared_prefix_gamma,
        sp.trials,
        sp.drained_trials,
        sp.injections_landed,
        sp.online_alarms,
        sp.scrub_findings,
        sp.repaired_blocks,
        sp.quarantined_requests,
        sp.recovered_requests,
        sp.token_fidelity_pct(),
        sp.tokens_compared,
        sp.tokens_divergent,
    );

    let path = "BENCH_faults.json";
    match std::fs::write(path, report.to_json()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    println!();
}

/// Runs the SLO-aware serving legs (clean / fault drill / pressure
/// preemption) and writes `BENCH_serving.json`.
fn serving_benchmarks(quick: bool) {
    println!("{}", "=".repeat(78));
    println!("== slo_serving (clean / fault drill / memory-pressure preemption)");
    println!("{}", "=".repeat(78));
    let report = fa_bench::serving::measure(quick);

    let mut table = TablePrinter::new(vec![
        "leg",
        "steps",
        "finished",
        "shed",
        "ttft p50 ms",
        "ttft p99 ms",
        "tok p99 ms",
        "goodput/SLO",
        "demote",
        "preempt",
        "quarantine",
    ]);
    for (name, leg) in [("clean", &report.clean), ("preemption", &report.preemption)] {
        let s = &leg.summary;
        table.row(vec![
            name.to_string(),
            format!("{}", leg.steps_run),
            format!("{}", s.finished),
            format!("{}", s.shed),
            format!("{:.4}", leg.ttft_p50_ms()),
            format!("{:.4}", leg.ttft_p99_ms()),
            format!("{:.4}", leg.per_token_p99_ms()),
            format!("{:.3}", leg.goodput_under_slo()),
            format!("{}", s.demotions),
            format!("{}", s.preemptions),
            format!("{}", s.quarantines),
        ]);
    }
    print!("{}", table.render());
    for (name, st) in [
        ("value drill", &report.value_drill),
        ("key drill", &report.key_drill),
    ] {
        println!(
            "  {name}: {} trials, {} landed, {} alarms / {} scrub findings, \
             {} quarantines, detection {:.1}%, recovery {:.1}%, fidelity {:.2}%",
            st.trials,
            st.injections_landed,
            st.online_alarms,
            st.scrub_findings,
            st.quarantines,
            st.detection_pct(),
            st.recovery_pct(),
            st.token_fidelity_pct(),
        );
    }
    println!(
        "SLO: TTFT <= {} steps, inter-token <= {} steps; load window {} steps",
        report.slo.ttft_steps, report.slo.per_token_steps, report.load_steps
    );
    let ps = &report.prefix_sharing;
    println!(
        "prefix sharing ({}+{} tokens, {}-row blocks):",
        ps.prefix_tokens, ps.suffix_tokens, ps.block_rows
    );
    for p in &ps.points {
        println!(
            "  k={:<2} | prefill {:.0} vs {:.0} tok/s (shared vs independent) | arena {} vs {} \
             blocks | decode shared == independent bitwise: {}",
            p.readers,
            p.shared_prefill_tokens_per_s,
            p.unshared_prefill_tokens_per_s,
            p.shared_arena_blocks,
            p.unshared_arena_blocks,
            p.decode_bitwise_match,
        );
    }

    let sp = &report.speculative;
    println!(
        "speculative decode (batch {}, prefill {}, {} windows, draft-and-verify vs sequential twin):",
        sp.batch, sp.prefill_tokens, sp.windows
    );
    for p in &sp.points {
        println!(
            "  gamma={} alpha={:.1} | measured accept {:.2} | {:.0} vs {:.0} tok/s \
             (spec vs sequential, {:.2}x) | {:.2} vs {:.2} MB/step | bitwise {}",
            p.gamma,
            p.acceptance_rate,
            p.measured_acceptance,
            p.tokens_per_s,
            p.sequential_tokens_per_s,
            p.tokens_per_s / p.sequential_tokens_per_s,
            p.bytes_per_step / 1e6,
            p.sequential_bytes_per_step / 1e6,
            p.decode_bitwise_match,
        );
    }

    let path = "BENCH_serving.json";
    match std::fs::write(path, report.to_json()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    println!();
}

fn main() {
    let passthrough: Vec<String> = std::env::args().skip(1).collect();
    let quick = passthrough.iter().any(|a| a == "--quick");
    kernel_benchmarks(quick);
    fault_benchmarks(quick);
    serving_benchmarks(quick);
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe directory")
        .to_path_buf();

    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("{}", "=".repeat(78));
        println!("== {name}");
        println!("{}", "=".repeat(78));
        let status = Command::new(exe_dir.join(name)).args(&passthrough).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name} exited with {s}");
                failures.push(*name);
            }
            Err(e) => {
                eprintln!("{name} failed to launch: {e} (build with `cargo build --release -p fa-bench` first)");
                failures.push(*name);
            }
        }
        println!();
    }
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        eprintln!("failed: {failures:?}");
        std::process::exit(1);
    }
}
