//! Serving benchmark for the checked attention engine.
//!
//! Drives `fa_attention::serve::Scheduler` at the Llama-3.1-8B attention
//! shape under one named workload and prints, as its last stdout line, one
//! JSON object with the run's metrics:
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics (`setup_s` is the median of
//! several set-ups). `--trace 1` serves the workload again with a span
//! around every scheduler step, replays the logged per-step shapes through
//! bare engines to time each layer's public calls, times the kernels at the
//! workload's panel shapes, and reports the per-layer metrics. Every run
//! re-serves a seeded sample of requests alone and fails unless their
//! outputs match bitwise.

mod json;
mod run;
mod stats;
mod trace;
mod workload;

use json::Metrics;
use run::EndToEnd;
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Finished requests the output check re-serves alone.
const CHECK_SAMPLES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn print_end_to_end(e: &EndToEnd) {
    println!(
        "requests: sent {} finished {} failed {} (failed_share {:.4})",
        e.sent,
        e.finished,
        e.failed,
        e.failed_share()
    );
    println!("output_tok_s        {:>10.2} tok/s", e.output_tok_s);
    for (name, r) in [
        ("ttft_p50_ms", e.ttft_p50_ms),
        ("ttft_p90_ms", e.ttft_p90_ms),
        ("itl_p50_ms", e.itl_p50_ms),
        ("itl_p99_ms", e.itl_p99_ms),
    ] {
        println!(
            "{name:<19} {:>10.3} ms   (n={}, reported p{:.1})",
            r.value, r.n, r.effective_p
        );
    }
    println!("goodput_under_slo   {:>10.4}", e.goodput_under_slo);
    let late = stats::report(&e.late_ms, 99.0);
    println!(
        "loadgen.late_ms_p99 {:>10.3} ms   (n={}, reported p{:.1})",
        late.value, late.n, late.effective_p
    );
}

fn untraced(a: &Args) -> Result<(Metrics, EndToEnd), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut session = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so only one engine is resident.
        drop(session.take());
        let t = Instant::now();
        let s = run::setup(a.workload, a.seed, false);
        setups.push(t.elapsed().as_secs_f64());
        session = Some(s);
    }
    let mut s = session.expect("at least one set-up");
    let w = run::measure(&mut s, a.seconds);
    let e = run::end_to_end(&s, &w);
    let rss = run::peak_rss_mb();
    let steps = &s.steps[w.first_step..w.last_step];
    println!(
        "window: {:.3} s, {} steps (mean {:.3} ms), drain {} steps",
        w.seconds,
        steps.len(),
        steps.iter().map(|st| st.end - st.start).sum::<f64>() * 1e3 / steps.len().max(1) as f64,
        s.steps.len() - w.last_step
    );
    print_end_to_end(&e);
    let compared = run::output_check(&s, &w, a.seed, CHECK_SAMPLES)?;
    println!("output check: {compared} tokens bitwise equal to requests served alone");
    let mut m = Metrics::default();
    m.push("output_tok_s", e.output_tok_s, "tok/s");
    m.push("ttft_p50_ms", e.ttft_p50_ms.value, "ms");
    m.push("ttft_p90_ms", e.ttft_p90_ms.value, "ms");
    m.push("itl_p50_ms", e.itl_p50_ms.value, "ms");
    m.push("itl_p99_ms", e.itl_p99_ms.value, "ms");
    m.push("goodput_under_slo", e.goodput_under_slo, "share");
    m.push("setup_s", stats::median(&setups), "s");
    m.push("peak_rss_mb", rss, "MB");
    println!(
        "setup_s             {:>10.4} s   (median of {setups:?})",
        stats::median(&setups)
    );
    println!("peak_rss_mb         {rss:>10.1} MB");
    Ok((m, e))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads()
    );
    let result = if args.trace {
        trace::traced(args.workload, args.seed, args.seconds)
    } else {
        untraced(&args)
    };
    match result {
        Ok((metrics, e)) => {
            println!("{}", metrics.to_result_json(true, e.sent, e.failed));
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("servebench: output check failed: {msg}");
            println!("{}", Metrics::default().to_result_json(false, 1, 1));
            ExitCode::FAILURE
        }
    }
}
