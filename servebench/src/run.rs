//! Drives `serve::Scheduler` under one workload and derives the
//! end-to-end metrics from wall-clock step boundaries.
//!
//! The scheduler's own clock is the step index; this module stamps every
//! step with its wall-clock start and end, so a token produced at step
//! `s` is delivered at `end[s]`, and a request is timed from when it was
//! due (when its client's previous request finished), not from when a step
//! boundary let it in.
//!
//! Every workload is a closed loop: each client sends its next request as
//! soon as its previous one finishes. Open-loop schedules (Poisson and
//! jittered fixed-rate) were tried at the same shapes and dropped: in a
//! 20-second window their latency percentiles fell between the modes of
//! a bimodal step-time mix (decode-only vs admission steps) and moved
//! 30–120% between seeds.

use crate::stats::{self, Reported};
use crate::workload::{self, RequestStream, Spec, Workload};
use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
use fa_attention::serve::{Phase, Request, Scheduler, ServeConfig, StepReport};
use fa_models::LlmModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// KV-cache rows per block.
pub const BLOCK_ROWS: usize = 16;
/// Prompt tokens one pending prompt advances per step.
pub const PREFILL_CHUNK: usize = 32;
/// Per-step token budget shared by prefill chunks and decode tokens.
pub const TOKEN_BUDGET: usize = 160;
/// Share of the budget admission may claim.
pub const PREFILL_BUDGET: usize = 128;
/// Scrub detection-latency target in steps.
pub const SCRUB_SLO_STEPS: usize = 16;
/// Large enough that no workload sheds: a shed request is a failure.
const QUEUE_BOUND: usize = 1 << 16;
/// Requests still running this long after the window closed count as
/// unfinished.
const DRAIN_LIMIT_S: f64 = 60.0;
/// Bound on the steps a warmup or a lone check request may take.
const STEP_LIMIT: usize = 100_000;

/// The engine every workload serves on: Llama-3.1-8B attention (32 query
/// and 8 kv heads, head_dim 128), f64 head-major cache, retain-all.
pub fn engine() -> DecodeBatch<f64> {
    let mut e = DecodeBatch::<f64>::with_policy(
        LlmModel::Llama31.config().topology(),
        BLOCK_ROWS,
        KvLayout::HeadMajor,
        KvFormat::F64,
        EvictionPolicy::RetainAll,
    );
    e.set_prefill_chunk(PREFILL_CHUNK);
    e
}

/// The one scheduler configuration; only γ and α vary by workload.
pub fn serve_config(spec: &Spec) -> ServeConfig {
    ServeConfig {
        token_budget: TOKEN_BUDGET,
        prefill_budget: PREFILL_BUDGET,
        queue_bound: QUEUE_BOUND,
        max_kv_bytes: None,
        scrub_slo_steps: Some(SCRUB_SLO_STEPS),
        recovery_log: true,
        log_budget_rows: None,
        speculation_gamma: spec.gamma,
        draft_acceptance: spec.alpha,
        ..ServeConfig::default()
    }
}

/// The engine's public counters, read between steps in traced runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub shared_tiles: u64,
    pub cow_copies: usize,
    pub recycled_blocks: usize,
    pub scrubbed_blocks: u64,
    pub live_kv_bytes: usize,
    pub log_bytes: usize,
    pub live_blocks: usize,
}

impl Counters {
    fn read(e: &DecodeBatch<f64>) -> Counters {
        Counters {
            shared_tiles: e.shared_score_tiles(),
            cow_copies: e.cache().cow_copies(),
            recycled_blocks: e.cache().recycled_blocks(),
            scrubbed_blocks: e.scrubbed_blocks(),
            live_kv_bytes: e.cache().live_kv_bytes(),
            log_bytes: e.recovery_log_bytes(),
            live_blocks: e.live_blocks(),
        }
    }
}

/// One `Scheduler::step` span: wall-clock bounds (seconds since the
/// session began), the step's report, and, when traced, the counters
/// after it.
#[derive(Clone, Debug)]
pub struct StepLog {
    pub start: f64,
    pub end: f64,
    pub report: StepReport,
    pub counters: Option<Counters>,
}

impl StepLog {
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// A scheduler plus the wall-clock log of everything it was asked to do.
pub struct Session {
    pub spec: Spec,
    pub sched: Scheduler,
    origin: Instant,
    /// Every step, indexed by the scheduler's step number.
    pub steps: Vec<StepLog>,
    /// Every request submitted, indexed like `Scheduler::records`.
    pub requests: Vec<Request>,
    /// When each request was due, in session seconds.
    pub due: Vec<f64>,
    /// Start of the step each request entered at.
    pub entered: Vec<f64>,
    trace: bool,
    stream: RequestStream,
}

impl Session {
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs one scheduler step with `arrivals` (each with its due time).
    pub fn step(&mut self, arrivals: Vec<(Request, f64)>) {
        let start = self.now();
        let reqs: Vec<Request> = arrivals.iter().map(|(r, _)| r.clone()).collect();
        let report = self.sched.step(&reqs);
        let end = self.now();
        let counters = self.trace.then(|| Counters::read(self.sched.engine()));
        for (r, due) in arrivals {
            self.requests.push(r);
            self.due.push(due);
            self.entered.push(start);
        }
        self.steps.push(StepLog {
            start,
            end,
            report,
            counters,
        });
    }

    fn done(&self, rec: usize) -> bool {
        matches!(
            self.sched.records()[rec].phase,
            Phase::Finished | Phase::Shed
        )
    }

    /// Steps with no arrivals until every listed request is done or
    /// `limit_s` seconds pass; returns those still running.
    fn drain(&mut self, mut running: Vec<usize>, limit_s: f64) -> Vec<usize> {
        let t = self.now();
        for _ in 0..STEP_LIMIT {
            running.retain(|&r| !self.done(r));
            if running.is_empty() || self.now() - t > limit_s {
                break;
            }
            self.step(Vec::new());
        }
        running
    }
}

/// Builds the engine and scheduler, generates the run's inputs from
/// `seed`, and warms up: one short request per tenant served to
/// completion (which also makes every system prompt resident).
pub fn setup(w: Workload, seed: u64, trace: bool) -> Session {
    let spec = w.spec();
    let mut s = Session {
        spec,
        sched: Scheduler::new(engine(), serve_config(&spec)),
        origin: Instant::now(),
        steps: Vec::new(),
        requests: Vec::new(),
        due: Vec::new(),
        entered: Vec::new(),
        trace,
        stream: RequestStream::new(spec.traffic, seed),
    };
    let now = s.now();
    let warm: Vec<(Request, f64)> = workload::warmup_requests(spec.traffic, seed)
        .into_iter()
        .map(|r| (r, now))
        .collect();
    let n = warm.len();
    s.step(warm);
    let left = s.drain((0..n).collect(), f64::INFINITY);
    assert!(left.is_empty(), "warmup requests did not finish");
    s
}

/// The measured phase: which steps and requests belong to it.
#[derive(Clone, Debug)]
pub struct Window {
    /// First step of the window.
    pub first_step: usize,
    /// One past the last step that started inside the window.
    pub last_step: usize,
    /// Window length in seconds (at least the requested length).
    pub seconds: f64,
    /// Record indices of the requests sent inside the window.
    pub sent: Vec<usize>,
}

/// Sends the workload's traffic for `seconds`, then stops sending and
/// drains what was sent.
pub fn measure(s: &mut Session, seconds: f64) -> Window {
    let t0 = s.now();
    let first_step = s.steps.len();
    let first_rec = s.requests.len();
    let mut running: Vec<usize> = Vec::new();
    // Clients waiting to send, with the time each became ready.
    let mut ready: Vec<f64> = vec![t0; s.spec.clients];
    while s.now() - t0 < seconds {
        let arrivals = ready
            .drain(..)
            .map(|due| (s.stream.next_request(), due))
            .collect();
        let before = s.requests.len();
        s.step(arrivals);
        running.extend(before..s.requests.len());
        let end = s.steps.last().expect("a step ran").end;
        let mut still = Vec::with_capacity(running.len());
        for &rec in &running {
            if s.done(rec) {
                ready.push(end);
            } else {
                still.push(rec);
            }
        }
        running = still;
    }
    let window_s = s.now() - t0;
    let last_step = s.steps.len();
    // Whatever the drain limit leaves running counts as failed.
    s.drain(running, DRAIN_LIMIT_S);
    Window {
        first_step,
        last_step,
        seconds: window_s,
        sent: (first_rec..s.requests.len()).collect(),
    }
}

/// Wall-clock delivery events of one request: `(delivery time, tokens)`
/// per step that delivered any of its tokens.
fn deliveries(s: &Session, rec: usize) -> Vec<(f64, usize)> {
    let mut events: Vec<(f64, usize)> = Vec::new();
    let mut last_step = None;
    for &step in &s.sched.records()[rec].token_steps {
        if last_step == Some(step) {
            events.last_mut().expect("an event is open").1 += 1;
        } else {
            events.push((s.steps[step as usize].end, 1));
            last_step = Some(step);
        }
    }
    events
}

/// Inter-token latency samples of one request: a delivery of `n` tokens
/// `g` seconds after the previous delivery contributes `n` samples of
/// `g / n` (plain decode delivers one token per step, so each sample is
/// the gap itself). Tokens delivered together with the first token are
/// part of time to first token and contribute none.
fn itl_samples_ms(events: &[(f64, usize)]) -> Vec<f64> {
    let mut out = Vec::new();
    for w in events.windows(2) {
        let (prev, (t, n)) = (w[0].0, w[1]);
        out.extend(std::iter::repeat_n((t - prev) * 1e3 / n as f64, n));
    }
    out
}

/// End-to-end metrics of one measured window.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    pub output_tok_s: f64,
    pub ttft_p50_ms: Reported,
    pub ttft_p90_ms: Reported,
    pub itl_p50_ms: Reported,
    pub itl_p99_ms: Reported,
    pub goodput_under_slo: f64,
    pub sent: usize,
    pub finished: usize,
    pub failed: usize,
    /// Sorted lateness of every sent request's entry, in ms.
    pub late_ms: Vec<f64>,
}

impl EndToEnd {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.sent.max(1) as f64
    }
}

pub fn end_to_end(s: &Session, w: &Window) -> EndToEnd {
    let spec = s.spec;
    let records = s.sched.records();
    let tokens: usize = s.steps[w.first_step..w.last_step]
        .iter()
        .map(|st| st.report.decode_tokens)
        .sum();
    let mut ttft = Vec::new();
    let mut itl = Vec::new();
    let (mut finished, mut failed, mut good) = (0, 0, 0);
    for &rec in &w.sent {
        let r = &records[rec];
        let ok = r.phase == Phase::Finished && r.quarantines == 0 && r.preemptions == 0;
        if !ok {
            failed += 1;
        }
        if r.phase != Phase::Finished {
            continue;
        }
        finished += 1;
        let events = deliveries(s, rec);
        let first_ms = (events[0].0 - s.due[rec]) * 1e3;
        let gaps = itl_samples_ms(&events);
        let worst_gap = gaps.iter().copied().fold(0.0, f64::max);
        if ok && first_ms <= spec.slo_ttft_ms && worst_gap <= spec.slo_itl_ms {
            good += 1;
        }
        ttft.push(first_ms);
        itl.extend(gaps);
    }
    let ttft = stats::sorted(ttft);
    let itl = stats::sorted(itl);
    let late = w
        .sent
        .iter()
        .map(|&rec| (s.entered[rec] - s.due[rec]) * 1e3)
        .collect();
    EndToEnd {
        output_tok_s: tokens as f64 / w.seconds,
        ttft_p50_ms: stats::report(&ttft, 50.0),
        ttft_p90_ms: stats::report(&ttft, 90.0),
        itl_p50_ms: stats::report(&itl, 50.0),
        itl_p99_ms: stats::report(&itl, 99.0),
        goodput_under_slo: good as f64 / w.sent.len().max(1) as f64,
        sent: w.sent.len(),
        finished,
        failed,
        late_ms: stats::sorted(late),
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Re-serves a seeded sample of `samples` finished requests one at a time
/// through a twin scheduler with plain decode (γ = 0) and compares every
/// token hash bitwise. A request's outputs do not depend on its schedule,
/// its peers, prefix sharing or speculation, so any difference is a bug.
/// Returns the number of tokens compared.
pub fn output_check(s: &Session, w: &Window, seed: u64, samples: usize) -> Result<usize, String> {
    let records = s.sched.records();
    let mut pool: Vec<usize> = w
        .sent
        .iter()
        .copied()
        .filter(|&r| records[r].phase == Phase::Finished)
        .collect();
    if pool.is_empty() {
        return Err("no request finished".into());
    }
    let mut rng = StdRng::seed_from_u64(workload::mix(seed, workload::LANE_CHECK));
    let mut picked = Vec::new();
    while picked.len() < samples && !pool.is_empty() {
        picked.push(pool.swap_remove(rng.gen_range(0..pool.len())));
    }
    picked.sort_unstable();
    let twin_spec = Spec {
        gamma: 0,
        alpha: 0.0,
        ..s.spec
    };
    let mut twin = Scheduler::new(engine(), serve_config(&twin_spec));
    let mut compared = 0;
    for rec in picked {
        let want = &records[rec];
        if want.token_hashes.len() != want.output_tokens {
            return Err(format!(
                "request {rec} delivered {} of {} tokens",
                want.token_hashes.len(),
                want.output_tokens
            ));
        }
        let idx = twin.records().len();
        twin.step(std::slice::from_ref(&s.requests[rec]));
        let mut steps = 0;
        while twin.records()[idx].phase != Phase::Finished {
            assert!(steps < STEP_LIMIT, "check request {rec} never finished");
            twin.step(&[]);
            steps += 1;
        }
        let got = &twin.records()[idx].token_hashes;
        if let Some(t) = (0..want.output_tokens).find(|&t| got[t] != want.token_hashes[t]) {
            return Err(format!(
                "request {rec}: token {t} differs from the request served alone"
            ));
        }
        compared += got.len();
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal run of every workload serves its requests to completion
    /// and passes the output check.
    #[test]
    fn minimal_runs_pass_the_output_check() {
        for w in Workload::ALL {
            let mut s = setup(w, 5, false);
            let win = measure(&mut s, 0.05);
            let e = end_to_end(&s, &win);
            assert!(e.sent >= s.spec.clients, "{}: every client sends", w.name());
            assert_eq!(e.failed, 0, "{}: a clean run fails nothing", w.name());
            assert_eq!(
                e.finished,
                e.sent,
                "{}: the drain finishes every request",
                w.name()
            );
            let compared =
                output_check(&s, &win, 5, 2).unwrap_or_else(|m| panic!("{}: {m}", w.name()));
            assert!(compared > 0, "{}: the check compared tokens", w.name());
        }
    }

    #[test]
    fn output_check_catches_a_changed_token() {
        let mut s = setup(Workload::DecodeSteady, 9, false);
        let win = measure(&mut s, 0.05);
        // Re-serving the sample against a different stream seed must
        // disagree on the very first token.
        for &rec in &win.sent {
            s.requests[rec].seed ^= 1;
        }
        assert!(output_check(&s, &win, 9, 1).is_err());
    }

    #[test]
    fn itl_samples_split_multi_token_deliveries() {
        // Plain decode: one token per step, samples are the gaps.
        let plain = [(0.100, 1), (0.110, 1), (0.130, 1)];
        let got = itl_samples_ms(&plain);
        assert_eq!(got.len(), 2);
        assert!((got[0] - 10.0).abs() < 1e-9 && (got[1] - 20.0).abs() < 1e-9);
        // A 3-token window 30 ms after the previous delivery: 3 × 10 ms;
        // the token delivered beside the first adds no sample.
        let spec = [(0.100, 2), (0.130, 3)];
        let got = itl_samples_ms(&spec);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|&g| (g - 10.0).abs() < 1e-9));
    }
}
