//! Fault-**drill** campaigns: live injection against the full SLO-aware
//! serving frontend, not just the bare engine.
//!
//! [`crate::live`] attacks a hand-rolled lockstep decode loop; a drill
//! attacks [`fa_attention::serve::Scheduler`] — queueing, deficit-fair
//! admission, chunked prefill, scrub autotuning, the preemption ladder —
//! while an undisturbed golden scheduler serves the *identical*
//! [`LoadGen`] stream. Because every request's token stream is seeded by
//! `(request seed, token index)`, the two runs stay comparable **per
//! (request, token) bitwise** even after the subject's schedule diverges
//! through a quarantine or preemption: the drill counts delivered-token
//! hash mismatches, detection events, and recovery outcomes.
//!
//! What the counters certify:
//!
//! * a **value-side** flip alarms online; the frontend discards the
//!   token before delivery and evicts-and-requeues — such requests
//!   finish with **zero** divergent tokens
//!   ([`DrillStats::recovered_requests`] tracks them);
//! * a **key-side** flip is residual-coherent: tokens delivered inside
//!   the scrub detection window may diverge silently
//!   ([`DrillStats::tokens_divergent`]), but the autotuned scrubber
//!   bounds the window and repair-in-place re-converges the stream;
//! * everything else — schedule, fairness, shedding — replays exactly:
//!   trials are pure functions of `(seed, trial)`, and stats are integer
//!   counters that merge exactly across shards
//!   ([`run_drill_shard`]), the same contract as [`crate::live`].

use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
use fa_attention::serve::{LoadGen, LoadSpec, Phase, Scheduler, ServeConfig};
use fa_attention::{AttentionConfig, HeadTopology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Specification of a fault-drill series: one serving configuration, one
/// workload shape, many independent trials.
#[derive(Clone, Copy, Debug)]
pub struct DrillSpec {
    /// Query heads of the serving topology.
    pub query_heads: usize,
    /// KV heads (GQA when `< query_heads`).
    pub kv_heads: usize,
    /// Head dimension.
    pub head_dim: usize,
    /// Cache block size in rows.
    pub block_rows: usize,
    /// Storage format policy under test.
    pub format: KvFormat,
    /// Block-retention policy under test.
    pub eviction: EvictionPolicy,
    /// Scheduler configuration (budgets, queue bound, scrub SLO, arena
    /// bound for preemption legs).
    pub serve: ServeConfig,
    /// Prompt chunk for chunked admission.
    pub prefill_chunk: usize,
    /// Workload shape fed to both schedulers.
    pub load: LoadSpec,
    /// Steps during which the load generator produces arrivals.
    pub load_steps: usize,
    /// Extra steps allowed for draining in-flight requests.
    pub drain_steps: usize,
    /// Fault events injected per trial (0 = clean drill).
    pub injections: u32,
    /// Key-side flips (residual-coherent, scrub-detected) when true;
    /// value-side (online-alarmed) when false.
    pub key_side: bool,
    /// Restrict injection victims to sequences reading a *shared*
    /// registered prefix, with flip positions inside the prefix region —
    /// the copy-on-write blocks every reader aliases, so one flip can
    /// poison many token streams at once.
    pub target_shared_prefix: bool,
    /// Independent trials.
    pub trials: u64,
    /// Base RNG seed; trial *i* derives its own stream.
    pub seed: u64,
}

impl DrillSpec {
    /// A small GQA serving drill: 4:2 heads × dim 8, 4-row blocks,
    /// scrub SLO 4 steps, default bursty heavy-tail load.
    pub fn new(trials: u64, seed: u64) -> DrillSpec {
        DrillSpec {
            query_heads: 4,
            kv_heads: 2,
            head_dim: 8,
            block_rows: 4,
            format: KvFormat::F64,
            eviction: EvictionPolicy::RetainAll,
            serve: ServeConfig {
                token_budget: 12,
                prefill_budget: 6,
                queue_bound: 32,
                scrub_slo_steps: Some(4),
                ..ServeConfig::default()
            },
            prefill_chunk: 4,
            load: LoadSpec {
                prompt_max: 24,
                output_max: 16,
                ..LoadSpec::default()
            },
            load_steps: 40,
            drain_steps: 400,
            injections: 1,
            key_side: false,
            target_shared_prefix: false,
            trials,
            seed,
        }
    }

    /// Sets the injection count and side per trial.
    pub fn with_injections(mut self, injections: u32, key_side: bool) -> DrillSpec {
        self.injections = injections;
        self.key_side = key_side;
        self
    }

    /// Sets the arena-pressure bound (enables the preemption ladder).
    pub fn with_kv_bound(mut self, bytes: usize) -> DrillSpec {
        self.serve.max_kv_bytes = Some(bytes);
        self
    }

    /// Sets the storage-format policy.
    pub fn with_format(mut self, format: KvFormat) -> DrillSpec {
        self.format = format;
        self
    }

    /// Sets the workload window length.
    pub fn with_load_steps(mut self, steps: usize) -> DrillSpec {
        self.load_steps = steps;
        self
    }

    /// Drives a prefix-sharing workload (each tenant's requests reuse a
    /// `prefix_tokens`-long system prompt with probability `share_prob`)
    /// and aims every flip at a shared-prefix block of a decoding
    /// reader.
    pub fn with_shared_prefix(mut self, prefix_tokens: usize, share_prob: f64) -> DrillSpec {
        self.load.prefix_tokens = prefix_tokens;
        self.load.prefix_share_prob = share_prob;
        self.target_shared_prefix = true;
        self
    }

    /// Enables speculative decoding on both twins (γ-token windows at
    /// the given draft acceptance).
    pub fn with_speculation(mut self, gamma: usize, acceptance: f64) -> DrillSpec {
        self.serve.speculation_gamma = gamma;
        self.serve.draft_acceptance = acceptance;
        self
    }
}

/// Integer counters from a drill series; merges exactly across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrillStats {
    /// Trials run.
    pub trials: u64,
    /// Trials whose subject *and* golden fully drained (every request
    /// reached `Finished` or `Shed` inside the step budget).
    pub drained_trials: u64,
    /// Fault events the schedule asked for.
    pub injections_attempted: u64,
    /// Fault events that found a decoding victim to corrupt.
    pub injections_landed: u64,
    /// Online residual alarms observed by the subject.
    pub online_alarms: u64,
    /// Corrupt sites surfaced by the subject's scrubber.
    pub scrub_findings: u64,
    /// Blocks repaired in place from their fingerprints.
    pub repaired_blocks: u64,
    /// Blocks repair could not restore.
    pub unrecoverable_blocks: u64,
    /// Corruption quarantines (evict-and-requeue) taken.
    pub quarantines: u64,
    /// Arena-pressure preemptions taken.
    pub preemptions: u64,
    /// Soft-tier demotions applied.
    pub demotions: u64,
    /// Requests finished by the subject.
    pub finished_subject: u64,
    /// Requests finished by the golden twin.
    pub finished_golden: u64,
    /// Requests finished by both (the comparable set).
    pub finished_both: u64,
    /// Requests shed by the subject.
    pub shed_subject: u64,
    /// Delivered tokens compared hash-to-hash across the twins.
    pub tokens_compared: u64,
    /// Compared tokens whose output bits diverged.
    pub tokens_divergent: u64,
    /// Comparable requests with ≥ 1 divergent token.
    pub divergent_requests: u64,
    /// Comparable requests that went through ≥ 1 quarantine.
    pub quarantined_requests: u64,
    /// Quarantined comparable requests that still finished with **zero**
    /// divergent tokens — recovery was bit-exact end to end.
    pub recovered_requests: u64,
}

impl DrillStats {
    /// Accumulates `other` into `self`; counters are pure sums, so any
    /// shard partition merges to the same totals.
    pub fn merge(&mut self, other: &DrillStats) {
        self.trials += other.trials;
        self.drained_trials += other.drained_trials;
        self.injections_attempted += other.injections_attempted;
        self.injections_landed += other.injections_landed;
        self.online_alarms += other.online_alarms;
        self.scrub_findings += other.scrub_findings;
        self.repaired_blocks += other.repaired_blocks;
        self.unrecoverable_blocks += other.unrecoverable_blocks;
        self.quarantines += other.quarantines;
        self.preemptions += other.preemptions;
        self.demotions += other.demotions;
        self.finished_subject += other.finished_subject;
        self.finished_golden += other.finished_golden;
        self.finished_both += other.finished_both;
        self.shed_subject += other.shed_subject;
        self.tokens_compared += other.tokens_compared;
        self.tokens_divergent += other.tokens_divergent;
        self.divergent_requests += other.divergent_requests;
        self.quarantined_requests += other.quarantined_requests;
        self.recovered_requests += other.recovered_requests;
    }

    /// Fraction of landed injections that produced a detection event
    /// (online alarm or scrub finding), in percent.
    pub fn detection_pct(&self) -> f64 {
        if self.injections_landed == 0 {
            return 100.0;
        }
        let detected = (self.online_alarms + self.scrub_findings).min(self.injections_landed);
        100.0 * detected as f64 / self.injections_landed as f64
    }

    /// Fraction of quarantined comparable requests that finished with
    /// zero divergent tokens, in percent.
    pub fn recovery_pct(&self) -> f64 {
        if self.quarantined_requests == 0 {
            return 100.0;
        }
        100.0 * self.recovered_requests as f64 / self.quarantined_requests as f64
    }

    /// Fraction of compared delivered tokens that were bit-exact, in
    /// percent.
    pub fn token_fidelity_pct(&self) -> f64 {
        if self.tokens_compared == 0 {
            return 100.0;
        }
        100.0 * (self.tokens_compared - self.tokens_divergent) as f64 / self.tokens_compared as f64
    }
}

fn trial_stream(seed: u64, trial: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(trial)
}

fn scheduler(spec: &DrillSpec) -> Scheduler {
    let topo = HeadTopology::gqa(
        spec.query_heads,
        spec.kv_heads,
        AttentionConfig::new(spec.head_dim),
    );
    let mut e = DecodeBatch::<f64>::with_policy(
        topo,
        spec.block_rows,
        KvLayout::HeadMajor,
        spec.format,
        spec.eviction,
    );
    e.set_prefill_chunk(spec.prefill_chunk);
    Scheduler::new(e, spec.serve)
}

fn all_settled(s: &Scheduler) -> bool {
    s.records()
        .iter()
        .all(|r| matches!(r.phase, Phase::Finished | Phase::Shed))
}

/// Runs one drill trial: subject and golden schedulers serve the same
/// generated workload; the subject additionally absorbs the injection
/// schedule.
fn drill_trial(spec: &DrillSpec, trial: u64) -> DrillStats {
    let base = trial_stream(spec.seed, trial);
    let mut rng = StdRng::seed_from_u64(base ^ 0x5EED_FAB5);
    let mut subject = scheduler(spec);
    let mut golden = scheduler(spec);
    let mut gen_s = LoadGen::new(spec.load, base);
    let mut gen_g = LoadGen::new(spec.load, base);

    // Injection schedule: steps sampled from the second half of the load
    // window, when the batch is warm.
    let lo = (spec.load_steps as u64 / 2).max(1);
    let hi = spec.load_steps as u64;
    let mut inject_at: Vec<u64> = (0..spec.injections)
        .map(|_| rng.gen_range(lo..hi.max(lo + 1)))
        .collect();
    inject_at.sort_unstable();

    let mut stats = DrillStats {
        trials: 1,
        ..DrillStats::default()
    };
    let total_steps = spec.load_steps + spec.drain_steps;
    for step in 0..total_steps {
        while inject_at.first() == Some(&(step as u64)) {
            inject_at.remove(0);
            stats.injections_attempted += 1;
            let mut targets = subject.active_decoding();
            if spec.target_shared_prefix {
                targets.retain(|&(rec, _)| subject.records()[rec].prefix_seed.is_some());
            }
            if targets.is_empty() {
                continue;
            }
            let (rec, seq) = targets[rng.gen_range(0..targets.len())];
            let len = subject.engine().seq_len(seq);
            if len == 0 {
                continue;
            }
            let first = subject.engine().cache().first_retained(seq);
            // Shared-prefix targeting flips inside the prefix region
            // only — the rows whose blocks other readers alias.
            let hi_pos = if spec.target_shared_prefix {
                subject.records()[rec].prefix_tokens.min(len)
            } else {
                len
            };
            if first >= hi_pos {
                continue;
            }
            let pos = first + rng.gen_range(0..hi_pos - first);
            let kv_head = rng.gen_range(0..spec.kv_heads);
            let lane = rng.gen_range(0..spec.head_dim);
            let bit = if subject.engine().storage_is_bf16(seq, pos) {
                13
            } else {
                61
            };
            subject
                .engine_mut()
                .flip_storage_bit(seq, pos, kv_head, lane, spec.key_side, bit);
            stats.injections_landed += 1;
        }
        let arrivals = if step < spec.load_steps {
            gen_s.step()
        } else {
            Vec::new()
        };
        let arrivals_g = if step < spec.load_steps {
            gen_g.step()
        } else {
            Vec::new()
        };
        let rep = subject.step(&arrivals);
        golden.step(&arrivals_g);
        stats.online_alarms += rep.online_alarms as u64;
        stats.scrub_findings += rep.scrub_findings as u64;
        stats.repaired_blocks += rep.repaired_blocks as u64;
        stats.unrecoverable_blocks += rep.unrecoverable_blocks as u64;
        stats.quarantines += rep.quarantines as u64;
        stats.preemptions += rep.preemptions as u64;
        stats.demotions += rep.demotions as u64;
        if step >= spec.load_steps && all_settled(&subject) && all_settled(&golden) {
            break;
        }
    }
    if all_settled(&subject) && all_settled(&golden) {
        stats.drained_trials = 1;
    }

    // Per-(request, token) bitwise comparison over the comparable set.
    debug_assert_eq!(subject.records().len(), golden.records().len());
    for (s, g) in subject.records().iter().zip(golden.records().iter()) {
        if s.phase == Phase::Finished {
            stats.finished_subject += 1;
        }
        if s.phase == Phase::Shed {
            stats.shed_subject += 1;
        }
        if g.phase == Phase::Finished {
            stats.finished_golden += 1;
        }
        if s.phase != Phase::Finished || g.phase != Phase::Finished {
            continue;
        }
        stats.finished_both += 1;
        let n = s.token_hashes.len().min(g.token_hashes.len());
        let divergent = (0..n)
            .filter(|&j| s.token_hashes[j] != g.token_hashes[j])
            .count() as u64;
        stats.tokens_compared += n as u64;
        stats.tokens_divergent += divergent;
        if divergent > 0 {
            stats.divergent_requests += 1;
        }
        if s.quarantines > 0 {
            stats.quarantined_requests += 1;
            if divergent == 0 {
                stats.recovered_requests += 1;
            }
        }
    }
    stats
}

/// Runs trials `from..to` of the drill, fanned across the rayon pool;
/// totals are independent of sharding and thread count.
pub fn run_drill_shard(spec: &DrillSpec, from: u64, to: u64) -> DrillStats {
    (from..to)
        .into_par_iter()
        .map(|trial| drill_trial(spec, trial))
        .reduce(DrillStats::default, |mut a, b| {
            a.merge(&b);
            a
        })
}

/// Runs the full drill series.
pub fn run_drill(spec: &DrillSpec) -> DrillStats {
    run_drill_shard(spec, 0, spec.trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_drill_is_bit_exact_and_deterministic() {
        let spec = DrillSpec::new(2, 42).with_injections(0, false);
        let a = run_drill(&spec);
        let b = run_drill(&spec);
        assert_eq!(a, b, "drills are pure functions of (spec, seed)");
        assert_eq!(a.trials, 2);
        assert_eq!(a.drained_trials, 2, "clean drills must drain");
        assert!(a.finished_both > 0);
        assert_eq!(a.tokens_divergent, 0, "undisturbed twins never diverge");
        assert_eq!(a.online_alarms, 0);
        assert_eq!(a.quarantines, 0);
    }

    #[test]
    fn shards_merge_to_the_full_run() {
        let spec = DrillSpec::new(4, 7).with_injections(1, false);
        let full = run_drill(&spec);
        let mut merged = run_drill_shard(&spec, 0, 2);
        merged.merge(&run_drill_shard(&spec, 2, 4));
        assert_eq!(full, merged);
    }

    #[test]
    fn value_flips_alarm_and_recover_bit_exact() {
        let spec = DrillSpec::new(6, 11).with_injections(1, false);
        let stats = run_drill(&spec);
        assert!(stats.injections_landed > 0, "some trial must land its flip");
        assert!(
            stats.online_alarms > 0,
            "value-side flips must alarm online"
        );
        assert!(stats.quarantines > 0, "alarms trigger evict-and-requeue");
        assert_eq!(
            stats.tokens_divergent, 0,
            "alarmed tokens are discarded before delivery; recovery is bit-exact"
        );
        assert_eq!(stats.recovered_requests, stats.quarantined_requests);
    }

    #[test]
    fn shared_prefix_flips_alarm_every_reader_and_recover_bit_exact() {
        let spec = DrillSpec::new(6, 17)
            .with_injections(1, false)
            .with_shared_prefix(12, 0.8);
        let stats = run_drill(&spec);
        assert!(stats.drained_trials > 0, "shared-prefix drills must drain");
        assert!(
            stats.injections_landed > 0,
            "some trial must land a shared-prefix flip"
        );
        assert!(
            stats.online_alarms > 0,
            "value flips inside shared blocks must alarm online"
        );
        assert_eq!(
            stats.tokens_divergent, 0,
            "alarmed tokens never deliver; recovery is bit-exact"
        );
        assert_eq!(stats.recovered_requests, stats.quarantined_requests);
    }

    #[test]
    fn speculative_drill_stays_bit_exact_under_value_flips() {
        let spec = DrillSpec::new(4, 19)
            .with_injections(1, false)
            .with_speculation(4, 0.8);
        let stats = run_drill(&spec);
        assert!(stats.drained_trials > 0, "speculative drills must drain");
        assert!(stats.finished_both > 0);
        assert_eq!(
            stats.tokens_divergent, 0,
            "window alarms void delivery before corruption can escape"
        );
    }

    #[test]
    fn key_flips_are_scrub_detected_within_the_window() {
        let spec = DrillSpec::new(6, 13).with_injections(1, true);
        let stats = run_drill(&spec);
        assert!(stats.injections_landed > 0);
        assert!(
            stats.scrub_findings > 0,
            "key-side flips are caught by the autotuned scrubber"
        );
        assert!(
            stats.repaired_blocks > 0 || stats.quarantines > 0,
            "every finding repairs in place or escalates"
        );
        // Divergence is confined to the detection window: fidelity stays
        // high even though key flips are online-invisible.
        assert!(
            stats.token_fidelity_pct() > 90.0,
            "fidelity {:.1}% too low",
            stats.token_fidelity_pct()
        );
    }
}
