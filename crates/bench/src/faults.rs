//! Serving-scale fault-tolerance benchmarks: live injection campaigns
//! against the continuous-batching engine under load, measuring
//! detection latency (steps to verdict), localization accuracy, and
//! in-place fingerprint repair cost — the numbers behind
//! `BENCH_faults.json`.
//!
//! Two layers:
//!
//! * **per-site campaigns** ([`fa_fault::run_live`]) at the headline
//!   load (batch 32 full / batch 8 quick), one per
//!   [`InjectionSite`] — the detection/localization/recovery matrix;
//! * **a policy sweep** over KvFormat × EvictionPolicy for the
//!   storage-injection site, showing how demotion and window eviction
//!   move the outcome mix;
//! * **a scrub sweep** over background-scrubber bandwidths for the
//!   Key site (invisible to the online check), tracing the detection
//!   latency vs. scrub bandwidth tradeoff against its analytical
//!   worst-case bound;
//! * **a multi-fault sweep** over burst sizes k ∈ {1, 2, 4}
//!   simultaneous flips, checking exact localization and counting the
//!   trials whose damage exceeds one word per panel (quarantined and
//!   regenerated);
//! * **micro-timings** of the structural audit and one fingerprint
//!   repair on a loaded engine — the steady-state cost of scrubbing and
//!   the price of a repair.

use crate::serving::drill_json;
use fa_attention::batch::guard::InjectionSite;
use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
use fa_attention::{AttentionConfig, HeadTopology};
use fa_fault::{run_drill, run_live, DrillSpec, DrillStats, LiveCampaignSpec, LiveCampaignStats};
use fa_json::{obj, Json};
use fa_tensor::{random::ElementDist, Matrix};
use std::time::Instant;

/// One site's campaign under the headline configuration.
#[derive(Clone, Copy, Debug)]
pub struct SiteCampaign {
    /// The injection site.
    pub site: InjectionSite,
    /// Aggregated campaign outcomes.
    pub stats: LiveCampaignStats,
}

/// One leg of the policy sweep (storage-value injection under a
/// format × eviction combination).
#[derive(Clone, Copy, Debug)]
pub struct PolicyLeg {
    /// Storage format under test.
    pub format: KvFormat,
    /// Eviction policy under test.
    pub eviction: EvictionPolicy,
    /// Aggregated campaign outcomes.
    pub stats: LiveCampaignStats,
}

/// One bandwidth point of the scrub sweep: a Key-site campaign (the
/// residual-coherent class only a structural walk can see) with the
/// background scrubber budgeted at `blocks_per_step`. The 0 point is
/// the scrub-off baseline where detection waits for the end-of-run
/// audit.
#[derive(Clone, Copy, Debug)]
pub struct ScrubLeg {
    /// Scrub bandwidth: live blocks audited per decode step (0 = off).
    pub blocks_per_step: usize,
    /// The analytical worst-case detection latency at this bandwidth:
    /// ceil(peak live blocks / blocks_per_step) decode steps (0 when
    /// the scrubber is off).
    pub latency_bound_steps: u64,
    /// Aggregated campaign outcomes.
    pub stats: LiveCampaignStats,
}

/// One burst size of the multi-fault sweep: a Value-site campaign
/// injecting `flips_per_trial` simultaneous flips, measuring whether
/// localization stays block-exact as damage compounds.
#[derive(Clone, Copy, Debug)]
pub struct MultiFaultLeg {
    /// Simultaneous bit flips injected at the fault step.
    pub flips_per_trial: u32,
    /// Aggregated campaign outcomes.
    pub stats: LiveCampaignStats,
}

/// The full fault-tolerance benchmark report.
#[derive(Clone, Debug)]
pub struct FaultBenchReport {
    /// Concurrent sequences per trial.
    pub batch: usize,
    /// Prompt tokens per sequence.
    pub prefill: usize,
    /// Decode steps per trial.
    pub steps: usize,
    /// Trials per campaign.
    pub trials: u64,
    /// Verdict tolerance τ.
    pub tolerance: f64,
    /// One campaign per injection site (f64 + retain-all: the canonical
    /// detection/localization/recovery matrix).
    pub sites: Vec<SiteCampaign>,
    /// Value-site campaigns across the policy matrix.
    pub policy_sweep: Vec<PolicyLeg>,
    /// Key-site campaigns across scrub bandwidths (the
    /// detection-latency / scrub-bandwidth tradeoff curve).
    pub scrub_sweep: Vec<ScrubLeg>,
    /// Value-site campaigns across burst sizes k (simultaneous flips).
    pub multi_fault: Vec<MultiFaultLeg>,
    /// Golden-twin drill campaign whose flips land inside *registered
    /// shared-prefix* blocks while a speculating scheduler serves load:
    /// the blast-radius-maximizing placement (every reader scores
    /// through the corrupt panel), certified bit-exact against the
    /// undisturbed twin.
    pub shared_prefix_drill: DrillStats,
    /// Shared-prefix length the drill registers, tokens.
    pub shared_prefix_tokens: usize,
    /// Probability an arriving request adopts the shared prefix.
    pub shared_prefix_share_prob: f64,
    /// Speculative window width the drill's scheduler runs at.
    pub shared_prefix_gamma: usize,
    /// One structural audit of a loaded sequence, milliseconds.
    pub audit_ms: f64,
    /// One fingerprint repair of a one-word corruption on that sequence
    /// (diagnose the block, mend the word, recompute its panel's `sumrow`
    /// lanes), milliseconds.
    pub recover_block_ms: f64,
    /// Rows the timed repair rewrote (one per mended word).
    pub recovered_rows: usize,
}

fn site_key(site: InjectionSite) -> &'static str {
    match site {
        InjectionSite::Key => "key",
        InjectionSite::Value => "value",
        InjectionSite::Sumrow => "sumrow",
        InjectionSite::Accumulator => "accumulator",
    }
}

fn format_key(format: KvFormat) -> &'static str {
    match format {
        KvFormat::F64 => "f64",
        KvFormat::Bf16 => "bf16",
        KvFormat::Mixed { .. } => "mixed",
    }
}

fn eviction_key(eviction: EvictionPolicy) -> &'static str {
    match eviction {
        EvictionPolicy::RetainAll => "retain_all",
        EvictionPolicy::SlidingWindow { .. } => "sliding_window",
    }
}

/// Times the audit walk and one fingerprint repair on an engine loaded
/// to the campaign shape.
fn micro_timings(spec: &LiveCampaignSpec) -> (f64, f64, usize) {
    let topo = HeadTopology::gqa(
        spec.query_heads,
        spec.kv_heads,
        AttentionConfig::new(spec.head_dim),
    );
    let mut engine = DecodeBatch::<f64>::with_policy(
        topo,
        spec.block_rows,
        KvLayout::HeadMajor,
        KvFormat::F64,
        EvictionPolicy::RetainAll,
    );
    let ids: Vec<usize> = (0..spec.batch).map(|_| engine.add_sequence()).collect();
    let mk = |rows: usize, cols: usize, seed: u64| {
        Matrix::<f64>::random_seeded(rows, cols, ElementDist::default(), seed)
    };
    for (i, &id) in ids.iter().enumerate() {
        let k = mk(spec.prefill, topo.kv_dim(), 90_000 + i as u64);
        let v = mk(spec.prefill, topo.kv_dim(), 91_000 + i as u64);
        engine.prefill(id, &k, &v);
    }
    for t in 0..spec.steps {
        let qs = mk(spec.batch, topo.q_dim(), 92_000 + t as u64);
        let ks = mk(spec.batch, topo.kv_dim(), 93_000 + t as u64);
        let vs = mk(spec.batch, topo.kv_dim(), 94_000 + t as u64);
        let _ = engine.step_decode(&ids, &qs, &ks, &vs);
    }
    let reps = 5;
    let mut audit_ms = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(engine.audit(ids[0], spec.tolerance));
        audit_ms = audit_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let mut recover_ms = f64::INFINITY;
    let mut rows = 0;
    for rep in 0..reps {
        // A fresh value-side word in block 0 per repetition, localized
        // untimed; the clock covers the repair alone.
        engine.flip_storage_bit(ids[0], rep % spec.block_rows, 0, rep, false, 40);
        let faults = engine.audit(ids[0], spec.tolerance);
        let start = Instant::now();
        let report = std::hint::black_box(engine.repair(ids[0], &faults));
        recover_ms = recover_ms.min(start.elapsed().as_secs_f64() * 1e3);
        rows = report.rows_rewritten;
    }
    (audit_ms, recover_ms, rows)
}

/// Runs the fault-tolerance benchmark. `quick` shrinks load and trial
/// counts for CI smoke runs; the full run measures at batch-32 load.
pub fn measure(quick: bool) -> FaultBenchReport {
    let (batch, prefill, steps, trials, sweep_trials) = if quick {
        (8, 16, 8, 16u64, 8u64)
    } else {
        (32, 64, 32, 120u64, 32u64)
    };
    let base = |site: InjectionSite, trials: u64| {
        let mut spec = LiveCampaignSpec::new(site, trials, 99)
            .with_batch(batch)
            .with_shape(prefill, steps)
            .with_format(KvFormat::F64)
            .with_eviction(EvictionPolicy::RetainAll);
        spec.query_heads = 4;
        spec.kv_heads = 2;
        spec.head_dim = 16;
        spec.block_rows = 8;
        spec
    };
    let sites: Vec<SiteCampaign> = InjectionSite::ALL
        .iter()
        .map(|&site| SiteCampaign {
            site,
            stats: run_live(&base(site, trials)),
        })
        .collect();
    let mut policy_sweep = Vec::new();
    for format in [
        KvFormat::F64,
        KvFormat::Bf16,
        KvFormat::Mixed { burst_blocks: 1 },
    ] {
        for eviction in [
            EvictionPolicy::RetainAll,
            EvictionPolicy::SlidingWindow { window_blocks: 2 },
        ] {
            let spec = base(InjectionSite::Value, sweep_trials)
                .with_format(format)
                .with_eviction(eviction);
            policy_sweep.push(PolicyLeg {
                format,
                eviction,
                stats: run_live(&spec),
            });
        }
    }
    // Scrub tradeoff curve: Key flips are invisible to the online
    // check, so steps-to-verdict here is purely a function of how much
    // audit bandwidth the scrubber spends per decode step.
    let probe = base(InjectionSite::Value, 1);
    let peak_live_blocks = (batch * (prefill + steps).div_ceil(probe.block_rows)) as u64;
    let scrub_sweep: Vec<ScrubLeg> = [0usize, 1, 4, 16]
        .iter()
        .map(|&bps| {
            let spec = base(InjectionSite::Key, sweep_trials).with_scrub(bps);
            ScrubLeg {
                blocks_per_step: bps,
                latency_bound_steps: if bps == 0 {
                    0
                } else {
                    peak_live_blocks.div_ceil(bps as u64)
                },
                stats: run_live(&spec),
            }
        })
        .collect();
    // Multi-fault sweep: does block-exact localization survive bursts
    // of simultaneous flips, and how much damage escapes repair?
    let multi_fault: Vec<MultiFaultLeg> = [1u32, 2, 4]
        .iter()
        .map(|&k| MultiFaultLeg {
            flips_per_trial: k,
            stats: run_live(&base(InjectionSite::Value, sweep_trials).with_flips(k)),
        })
        .collect();
    // Shared-prefix campaign: flips constrained to registered prefix
    // blocks (the rows every adopting reader scores through) while the
    // scheduler speculates γ=4 windows over the shared cache.
    let (shared_prefix_tokens, shared_prefix_share_prob, shared_prefix_gamma) = (12usize, 0.8, 4);
    let shared_prefix_drill = run_drill(
        &DrillSpec::new(sweep_trials, 0xD217)
            .with_injections(1, false)
            .with_shared_prefix(shared_prefix_tokens, shared_prefix_share_prob)
            .with_speculation(shared_prefix_gamma, 0.8),
    );
    let (audit_ms, recover_block_ms, recovered_rows) = micro_timings(&probe);
    FaultBenchReport {
        batch,
        prefill,
        steps,
        trials,
        tolerance: probe.tolerance,
        sites,
        policy_sweep,
        scrub_sweep,
        multi_fault,
        shared_prefix_drill,
        shared_prefix_tokens,
        shared_prefix_share_prob,
        shared_prefix_gamma,
        audit_ms,
        recover_block_ms,
        recovered_rows,
    }
}

impl FaultBenchReport {
    /// Renders the report as the `BENCH_faults.json` document: a
    /// `detection_latency` section (per-site verdict mix and
    /// steps-to-verdict), a `localization` section (audit accuracy), a
    /// `recovery` section (repair volume, bit-identity certification,
    /// audit/recovery micro-costs), the raw policy sweep, a `scrub`
    /// section (detection latency vs. scrub bandwidth, with the
    /// analytical bound each point must respect), and a `multi_fault`
    /// section (localization accuracy vs. burst size).
    pub fn to_json(&self) -> String {
        let by_site = |row: &dyn Fn(&LiveCampaignStats) -> Json| -> Vec<(String, Json)> {
            self.sites
                .iter()
                .map(|s| (site_key(s.site).into(), row(&s.stats)))
                .collect()
        };
        let detection = by_site(&|st| {
            let (lo, hi) = st.base.wilson95(st.base.detected);
            obj! {
                "trials" => st.total(), "detected" => st.base.detected,
                "false_positive" => st.base.false_positive,
                "silent" => st.base.silent, "masked" => st.base.masked,
                "online_detected" => st.online_detected, "scrub_detected" => st.scrub_detected,
                "mean_steps_to_verdict" => Json::fixed(st.mean_steps_to_verdict(), 3),
                "detected_pct_lo" => Json::fixed(lo, 2),
                "detected_pct_hi" => Json::fixed(hi, 2),
            }
        });
        let localization = by_site(&|st| {
            obj! {
                "localized" => st.localized, "mislocalized" => st.mislocalized,
                "accuracy_pct" => Json::fixed(st.localization_accuracy_pct(), 2),
                "evicted_before_detect" => st.evicted_before_detect,
            }
        });
        let mut recovery = by_site(&|st| {
            obj! {
                "recoveries" => st.recoveries, "recovered_rows" => st.recovered_rows,
                "quarantines" => st.quarantines,
                "post_recovery_divergent" => st.post_recovery_divergent,
            }
        });
        recovery.extend([
            ("audit_ms".into(), Json::fixed(self.audit_ms, 4)),
            (
                "recover_block_ms".into(),
                Json::fixed(self.recover_block_ms, 4),
            ),
            ("timed_recovery_rows".into(), self.recovered_rows.into()),
        ]);
        let sweep = self.policy_sweep.iter().map(|leg| {
            let st = &leg.stats;
            obj! {
                "format" => format_key(leg.format), "eviction" => eviction_key(leg.eviction),
                "trials" => st.total(), "detected" => st.base.detected, "silent" => st.base.silent,
                "localized" => st.localized, "recoveries" => st.recoveries,
                "quarantines" => st.quarantines,
                "post_recovery_divergent" => st.post_recovery_divergent,
                "evicted_before_detect" => st.evicted_before_detect,
            }
        });
        let scrub = self.scrub_sweep.iter().map(|leg| {
            let st = &leg.stats;
            obj! {
                "blocks_per_step" => leg.blocks_per_step,
                "latency_bound_steps" => leg.latency_bound_steps,
                "trials" => st.total(), "detected" => st.base.detected, "silent" => st.base.silent,
                "online_detected" => st.online_detected, "scrub_detected" => st.scrub_detected,
                "mean_steps_to_verdict" => Json::fixed(st.mean_steps_to_verdict(), 3),
                "detection_steps_max" => st.detection_steps_max,
                "scrubbed_blocks" => st.scrubbed_blocks,
            }
        });
        let multi = self.multi_fault.iter().map(|leg| {
            let st = &leg.stats;
            obj! {
                "flips_per_trial" => leg.flips_per_trial, "injected_flips" => st.injected_flips,
                "localized" => st.localized, "mislocalized" => st.mislocalized,
                "accuracy_pct" => Json::fixed(st.localization_accuracy_pct(), 2),
                "recoveries" => st.recoveries, "recovered_rows" => st.recovered_rows,
                "quarantines" => st.quarantines,
                "post_recovery_divergent" => st.post_recovery_divergent,
            }
        });
        let setup = obj! {
            "prefix_tokens" => self.shared_prefix_tokens,
            "share_prob" => Json::fixed(self.shared_prefix_share_prob, 2),
            "gamma" => self.shared_prefix_gamma,
        };
        obj! {
            "batch" => self.batch,
            "prefill" => self.prefill,
            "steps" => self.steps,
            "trials" => self.trials,
            "tolerance" => Json::exp(self.tolerance),
            "detection_latency" => Json::Obj(detection),
            "localization" => Json::Obj(localization),
            "recovery" => Json::Obj(recovery),
            "policy_sweep" => Json::Arr(sweep.collect()),
            "scrub" => Json::Arr(scrub.collect()),
            "multi_fault" => Json::Arr(multi.collect()),
            "shared_prefix_drill" => drill_json(setup, &self.shared_prefix_drill),
        }
        .write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fault_measurement_is_sane() {
        let report = measure(true);
        assert_eq!(report.sites.len(), 4);
        assert_eq!(report.policy_sweep.len(), 6);
        for s in &report.sites {
            assert_eq!(s.stats.total(), report.trials, "{:?}", s.site);
        }
        let value = &report.sites[1];
        assert_eq!(value.site, InjectionSite::Value);
        assert!(value.stats.alarmed() > 0, "value flips alarm: {value:?}");
        assert!(value.stats.recoveries > 0, "alarms recover: {value:?}");
        assert_eq!(
            value.stats.post_recovery_divergent, 0,
            "f64 retain-all recovery resumes bit-identical"
        );
        assert_eq!(value.stats.mislocalized, 0, "audits pin the block");
        let key = &report.sites[0];
        assert_eq!(key.site, InjectionSite::Key);
        assert!(
            key.stats.scrub_detected > 0,
            "key flips are the scrub's story: {key:?}"
        );
        assert!(report.audit_ms >= 0.0 && report.audit_ms.is_finite());
        assert!(report.recover_block_ms >= 0.0 && report.recover_block_ms.is_finite());
        assert!(report.recovered_rows > 0);

        // Scrub sweep: a baseline plus >= 3 nonzero bandwidth points,
        // each honoring its analytical latency bound, with latency
        // monotonically improving (weakly) as bandwidth grows.
        assert_eq!(report.scrub_sweep[0].blocks_per_step, 0);
        assert!(report.scrub_sweep.len() >= 4);
        assert_eq!(report.scrub_sweep[0].stats.scrubbed_blocks, 0);
        let baseline_mean = report.scrub_sweep[0].stats.mean_steps_to_verdict();
        for leg in &report.scrub_sweep[1..] {
            assert!(leg.blocks_per_step > 0);
            assert!(leg.stats.scrubbed_blocks > 0, "{leg:?}");
            assert!(
                leg.stats.detection_steps_max <= leg.latency_bound_steps.max(report.steps as u64),
                "latency bound violated: {leg:?}"
            );
            // Per-trial, a mid-run scrub verdict always lands no later
            // than the end-of-run audit the baseline waits for.
            assert!(
                leg.stats.mean_steps_to_verdict() <= baseline_mean + 1e-9,
                "scrubbing slower than the audit backstop: {leg:?}"
            );
        }

        // Multi-fault sweep: every flip gets judged and localized (the
        // fingerprints are exact), and damage beyond one word per panel
        // quarantines and regenerates: no post-repair divergence.
        assert_eq!(report.multi_fault.len(), 3);
        for leg in &report.multi_fault {
            let st = &leg.stats;
            assert_eq!(
                st.injected_flips,
                st.total() * leg.flips_per_trial as u64,
                "{leg:?}"
            );
            assert_eq!(
                st.localized + st.mislocalized + st.evicted_before_detect,
                st.injected_flips,
                "every flip judged: {leg:?}"
            );
            assert_eq!(st.mislocalized, 0, "{leg:?}");
            assert_eq!(st.post_recovery_divergent, 0, "{leg:?}");
        }

        // Shared-prefix drill: flips inside registered prefix blocks
        // under a speculating scheduler still alarm, repair, and stay
        // bit-exact against the golden twin.
        let sp = &report.shared_prefix_drill;
        assert!(sp.drained_trials > 0, "{sp:?}");
        assert!(sp.injections_landed > 0, "{sp:?}");
        assert_eq!(sp.tokens_divergent, 0, "shared-prefix fidelity: {sp:?}");
        assert_eq!(
            sp.recovered_requests, sp.quarantined_requests,
            "every quarantined reader recovers: {sp:?}"
        );
    }

    #[test]
    fn fault_json_has_required_sections() {
        let report = measure(true);
        crate::assert_paths(
            &report.to_json(),
            &[
                "detection_latency.key.mean_steps_to_verdict",
                "detection_latency.value.online_detected",
                "detection_latency.sumrow.scrub_detected",
                "detection_latency.accumulator",
                "localization.key.accuracy_pct",
                "localization.value.evicted_before_detect",
                "recovery.key.recovered_rows",
                "recovery.value.post_recovery_divergent",
                "recovery.audit_ms",
                "recovery.recover_block_ms",
                "policy_sweep.0.evicted_before_detect",
                "scrub.0.blocks_per_step",
                "scrub.0.latency_bound_steps",
                "scrub.0.detection_steps_max",
                "scrub.0.scrubbed_blocks",
                "multi_fault.0.flips_per_trial",
                "multi_fault.0.injected_flips",
                "multi_fault.0.quarantines",
                "shared_prefix_drill.prefix_tokens",
                "shared_prefix_drill.token_fidelity_pct",
                "shared_prefix_drill.divergent_requests",
            ],
        );
    }
}
