//! Serving-scale fault-tolerance benchmarks: live injection campaigns
//! against the continuous-batching engine under load, measuring
//! detection latency (steps to verdict), localization accuracy, and
//! block-granular recovery cost — the numbers behind `BENCH_faults.json`.
//!
//! Two layers:
//!
//! * **per-site campaigns** ([`fa_fault::run_live`]) at the headline
//!   load (batch 32 full / batch 8 quick), one per
//!   [`InjectionSite`] — the detection/localization/recovery matrix;
//! * **a policy sweep** over KvFormat × EvictionPolicy for the
//!   storage-injection site, showing how demotion laundering and
//!   window eviction move the outcome mix;
//! * **a scrub sweep** over background-scrubber bandwidths for the
//!   Key site (invisible to the online check), tracing the detection
//!   latency vs. scrub bandwidth tradeoff against its analytical
//!   worst-case bound;
//! * **a multi-fault sweep** over burst sizes k ∈ {1, 2, 4}
//!   simultaneous flips, checking block-exact localization and
//!   bounding unexplained post-repair divergence;
//! * **micro-timings** of the structural audit and one block recovery
//!   on a loaded engine — the steady-state cost of scrubbing and the
//!   price of a repair.

use fa_attention::batch::guard::InjectionSite;
use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
use fa_attention::{AttentionConfig, HeadTopology};
use fa_fault::{run_drill, run_live, DrillSpec, DrillStats, LiveCampaignSpec, LiveCampaignStats};
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
    /// One block recovery (rewrite + re-checksum + sumrow refresh) on
    /// that sequence, milliseconds.
    pub recover_block_ms: f64,
    /// Rows the timed recovery rewrote.
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

/// Times the audit walk and one block recovery on an engine loaded to
/// the campaign shape.
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
    engine.enable_recovery_log();
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
    for _ in 0..reps {
        let start = Instant::now();
        rows = std::hint::black_box(engine.recover_block(ids[0], 0));
        recover_ms = recover_ms.min(start.elapsed().as_secs_f64() * 1e3);
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
        let detection: Vec<String> = self
            .sites
            .iter()
            .map(|s| {
                let st = &s.stats;
                let (lo, hi) = st.base.wilson95(st.base.detected);
                format!(
                    "    \"{}\": {{ \"trials\": {}, \"detected\": {}, \"false_positive\": {}, \
                     \"silent\": {}, \"masked\": {}, \"online_detected\": {}, \
                     \"scrub_detected\": {}, \"mean_steps_to_verdict\": {:.3}, \
                     \"detected_pct_lo\": {:.2}, \"detected_pct_hi\": {:.2} }}",
                    site_key(s.site),
                    st.total(),
                    st.base.detected,
                    st.base.false_positive,
                    st.base.silent,
                    st.base.masked,
                    st.online_detected,
                    st.scrub_detected,
                    st.mean_steps_to_verdict(),
                    lo,
                    hi,
                )
            })
            .collect();
        let localization: Vec<String> = self
            .sites
            .iter()
            .map(|s| {
                let st = &s.stats;
                format!(
                    "    \"{}\": {{ \"localized\": {}, \"mislocalized\": {}, \
                     \"accuracy_pct\": {:.2}, \"evicted_before_detect\": {} }}",
                    site_key(s.site),
                    st.localized,
                    st.mislocalized,
                    st.localization_accuracy_pct(),
                    st.evicted_before_detect,
                )
            })
            .collect();
        let recovery: Vec<String> = self
            .sites
            .iter()
            .map(|s| {
                let st = &s.stats;
                format!(
                    "    \"{}\": {{ \"recoveries\": {}, \"recovered_rows\": {}, \
                     \"post_recovery_divergent\": {} }}",
                    site_key(s.site),
                    st.recoveries,
                    st.recovered_rows,
                    st.post_recovery_divergent,
                )
            })
            .collect();
        let sweep: Vec<String> = self
            .policy_sweep
            .iter()
            .map(|leg| {
                let st = &leg.stats;
                format!(
                    "    {{ \"format\": \"{}\", \"eviction\": \"{}\", \"trials\": {}, \
                     \"detected\": {}, \"silent\": {}, \"localized\": {}, \
                     \"recoveries\": {}, \"post_recovery_divergent\": {}, \
                     \"evicted_before_detect\": {} }}",
                    format_key(leg.format),
                    eviction_key(leg.eviction),
                    st.total(),
                    st.base.detected,
                    st.base.silent,
                    st.localized,
                    st.recoveries,
                    st.post_recovery_divergent,
                    st.evicted_before_detect,
                )
            })
            .collect();
        let scrub: Vec<String> = self
            .scrub_sweep
            .iter()
            .map(|leg| {
                let st = &leg.stats;
                format!(
                    "    {{ \"blocks_per_step\": {}, \"latency_bound_steps\": {}, \
                     \"trials\": {}, \"detected\": {}, \"silent\": {}, \
                     \"online_detected\": {}, \"scrub_detected\": {}, \
                     \"mean_steps_to_verdict\": {:.3}, \"detection_steps_max\": {}, \
                     \"scrubbed_blocks\": {} }}",
                    leg.blocks_per_step,
                    leg.latency_bound_steps,
                    st.total(),
                    st.base.detected,
                    st.base.silent,
                    st.online_detected,
                    st.scrub_detected,
                    st.mean_steps_to_verdict(),
                    st.detection_steps_max,
                    st.scrubbed_blocks,
                )
            })
            .collect();
        let multi: Vec<String> = self
            .multi_fault
            .iter()
            .map(|leg| {
                let st = &leg.stats;
                format!(
                    "    {{ \"flips_per_trial\": {}, \"injected_flips\": {}, \
                     \"localized\": {}, \"mislocalized\": {}, \"accuracy_pct\": {:.2}, \
                     \"recoveries\": {}, \"recovered_rows\": {}, \
                     \"post_recovery_divergent\": {} }}",
                    leg.flips_per_trial,
                    st.injected_flips,
                    st.localized,
                    st.mislocalized,
                    st.localization_accuracy_pct(),
                    st.recoveries,
                    st.recovered_rows,
                    st.post_recovery_divergent,
                )
            })
            .collect();
        let sp = &self.shared_prefix_drill;
        let shared_prefix = format!(
            "{{\n    \"prefix_tokens\": {}, \"share_prob\": {:.2}, \"gamma\": {},\n    \
             \"trials\": {}, \"drained\": {}, \"injections_landed\": {},\n    \
             \"online_alarms\": {}, \"scrub_findings\": {}, \"repaired_blocks\": {},\n    \
             \"quarantined_requests\": {}, \"recovered_requests\": {},\n    \
             \"tokens_compared\": {}, \"tokens_divergent\": {},\n    \
             \"detection_pct\": {:.2}, \"recovery_pct\": {:.2}, \
             \"token_fidelity_pct\": {:.2}\n  }}",
            self.shared_prefix_tokens,
            self.shared_prefix_share_prob,
            self.shared_prefix_gamma,
            sp.trials,
            sp.drained_trials,
            sp.injections_landed,
            sp.online_alarms,
            sp.scrub_findings,
            sp.repaired_blocks,
            sp.quarantined_requests,
            sp.recovered_requests,
            sp.tokens_compared,
            sp.tokens_divergent,
            sp.detection_pct(),
            sp.recovery_pct(),
            sp.token_fidelity_pct(),
        );
        format!(
            "{{\n  \"batch\": {},\n  \"prefill\": {},\n  \"steps\": {},\n  \
             \"trials\": {},\n  \"tolerance\": {:e},\n  \
             \"detection_latency\": {{\n{}\n  }},\n  \
             \"localization\": {{\n{}\n  }},\n  \
             \"recovery\": {{\n{},\n    \"audit_ms\": {:.4}, \"recover_block_ms\": {:.4}, \
             \"timed_recovery_rows\": {}\n  }},\n  \
             \"policy_sweep\": [\n{}\n  ],\n  \
             \"scrub\": [\n{}\n  ],\n  \
             \"multi_fault\": [\n{}\n  ],\n  \
             \"shared_prefix_drill\": {}\n}}\n",
            self.batch,
            self.prefill,
            self.steps,
            self.trials,
            self.tolerance,
            detection.join(",\n"),
            localization.join(",\n"),
            recovery.join(",\n"),
            self.audit_ms,
            self.recover_block_ms,
            self.recovered_rows,
            sweep.join(",\n"),
            scrub.join(",\n"),
            multi.join(",\n"),
            shared_prefix,
        )
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

        // Multi-fault sweep: every flip gets judged, and unexplained
        // post-repair divergence never happens (divergence is bounded
        // by the mislocalized/absorbed residue quarantine exists for).
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
            assert!(st.localization_accuracy_pct() >= 90.0, "{leg:?}");
            assert!(st.post_recovery_divergent <= st.mislocalized, "{leg:?}");
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
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "detection_latency",
            "localization",
            "recovery",
            "mean_steps_to_verdict",
            "online_detected",
            "scrub_detected",
            "accuracy_pct",
            "evicted_before_detect",
            "recovered_rows",
            "post_recovery_divergent",
            "audit_ms",
            "recover_block_ms",
            "policy_sweep",
            "\"scrub\"",
            "multi_fault",
            "blocks_per_step",
            "latency_bound_steps",
            "detection_steps_max",
            "scrubbed_blocks",
            "flips_per_trial",
            "injected_flips",
            "shared_prefix_drill",
            "token_fidelity_pct",
            "\"key\"",
            "\"value\"",
            "\"sumrow\"",
            "\"accumulator\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
