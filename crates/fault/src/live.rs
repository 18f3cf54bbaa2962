//! Live fault-injection campaigns against the serving engine.
//!
//! Where [`crate::campaign`] injects into one-shot accelerator kernels,
//! this module attacks an **active** `fa_attention::batch::DecodeBatch`
//! mid-decode: a golden twin and a subject engine run identical
//! continuous-batching traffic, a burst of `flips` bits (1 by default,
//! k ≤ 4 in the multi-fault sweeps) is flipped in the subject's live
//! state (K/V block storage, a `sumrow` checksum input, or the verdict
//! accumulator), and the serving loop's defenses take over —
//!
//! * **online detection**: the per-step residual and running
//!   [`global_residual`](fa_attention::batch::DecodeBatch::global_residual)
//!   verdict, checked NaN-safe after every step;
//! * **scrub detection**: the mid-run background scrubber
//!   ([`scrub_step`](fa_attention::batch::DecodeBatch::scrub_step) at
//!   the spec's `scrub_blocks_per_step` bandwidth, when enabled) and the
//!   end-of-run [`audit`](fa_attention::batch::DecodeBatch::audit)
//!   backstop — the structural walks that catch residual-coherent
//!   corruption (key-side flips) the online verdict is blind to by
//!   construction, the former within a bounded number of steps;
//! * **localization**: the audit's verdicts pinned per injected flip
//!   against the actually injected (position, kv head, side) — and
//!   word, when the verdict names one;
//! * **recovery**: in-place
//!   [`repair`](fa_attention::batch::DecodeBatch::repair) from the cache
//!   blocks' integer fingerprints; a block damaged beyond one word per
//!   panel is quarantined and its history regenerated from the trial's
//!   seeds and resubmitted. Lockstep decode against the golden twin then
//!   certifies bit-identical resumption.
//!
//! Each trial derives its RNG stream from `(seed, trial index)` and its
//! stats delta is pure integer counters, so sharded runs merge exactly
//! ([`run_live_shard`]) regardless of partition or thread count — the
//! same determinism contract as [`crate::campaign::run_campaigns`].

use crate::classify::{Classified, FaultCategory};
use crate::stats::CampaignStats;
use fa_attention::batch::guard::{InjectionSite, LocalizedFault};
use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout, ScrubPolicy};
use fa_attention::{AttentionConfig, HeadTopology};
use fa_tensor::{random::ElementDist, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Specification of a live-injection campaign series: one serving
/// configuration under load, one injection site, many trials.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LiveCampaignSpec {
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
    /// Concurrently decoding sequences (the serving load).
    pub batch: usize,
    /// Prompt length per sequence.
    pub prefill: usize,
    /// Decode steps per trial; the injection step is sampled from this
    /// range.
    pub steps: usize,
    /// Post-repair lockstep steps certifying bit-identical resumption.
    pub verify_steps: usize,
    /// Independent trials.
    pub trials: u64,
    /// Base RNG seed; trial *i* derives its own stream.
    pub seed: u64,
    /// Verdict tolerance τ for the online alarm and the audit.
    pub tolerance: f64,
    /// Which live state the flip targets.
    pub site: InjectionSite,
    /// Simultaneous bit flips injected per trial (all at the injection
    /// step, independently sampled) — the multi-fault burst dial. 1 is
    /// the classic single-event-upset campaign.
    pub flips: u32,
    /// Background-scrub bandwidth of the subject's serving loop: blocks
    /// audited per decode step via
    /// [`scrub_step`](fa_attention::batch::DecodeBatch::scrub_step).
    /// 0 disables mid-run scrubbing (the PR-6 behaviour: coherent
    /// corruption waits for the end-of-run audit).
    pub scrub_blocks_per_step: usize,
}

impl LiveCampaignSpec {
    /// A small GQA serving configuration at the paper's tolerance —
    /// batch 8, 2:1 grouping, mixed format, sliding-window eviction —
    /// exercising every policy path at once.
    pub fn new(site: InjectionSite, trials: u64, seed: u64) -> Self {
        LiveCampaignSpec {
            query_heads: 4,
            kv_heads: 2,
            head_dim: 8,
            block_rows: 4,
            format: KvFormat::Mixed { burst_blocks: 1 },
            eviction: EvictionPolicy::RetainAll,
            batch: 8,
            prefill: 12,
            steps: 8,
            verify_steps: 4,
            trials,
            seed,
            tolerance: 1e-6,
            site,
            flips: 1,
            scrub_blocks_per_step: 0,
        }
    }

    /// Overrides the storage format policy.
    pub fn with_format(mut self, format: KvFormat) -> Self {
        self.format = format;
        self
    }

    /// Overrides the eviction policy.
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }

    /// Overrides the serving load (concurrent sequences).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Overrides prompt length and decode steps.
    pub fn with_shape(mut self, prefill: usize, steps: usize) -> Self {
        self.prefill = prefill;
        self.steps = steps;
        self
    }

    /// Overrides the simultaneous flips per trial (the multi-fault
    /// burst size k).
    ///
    /// # Panics
    ///
    /// Panics if `flips == 0`.
    pub fn with_flips(mut self, flips: u32) -> Self {
        assert!(flips > 0, "a trial injects at least one flip");
        self.flips = flips;
        self
    }

    /// Overrides the subject's background-scrub bandwidth (blocks per
    /// decode step; 0 disables the mid-run scrub channel).
    pub fn with_scrub(mut self, blocks_per_step: usize) -> Self {
        self.scrub_blocks_per_step = blocks_per_step;
        self
    }
}

/// Aggregated results of a live campaign: the base
/// detected/silent/masked matrix plus the serving-specific outcomes
/// (detection channel, localization accuracy, recovery cost,
/// post-recovery bit-identity). All counters are integers, so
/// [`merge`](Self::merge) is exact under any shard partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LiveCampaignStats {
    /// The classification matrix (detected / false-positive / silent /
    /// masked) over all trials.
    pub base: CampaignStats,
    /// Trials where the per-step or global residual alarmed mid-run.
    pub online_detected: u64,
    /// Trials caught by a structural walk instead: the mid-run
    /// background scrubber ([`LiveCampaignSpec::scrub_blocks_per_step`])
    /// or the end-of-run audit (the residual-coherent key-flip story).
    pub scrub_detected: u64,
    /// Bit flips injected across all trials (`flips × trials` — the
    /// denominator for per-flip localization accounting).
    pub injected_flips: u64,
    /// Injected flips the judging audit pinned to their actual
    /// (position, kv head, side).
    pub localized: u64,
    /// Injected flips the judging audit reported findings for, none
    /// matching that flip's site.
    pub mislocalized: u64,
    /// Blocks mended in place from their fingerprints.
    pub recoveries: u64,
    /// Rows rewritten across all mended blocks, one per mended word
    /// (the repair cost).
    pub recovered_rows: u64,
    /// Trials whose damage the fingerprints could not mend (more than
    /// one word in a panel): the victim was quarantined and its history
    /// regenerated from the trial's seeds.
    pub quarantines: u64,
    /// Repaired trials whose post-repair lockstep decode diverged from
    /// the golden twin.
    pub post_recovery_divergent: u64,
    /// Injected flips whose position left the retained window before
    /// the judging audit — or the scrub cursor — reached it
    /// (sliding-window eviction destroyed the evidence first). A flip
    /// the scrubber catches while still retained counts as `localized`,
    /// never here, even if its block is evicted later.
    pub evicted_before_detect: u64,
    /// Sum over alarmed trials of steps from injection to verdict.
    pub detection_steps_sum: u64,
    /// Worst case over alarmed trials of steps from injection to
    /// verdict — the observable the scrub latency *bound*
    /// (`ceil(live_blocks / blocks_per_step)`) caps.
    pub detection_steps_max: u64,
    /// Blocks the subjects' background scrubbers audited across all
    /// trials — the bandwidth cost axis of the scrub tradeoff curve.
    pub scrubbed_blocks: u64,
}

impl LiveCampaignStats {
    /// Trials recorded.
    pub fn total(&self) -> u64 {
        self.base.total()
    }

    /// Trials where any alarm (online or scrub) fired.
    pub fn alarmed(&self) -> u64 {
        self.online_detected + self.scrub_detected
    }

    /// Mean steps from injection to verdict over alarmed trials (0 when
    /// nothing alarmed).
    pub fn mean_steps_to_verdict(&self) -> f64 {
        if self.alarmed() == 0 {
            0.0
        } else {
            self.detection_steps_sum as f64 / self.alarmed() as f64
        }
    }

    /// Localization accuracy in percent over flips the audit judged
    /// (0 when none were).
    pub fn localization_accuracy_pct(&self) -> f64 {
        let judged = self.localized + self.mislocalized;
        if judged == 0 {
            0.0
        } else {
            100.0 * self.localized as f64 / judged as f64
        }
    }

    /// Merges another stats block into this one (exact integer sums).
    pub fn merge(&mut self, other: &LiveCampaignStats) {
        self.base.merge(&other.base);
        self.online_detected += other.online_detected;
        self.scrub_detected += other.scrub_detected;
        self.injected_flips += other.injected_flips;
        self.localized += other.localized;
        self.mislocalized += other.mislocalized;
        self.recoveries += other.recoveries;
        self.recovered_rows += other.recovered_rows;
        self.quarantines += other.quarantines;
        self.post_recovery_divergent += other.post_recovery_divergent;
        self.evicted_before_detect += other.evicted_before_detect;
        self.detection_steps_sum += other.detection_steps_sum;
        // Max is associative and commutative, so sharded merges stay
        // exactly the full run's worst case.
        self.detection_steps_max = self.detection_steps_max.max(other.detection_steps_max);
        self.scrubbed_blocks += other.scrubbed_blocks;
    }
}

/// What one trial actually injected — the ground truth the audit's
/// verdicts are judged against.
#[derive(Clone, Copy, Debug)]
struct Injected {
    pos: usize,
    kv_head: usize,
    lane: usize,
}

fn trial_stream(seed: u64, trial: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(trial)
}

/// Whether any audited verdict pins the injected site (down to the
/// word when the verdict names one).
fn pins_injection(site: InjectionSite, inj: Injected, faults: &[LocalizedFault]) -> bool {
    faults.iter().any(|f| match (site, f) {
        (
            InjectionSite::Key,
            LocalizedFault::CorruptBlock {
                kv_head,
                first,
                rows,
                key_side: true,
                word,
                ..
            },
        )
        | (
            InjectionSite::Value,
            LocalizedFault::CorruptBlock {
                kv_head,
                first,
                rows,
                key_side: false,
                word,
                ..
            },
        ) => {
            *kv_head == inj.kv_head
                && (*first..*first + *rows).contains(&inj.pos)
                && word.is_none_or(|w| w == (inj.pos - first, inj.lane))
        }
        (InjectionSite::Sumrow, LocalizedFault::CorruptSumrow { pos, kv_head }) => {
            *pos == inj.pos && *kv_head == inj.kv_head
        }
        (InjectionSite::Accumulator, LocalizedFault::CorruptTotals { .. }) => true,
        _ => false,
    })
}

/// Flips one sampled bit in the subject engine. The bit index is
/// drawn uniformly over the f64 bit space; BF16-resident storage folds
/// it into its 16-bit space (the storage flipper's contract), keeping
/// the sampling honest for both formats. A multi-fault burst calls this
/// `spec.flips` times back to back — sites are sampled independently,
/// so a burst may (rarely) hit one site twice and cancel; that honesty
/// is kept, not resampled away.
fn inject(
    subject: &mut DecodeBatch<f64>,
    spec: &LiveCampaignSpec,
    victim: usize,
    rng: &mut StdRng,
) -> Injected {
    let first = subject.cache().first_retained(victim);
    let len = subject.seq_len(victim);
    let pos = rng.gen_range(first..len);
    let kv_head = rng.gen_range(0..spec.kv_heads);
    let bit = rng.gen_range(0..64) as u32;
    match spec.site {
        InjectionSite::Key | InjectionSite::Value => {
            let lane = rng.gen_range(0..spec.head_dim);
            let key_side = spec.site == InjectionSite::Key;
            subject.flip_storage_bit(victim, pos, kv_head, lane, key_side, bit);
            Injected { pos, kv_head, lane }
        }
        InjectionSite::Sumrow => {
            subject.flip_sumrow_bit(victim, pos, kv_head, bit);
            Injected {
                pos,
                kv_head,
                lane: 0,
            }
        }
        InjectionSite::Accumulator => {
            let predicted_side = rng.gen_range(0..2) == 0;
            subject.flip_total_bit(victim, predicted_side, bit);
            Injected {
                pos: 0,
                kv_head: 0,
                lane: 0,
            }
        }
    }
}

/// Runs one trial and returns its stats delta.
fn run_trial(spec: &LiveCampaignSpec, trial: u64) -> LiveCampaignStats {
    let base_seed = trial_stream(spec.seed, trial);
    let mut rng = StdRng::seed_from_u64(base_seed);
    let mut out = LiveCampaignStats::default();
    let topo = HeadTopology::gqa(
        spec.query_heads,
        spec.kv_heads,
        AttentionConfig::new(spec.head_dim),
    );
    let mk = || {
        DecodeBatch::<f64>::with_policy(
            topo,
            spec.block_rows,
            KvLayout::HeadMajor,
            spec.format,
            spec.eviction,
        )
    };
    let mut subject = mk();
    if spec.scrub_blocks_per_step > 0 {
        subject.set_scrub_policy(Some(ScrubPolicy {
            blocks_per_step: spec.scrub_blocks_per_step,
        }));
    }
    let mut golden = mk();
    let ids: Vec<usize> = (0..spec.batch).map(|_| subject.add_sequence()).collect();
    for _ in 0..spec.batch {
        golden.add_sequence();
    }
    let rows = |n: usize, cols: usize, lane: u64| {
        Matrix::<f64>::random_seeded(
            n,
            cols,
            ElementDist::default(),
            base_seed.wrapping_add(lane),
        )
    };
    for (i, &id) in ids.iter().enumerate() {
        let k = rows(spec.prefill, topo.kv_dim(), 11_000 + i as u64);
        let v = rows(spec.prefill, topo.kv_dim(), 12_000 + i as u64);
        subject.prefill(id, &k, &v);
        golden.prefill(id, &k, &v);
    }
    let vi = rng.gen_range(0..ids.len());
    let victim = ids[vi];
    let t_inj = rng.gen_range(0..spec.steps);

    let mut injected: Option<Vec<Injected>> = None;
    let mut corrupted = false;
    let mut alarm_step: Option<usize> = None;
    let mut scrub_alarm_step: Option<usize> = None;
    let mut alarm_residual = 0.0f64;
    let mut repaired = false;
    let mut post_repair_divergent = false;
    let mut scrub_found = false;

    // Sequence `i`'s K/V history after `steps` lockstep steps,
    // regenerated from the trial's seeds — what a frontend resubmits
    // after a quarantine.
    let history = |i: usize, steps: usize| {
        let kd = topo.kv_dim();
        let (pk, pv) = (
            rows(spec.prefill, kd, 11_000 + i as u64),
            rows(spec.prefill, kd, 12_000 + i as u64),
        );
        let (mut k, mut v) = (pk.as_slice().to_vec(), pv.as_slice().to_vec());
        for t in 0..steps as u64 {
            k.extend_from_slice(rows(ids.len(), kd, 30_000 + t).row(i));
            v.extend_from_slice(rows(ids.len(), kd, 40_000 + t).row(i));
        }
        let n = spec.prefill + steps;
        (Matrix::from_vec(n, kd, k), Matrix::from_vec(n, kd, v))
    };

    // One closure handles every alarm path: audit, judge localization
    // per injected flip against the ground truth, repair everything the
    // audit pinned in one pass, and quarantine what repair cannot mend.
    // `steps` lockstep steps have run.
    let localize_and_repair = |subject: &mut DecodeBatch<f64>,
                               out: &mut LiveCampaignStats,
                               injs: &[Injected],
                               steps: usize| {
        let faults = subject.audit(victim, spec.tolerance);
        let structural = !matches!(spec.site, InjectionSite::Accumulator);
        for inj in injs {
            if structural && subject.cache().first_retained(victim) > inj.pos {
                out.evicted_before_detect += 1;
            } else if !faults.is_empty() {
                if pins_injection(spec.site, *inj, &faults) {
                    out.localized += 1;
                } else {
                    out.mislocalized += 1;
                }
            }
        }
        let report = subject.repair(victim, &faults);
        out.recoveries += report.blocks_recovered as u64;
        out.recovered_rows += report.rows_rewritten as u64;
        if report.blocks_unrecoverable > 0 {
            out.quarantines += 1;
            subject.quarantine(victim);
            let (k, v) = history(vi, steps);
            subject
                .resubmit(victim, &k, &v)
                .expect("a quarantined slot accepts its history");
            while subject.prefill_step_for(&[victim]) > 0 {}
        }
    };

    let lockstep = |subject: &mut DecodeBatch<f64>, golden: &mut DecodeBatch<f64>, t: usize| {
        let qs = rows(ids.len(), topo.q_dim(), 20_000 + t as u64);
        let ks = rows(ids.len(), topo.kv_dim(), 30_000 + t as u64);
        let vs = rows(ids.len(), topo.kv_dim(), 40_000 + t as u64);
        let a = subject.step_decode(&ids, &qs, &ks, &vs);
        let b = golden.step_decode(&ids, &qs, &ks, &vs);
        let diverged = a[vi]
            .output
            .iter()
            .zip(&b[vi].output)
            .any(|(x, y)| x.to_bits() != y.to_bits());
        (a[vi].residual(), diverged)
    };

    for t in 0..spec.steps {
        if t == t_inj {
            let burst: Vec<Injected> = (0..spec.flips)
                .map(|_| inject(&mut subject, spec, victim, &mut rng))
                .collect();
            out.injected_flips += burst.len() as u64;
            injected = Some(burst);
        }
        let (step_residual, diverged) = lockstep(&mut subject, &mut golden, t);
        if injected.is_some() && !repaired {
            corrupted |= diverged;
        } else if repaired {
            post_repair_divergent |= diverged;
        }
        if injected.is_some() && !repaired {
            // NaN-safe alarm: a poisoned residual must not pass.
            let global = subject.global_residual(victim);
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let step_alarm = !(step_residual.abs() <= spec.tolerance);
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let global_alarm = !(global.abs() <= spec.tolerance);
            if step_alarm || global_alarm {
                alarm_step = Some(t);
                alarm_residual = if step_alarm { step_residual } else { global };
                let injs = injected.clone().unwrap_or_default();
                localize_and_repair(&mut subject, &mut out, &injs, t + 1);
                repaired = true;
            }
        }
        // The background scrubber spends its per-step quantum after the
        // decode pass — every step, like a real serving loop (its
        // bandwidth cost accrues whether or not anything is corrupt).
        // Findings raise the scrub-channel alarm; the online residual
        // wins same-step ties above.
        let findings = subject.scrub_step();
        if !findings.is_empty() && !repaired {
            if let Some(injs) = injected.clone() {
                scrub_alarm_step = Some(t);
                scrub_found = true;
                alarm_residual = subject.global_residual(victim);
                localize_and_repair(&mut subject, &mut out, &injs, t + 1);
                repaired = true;
            }
        }
    }

    // End-of-run structural audit: the backstop channel for coherent
    // corruption the online residual is blind to and the scrub cursor
    // has not reached (or when scrubbing is off entirely).
    if alarm_step.is_none() && scrub_alarm_step.is_none() {
        if let Some(injs) = injected.clone() {
            let faults = subject.audit(victim, spec.tolerance);
            if !faults.is_empty() {
                scrub_found = true;
                alarm_residual = subject.global_residual(victim);
                localize_and_repair(&mut subject, &mut out, &injs, spec.steps);
                repaired = true;
            }
        }
    }

    // Certify the recovery: post-repair decode must track the golden
    // twin bit for bit.
    if repaired {
        for t in spec.steps..spec.steps + spec.verify_steps {
            let (_, diverged) = lockstep(&mut subject, &mut golden, t);
            post_repair_divergent |= diverged;
        }
    }

    let alarm = alarm_step.is_some() || scrub_found;
    let category = match (corrupted, alarm) {
        (true, true) => FaultCategory::Detected,
        (false, true) => FaultCategory::FalsePositive,
        (true, false) => FaultCategory::Silent,
        (false, false) => FaultCategory::Masked,
    };
    out.base.record(&Classified {
        category,
        checker_site: spec.site.is_checker(),
        hw_residual: alarm_residual,
        prediction_discrepancy: 0.0,
        nan_poisoned: alarm_residual.is_nan(),
    });
    if alarm {
        let steps_to_verdict = match alarm_step.or(scrub_alarm_step) {
            Some(t) => (t - t_inj + 1) as u64,
            None => (spec.steps - t_inj) as u64,
        };
        out.detection_steps_sum += steps_to_verdict;
        out.detection_steps_max = steps_to_verdict;
        if category == FaultCategory::Detected {
            out.base.detected_latency_end_sum += steps_to_verdict;
        }
        if alarm_step.is_some() {
            out.online_detected += 1;
        } else {
            out.scrub_detected += 1;
        }
    }
    if repaired && post_repair_divergent {
        out.post_recovery_divergent += 1;
    }
    out.scrubbed_blocks = subject.scrubbed_blocks();
    out
}

/// Runs trials `from..to` of the campaign, fanned out over the shared
/// rayon pool. Each trial derives its RNG stream from `(seed, trial
/// index)`, so any shard partition merges to exactly the stats of a
/// single full run (property-tested).
pub fn run_live_shard(spec: &LiveCampaignSpec, from: u64, to: u64) -> LiveCampaignStats {
    assert!(from <= to, "shard range reversed: {from}..{to}");
    (from..to)
        .into_par_iter()
        .map(|trial| run_trial(spec, trial))
        .reduce(LiveCampaignStats::default, |mut acc, local| {
            acc.merge(&local);
            acc
        })
}

/// Runs the full campaign series (`0..spec.trials`).
pub fn run_live(spec: &LiveCampaignSpec) -> LiveCampaignStats {
    run_live_shard(spec, 0, spec.trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(site: InjectionSite) -> LiveCampaignSpec {
        LiveCampaignSpec::new(site, 24, 7)
            .with_batch(3)
            .with_shape(9, 6)
    }

    #[test]
    fn live_campaign_counts_add_up() {
        for site in InjectionSite::ALL {
            let stats = run_live(&quick(site));
            assert_eq!(stats.total(), 24, "{site:?}");
            assert!(stats.alarmed() <= stats.total());
        }
    }

    #[test]
    fn live_campaigns_are_deterministic() {
        let spec = quick(InjectionSite::Value);
        assert_eq!(run_live(&spec), run_live(&spec));
    }

    #[test]
    fn value_flips_are_detected_and_recovered() {
        // High bits dominate uniform sampling rarely, so assert the
        // aggregate story instead of per-trial: detections exist, some
        // recover, and recovered trials resume bit-identical.
        let stats = run_live(&quick(InjectionSite::Value).with_format(KvFormat::F64));
        assert!(
            stats.alarmed() > 0,
            "some value flips must alarm: {stats:?}"
        );
        assert!(
            stats.recoveries > 0,
            "alarms must recover blocks: {stats:?}"
        );
        assert_eq!(
            stats.post_recovery_divergent, 0,
            "f64 retain-all recovery is bit-exact: {stats:?}"
        );
        assert_eq!(stats.mislocalized, 0, "audited verdicts pin the site");
        assert!(
            stats.base.false_positive == 0,
            "value flips corrupt outputs"
        );
    }

    #[test]
    fn key_flips_need_the_scrub() {
        let stats = run_live(&quick(InjectionSite::Key).with_format(KvFormat::F64));
        assert!(
            stats.scrub_detected > 0,
            "residual-coherent key flips are a scrub story: {stats:?}"
        );
        assert_eq!(stats.post_recovery_divergent, 0, "{stats:?}");
    }

    #[test]
    fn sumrow_flips_are_checker_site_false_positives() {
        let stats = run_live(&quick(InjectionSite::Sumrow).with_format(KvFormat::F64));
        assert_eq!(
            stats.base.checker_site_hits,
            stats.total(),
            "sumrow is checker storage"
        );
        assert_eq!(stats.base.detected, 0, "sumrow never corrupts outputs");
        assert!(stats.base.false_positive > 0, "but it alarms: {stats:?}");
        assert_eq!(stats.mislocalized, 0);
    }

    #[test]
    fn accumulator_flips_never_corrupt_outputs() {
        let stats = run_live(&quick(InjectionSite::Accumulator));
        assert_eq!(stats.base.detected, 0);
        assert_eq!(stats.base.silent, 0);
        assert_eq!(stats.recovered_rows, 0, "verdict repair rewrites nothing");
        assert_eq!(stats.post_recovery_divergent, 0);
    }

    #[test]
    fn sharded_runs_merge_to_the_full_run() {
        let spec = quick(InjectionSite::Value);
        let full = run_live(&spec);
        let mut merged = run_live_shard(&spec, 0, 9);
        merged.merge(&run_live_shard(&spec, 9, 9));
        merged.merge(&run_live_shard(&spec, 9, 24));
        assert_eq!(full, merged);
    }

    #[test]
    fn sliding_window_campaigns_stay_well_formed() {
        let spec = quick(InjectionSite::Value)
            .with_eviction(EvictionPolicy::SlidingWindow { window_blocks: 2 })
            .with_format(KvFormat::Mixed { burst_blocks: 1 });
        let stats = run_live(&spec);
        assert_eq!(stats.total(), 24);
        // Laundered or evicted corruption is reported, not hidden.
        assert!(
            stats.localized + stats.mislocalized + stats.evicted_before_detect
                <= stats.alarmed() + stats.evicted_before_detect
        );
    }

    #[test]
    fn mean_steps_to_verdict_is_bounded_by_run_length() {
        let spec = quick(InjectionSite::Value);
        let stats = run_live(&spec);
        if stats.alarmed() > 0 {
            assert!(stats.mean_steps_to_verdict() >= 1.0);
            assert!(stats.mean_steps_to_verdict() <= (spec.steps + spec.verify_steps) as f64);
        }
    }

    #[test]
    fn multi_fault_bursts_stay_exact() {
        // k simultaneous value flips on the bit-pinned f64/retain-all
        // path: every flip is judged individually. The fingerprints are
        // exact, so every flip is localized (to its word whenever its
        // panel holds no other flip); a panel with several flipped words
        // is beyond mending and quarantines, and the regenerated history
        // still decodes bit-identical to the twin.
        for k in [2u32, 4] {
            let stats = run_live(
                &quick(InjectionSite::Value)
                    .with_format(KvFormat::F64)
                    .with_flips(k),
            );
            assert_eq!(stats.injected_flips, 24 * k as u64);
            assert_eq!(
                stats.localized + stats.mislocalized,
                stats.injected_flips,
                "retain-all judges every flip: {stats:?}"
            );
            assert_eq!(stats.mislocalized, 0, "k={k}: {stats:?}");
            assert_eq!(stats.post_recovery_divergent, 0, "k={k}: {stats:?}");
        }
    }

    #[test]
    fn scrubbing_catches_key_flips_mid_run_and_faster() {
        let base = quick(InjectionSite::Key).with_format(KvFormat::F64);
        let off = run_live(&base);
        let on = run_live(&base.with_scrub(2));
        assert_eq!(on.total(), off.total());
        assert!(on.scrubbed_blocks > 0, "bandwidth was spent: {on:?}");
        assert_eq!(off.scrubbed_blocks, 0, "no policy, no cost");
        assert!(
            on.scrub_detected > 0,
            "key flips are still a structural-walk story: {on:?}"
        );
        // The scrubber can only move verdicts earlier: with the same
        // seeds and more detections at worst equal latency each, both
        // aggregate latency observables shrink or hold.
        assert!(on.alarmed() >= off.alarmed());
        assert!(
            on.detection_steps_sum <= off.detection_steps_sum,
            "mid-run scrub must not slow detection: on={on:?} off={off:?}"
        );
        assert!(on.detection_steps_max <= off.detection_steps_max.max(1));
        assert_eq!(on.post_recovery_divergent, 0, "{on:?}");
    }

    #[test]
    fn scrub_detection_latency_respects_the_bandwidth_bound() {
        // Retain-all keeps live_blocks = batch × blocks(prefill+steps);
        // with bandwidth b the cursor needs at most ceil(live/b) steps
        // from injection — the verdict lands within that many decode
        // steps (or at the end-of-run audit, whose latency is shorter).
        let spec = quick(InjectionSite::Key)
            .with_format(KvFormat::F64)
            .with_scrub(3);
        let stats = run_live(&spec);
        let rows = spec.prefill + spec.steps;
        let max_live = spec.batch * rows.div_ceil(spec.block_rows);
        let bound = max_live.div_ceil(spec.scrub_blocks_per_step) as u64;
        assert!(
            stats.detection_steps_max <= bound.max(spec.steps as u64),
            "worst verdict {} exceeds scrub bound {bound}: {stats:?}",
            stats.detection_steps_max
        );
    }

    #[test]
    fn evicted_flips_only_count_when_eviction_beats_the_cursor() {
        // Sliding-window value campaign, with and without scrubbing: a
        // flip the cursor reaches first is localized; only flips whose
        // evidence left the window before any structural walk count as
        // evicted_before_detect. Scrubbing therefore never increases the
        // evicted count, and every judged flip lands in exactly one
        // bucket.
        let base = quick(InjectionSite::Value)
            .with_format(KvFormat::F64)
            .with_eviction(EvictionPolicy::SlidingWindow { window_blocks: 2 });
        let off = run_live(&base);
        let on = run_live(&base.with_scrub(4));
        for stats in [&off, &on] {
            assert!(
                stats.localized + stats.mislocalized + stats.evicted_before_detect
                    <= stats.injected_flips,
                "{stats:?}"
            );
        }
        assert!(
            on.evicted_before_detect <= off.evicted_before_detect,
            "the cursor only rescues evidence, never destroys it: on={on:?} off={off:?}"
        );
    }

    #[test]
    fn empty_campaign_is_default() {
        let mut spec = quick(InjectionSite::Key);
        spec.trials = 0;
        assert_eq!(run_live(&spec), LiveCampaignStats::default());
        assert_eq!(run_live(&spec).mean_steps_to_verdict(), 0.0);
        assert_eq!(run_live(&spec).localization_accuracy_pct(), 0.0);
    }
}
