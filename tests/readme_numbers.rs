//! README numbers cannot drift from the committed benchmark JSON, and
//! every committed artifact parses.
//!
//! Every cell of README's numbers tables — fused-checksum overhead and
//! the GQA sweep (`BENCH_kernels.json` `flash2` / `decode_gqa`), scrub
//! bandwidth (`BENCH_faults.json` `scrub`), the serving legs
//! (`BENCH_serving.json` `clean` / `preemption`) and the speculative
//! α×γ grid (`BENCH_serving.json` `speculative.points`) — is recomputed
//! from the JSON and compared at the precision the README prints: a
//! cell reading `13.6` must equal the JSON value formatted to one
//! decimal.

use fa_json::Json;
use std::path::Path;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn json(name: &str) -> Json {
    Json::parse(&read(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn get<'a>(j: &'a Json, key: &str) -> &'a Json {
    j.get(key)
        .unwrap_or_else(|| panic!("no key {key:?} in {j:?}"))
}

fn num(j: &Json, key: &str) -> f64 {
    get(j, key)
        .as_f64()
        .unwrap_or_else(|| panic!("{key:?} is not a number in {j:?}"))
}

fn arr<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    get(j, key)
        .as_arr()
        .unwrap_or_else(|| panic!("{key:?} is not an array in {j:?}"))
}

/// The body rows of the README table whose header line is exactly
/// `header`, as trimmed cells with `**` emphasis stripped.
fn table(readme: &str, header: &str) -> Vec<Vec<String>> {
    let mut lines = readme.lines().skip_while(|l| l.trim() != header);
    assert!(lines.next().is_some(), "README has no table {header:?}");
    let rows: Vec<Vec<String>> = lines
        .skip(1) // the |---| separator
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            l.trim()
                .trim_matches('|')
                .split('|')
                .map(|c| c.trim().replace("**", ""))
                .collect()
        })
        .collect();
    assert!(!rows.is_empty(), "README table {header:?} has no rows");
    rows
}

/// Asserts `cell` is `value` printed with as many decimals as `cell`.
fn check(cell: &str, value: f64, what: &str) {
    let decimals = cell.split_once('.').map_or(0, |(_, frac)| frac.len());
    assert_eq!(
        format!("{value:.decimals$}"),
        cell,
        "{what}: README prints {cell:?}, committed JSON holds {value}"
    );
}

/// Splits `"a / b"` (or `"a/b"`) into its two trimmed halves.
fn pair(cell: &str) -> (&str, &str) {
    let (a, b) = cell
        .split_once('/')
        .unwrap_or_else(|| panic!("{cell:?} is not a pair"));
    (a.trim(), b.trim())
}

#[test]
fn scrub_table_matches_bench_faults() {
    let readme = read("README.md");
    let faults = json("BENCH_faults.json");
    let points = arr(&faults, "scrub");
    let rows = table(
        &readme,
        "| blocks/step | bound (steps) | mean steps to verdict | worst observed |",
    );
    assert_eq!(rows.len(), points.len(), "one README row per scrub point");
    for (row, p) in rows.iter().zip(points) {
        let bps = num(p, "blocks_per_step");
        let what = format!("scrub blocks/step {bps}");
        // The off row reads "0 (off)" and has no analytical bound.
        check(row[0].split_whitespace().next().unwrap(), bps, &what);
        if num(p, "latency_bound_steps") == 0.0 {
            assert!(
                row[1].starts_with('—'),
                "{what}: unbounded row prints {:?}",
                row[1]
            );
        } else {
            check(&row[1], num(p, "latency_bound_steps"), &what);
        }
        check(&row[2], num(p, "mean_steps_to_verdict"), &what);
        check(&row[3], num(p, "detection_steps_max"), &what);
    }
}

#[test]
fn serving_legs_table_matches_bench_serving() {
    let readme = read("README.md");
    let serving = json("BENCH_serving.json");
    let rows = table(
        &readme,
        "| leg | finished/submitted | TTFT p50/p99 (steps) | tok p99 (steps) \
         | goodput under SLO | demote / preempt |",
    );
    let legs: Vec<&str> = rows
        .iter()
        .map(|r| r[0].split_whitespace().next().unwrap())
        .collect();
    assert_eq!(
        legs,
        ["clean", "preemption"],
        "README lists both serving legs"
    );
    for (row, leg) in rows.iter().zip(legs) {
        let j = get(&serving, leg);
        let (finished, submitted) = pair(&row[1]);
        check(finished, num(j, "finished"), leg);
        check(submitted, num(j, "submitted"), leg);
        let (p50, p99) = pair(&row[2]);
        check(p50, num(j, "ttft_p50_steps"), leg);
        check(p99, num(j, "ttft_p99_steps"), leg);
        check(&row[3], num(j, "per_token_p99_steps"), leg);
        check(&row[4], num(j, "goodput_under_slo"), leg);
        let (demote, preempt) = pair(&row[5]);
        check(demote, num(j, "demotions"), leg);
        check(preempt, num(j, "preemptions"), leg);
    }
}

#[test]
fn speculative_table_matches_bench_serving() {
    let readme = read("README.md");
    let serving = json("BENCH_serving.json");
    let points = arr(get(&serving, "speculative"), "points");
    let header = "| γ (window) | α = 0.3 | α = 0.6 | α = 0.9 |";
    let alphas: Vec<f64> = header
        .split('|')
        .filter_map(|c| c.trim().strip_prefix("α = "))
        .map(|a| a.parse().unwrap())
        .collect();
    let rows = table(&readme, header);
    assert_eq!(
        rows.len() * alphas.len(),
        points.len(),
        "one README cell per point"
    );
    for row in &rows {
        let gamma: f64 = row[0].parse().unwrap();
        for (cell, &alpha) in row[1..].iter().zip(&alphas) {
            let what = format!("speculative γ={gamma} α={alpha}");
            let p = points
                .iter()
                .find(|p| {
                    num(p, "gamma") == gamma && (num(p, "acceptance_rate") - alpha).abs() < 1e-9
                })
                .unwrap_or_else(|| panic!("{what}: no committed point"));
            // "37.1k vs 34.4k (1.08×)"
            let (spec, rest) = cell.split_once(" vs ").unwrap();
            let (seq, ratio) = rest.split_once(" (").unwrap();
            let (tok, seq_tok) = (num(p, "tokens_per_s"), num(p, "sequential_tokens_per_s"));
            check(spec.strip_suffix('k').unwrap(), tok / 1000.0, &what);
            check(seq.strip_suffix('k').unwrap(), seq_tok / 1000.0, &what);
            check(ratio.strip_suffix("×)").unwrap(), tok / seq_tok, &what);
        }
    }
}

#[test]
fn committed_artifacts_parse_and_round_trip() {
    for name in [
        "BENCH_kernels.json",
        "BENCH_faults.json",
        "BENCH_serving.json",
    ] {
        let doc = json(name);
        assert_eq!(
            Json::parse(&doc.write()).as_ref(),
            Ok(&doc),
            "{name}: rewriting the parsed document changed it"
        );
    }
}

#[test]
fn fused_checksum_table_matches_bench_kernels() {
    let readme = read("README.md");
    let kernels = json("BENCH_kernels.json");
    let threads = num(&kernels, "host_threads");
    assert!(
        readme.contains(&format!("`host_threads: {threads}`")),
        "README must name the committed run's host_threads ({threads})"
    );
    let points = arr(&kernels, "flash2");
    let rows = table(
        &readme,
        "| seq_len | unchecked flash2 (ms) | fused checked (ms) | overhead |",
    );
    assert_eq!(rows.len(), points.len(), "one README row per flash2 point");
    for (row, p) in rows.iter().zip(points) {
        let what = format!("flash2 seq_len {}", num(p, "seq_len"));
        let fused = get(p, "fused_checksum");
        let timing = get(fused, "vs_unchecked_flash2");
        check(&row[0], num(p, "seq_len"), &what);
        check(&row[1], num(timing, "baseline_ms"), &what);
        check(&row[2], num(timing, "optimized_ms"), &what);
        let pct = row[3].strip_suffix('%').expect("overhead cell ends in %");
        check(pct, num(fused, "overhead_pct"), &what);
    }
}

#[test]
fn gqa_table_matches_bench_kernels() {
    let readme = read("README.md");
    let kernels = json("BENCH_kernels.json");
    let points = arr(get(&kernels, "decode_gqa"), "points");
    let rows = table(
        &readme,
        "| group size | kv heads | tokens/s | MB/step | vs MHA |",
    );
    assert_eq!(rows.len(), points.len(), "one README row per GQA leg");
    let mha = &points[0];
    assert_eq!(num(mha, "group_size"), 1.0, "the first leg is MHA");
    for (row, p) in rows.iter().zip(points) {
        let what = format!("decode_gqa group {}", num(p, "group_size"));
        // "1 (MHA)" / "8 (MQA)" name the extreme legs.
        check(
            row[0].split_whitespace().next().unwrap(),
            num(p, "group_size"),
            &what,
        );
        check(&row[1], num(p, "kv_heads"), &what);
        check(&row[2], num(p, "tokens_per_s"), &what);
        check(&row[3], num(p, "bytes_per_step") / 1e6, &what);
        let ratio = row[4].strip_suffix('×').expect("ratio cell ends in ×");
        check(
            ratio,
            num(p, "tokens_per_s") / num(mha, "tokens_per_s"),
            &what,
        );
    }
}
